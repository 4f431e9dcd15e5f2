#include "harness.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <set>

#include "gen/datasets.h"
#include "util/stats.h"

namespace bench {

namespace {

// CI-scale dataset allowlist for the kernel suite (Figs. 3/4/8-12). One
// representative per graph class the §3 claims depend on:
//   G3  skewed power-law, <2M paper vertices (all baselines supported)
//   G4  skewed, >2M paper vertices (cuSPARSE/Sputnik SDDMM "n/s" rows)
//   G5  near-uniform road grid (the Fig. 9 cache-size inversion case)
//   G10 Kronecker (Fig. 12 Merge crash, dgNN error)
//   G13 >2M uniform k-mer graph
//   G14 extremely dense Reddit stand-in (GE-SpMM parity row)
const char* kCiKernelSuite[] = {"G3", "G4", "G5", "G10", "G13", "G14"};

bool in_ci_kernel_suite(const std::string& id) {
  for (const char* s : kCiKernelSuite) {
    if (id == s) return true;
  }
  return false;
}

Json counters_json(const gpusim::KernelStats& ks) {
  const gpusim::WarpStats& t = ks.totals;
  Json c = Json::object();
  c.set("ctas", ks.num_ctas);
  c.set("warps", ks.num_warps);
  c.set("ctas_per_sm", ks.resident_ctas_per_sm);
  c.set("warps_per_sm", ks.resident_warps_per_sm);
  c.set("dram_bw_bound", ks.dram_bandwidth_bound);
  c.set("issue_cycles", t.issue_cycles);
  c.set("stall_cycles", t.stall_cycles);
  c.set("load_issue_cycles", t.load_issue_cycles);
  c.set("load_stall_cycles", t.load_stall_cycles);
  c.set("store_issue_cycles", t.store_issue_cycles);
  c.set("atomic_issue_cycles", t.atomic_issue_cycles);
  c.set("global_load_instrs", t.global_load_instrs);
  c.set("global_store_instrs", t.global_store_instrs);
  c.set("load_transactions", t.load_transactions);
  c.set("store_transactions", t.store_transactions);
  c.set("bytes_loaded", t.bytes_loaded);
  c.set("bytes_stored", t.bytes_stored);
  c.set("shared_ops", t.shared_ops);
  c.set("shuffles", t.shuffles);
  c.set("barriers", t.barriers);
  c.set("atomic_instrs", t.atomic_instrs);
  c.set("atomic_serializations", t.atomic_serializations);
  c.set("alu_instrs", t.alu_instrs);
  c.set("data_load_fraction", ks.data_load_fraction());
  c.set("data_movement_fraction", ks.data_movement_fraction());
  return c;
}

}  // namespace

const char* scale_name(Scale s) { return s == Scale::kCi ? "ci" : "full"; }

Harness::Harness(std::string name, std::string title, std::string paper_ref,
                 Scale scale)
    : name_(std::move(name)),
      title_(std::move(title)),
      paper_ref_(std::move(paper_ref)),
      scale_(scale) {}

std::vector<std::string> Harness::reduce(std::vector<std::string> ids) const {
  if (scale_ == Scale::kFull) return ids;
  std::vector<std::string> out;
  for (auto& id : ids) {
    if (in_ci_kernel_suite(id)) out.push_back(std::move(id));
  }
  // A suite with no overlap (e.g. training-only ids) keeps its first entry
  // so every bench still produces rows at ci scale.
  if (out.empty() && !ids.empty()) out.push_back(ids.front());
  return out;
}

std::vector<std::string> Harness::kernel_suite() const {
  return reduce(gnnone::kernel_suite_ids());
}

std::vector<std::string> Harness::accuracy_suite() const {
  auto ids = gnnone::accuracy_suite_ids();
  if (ci() && !ids.empty()) ids.resize(1);
  return ids;
}

std::vector<int> Harness::dims() const {
  if (ci()) return {6, 32};
  return {6, 16, 32, 64};
}

Row& Harness::add(Row row) {
  rows_.push_back(std::move(row));
  return rows_.back();
}

Row& Harness::add(const std::string& dataset, const std::string& kernel,
                  int dim, const gpusim::KernelStats& ks,
                  const std::string& config) {
  Row r;
  r.dataset = dataset;
  r.kernel = kernel;
  r.dim = dim;
  r.config = config;
  r.cycles = ks.cycles;
  r.has_stats = true;
  r.stats = ks;
  return add(std::move(r));
}

Row& Harness::add_cycles(const std::string& dataset, const std::string& kernel,
                         int dim, std::uint64_t cycles,
                         const std::string& config) {
  Row r;
  r.dataset = dataset;
  r.kernel = kernel;
  r.dim = dim;
  r.config = config;
  r.cycles = cycles;
  return add(std::move(r));
}

Row& Harness::add_status(const std::string& dataset, const std::string& kernel,
                         int dim, const std::string& status,
                         const std::string& config) {
  Row r;
  r.dataset = dataset;
  r.kernel = kernel;
  r.dim = dim;
  r.config = config;
  r.status = status;
  return add(std::move(r));
}

void Harness::metric(const std::string& name, double value, double paper) {
  metrics_.push_back(Metric{name, value, paper});
}

bool Harness::expect(const std::string& id, bool ok,
                     const std::string& detail) {
  expectations_.push_back(Expectation{id, ok, detail});
  return ok;
}

int Harness::failed_expectations() const {
  int n = 0;
  for (const auto& e : expectations_) {
    if (!e.ok) ++n;
  }
  return n;
}

Json Harness::to_json() const {
  Json b = Json::object();
  b.set("name", name_);
  b.set("title", title_);
  b.set("paper_ref", paper_ref_);
  Json rows = Json::array();
  for (const Row& r : rows_) {
    Json row = Json::object();
    row.set("dataset", r.dataset);
    row.set("kernel", r.kernel);
    row.set("dim", r.dim);
    row.set("config", r.config);
    row.set("status", r.status);
    row.set("cycles", r.cycles);
    if (r.has_stats) row.set("counters", counters_json(r.stats));
    rows.push_back(std::move(row));
  }
  b.set("rows", std::move(rows));
  Json metrics = Json::array();
  for (const Metric& m : metrics_) {
    Json mj = Json::object();
    mj.set("name", m.name);
    mj.set("value", m.value);
    if (m.paper != 0.0) mj.set("paper", m.paper);
    metrics.push_back(std::move(mj));
  }
  b.set("metrics", std::move(metrics));
  Json exps = Json::array();
  for (const Expectation& e : expectations_) {
    Json ej = Json::object();
    ej.set("id", e.id);
    ej.set("ok", e.ok);
    ej.set("detail", e.detail);
    exps.push_back(std::move(ej));
  }
  b.set("expectations", std::move(exps));
  return b;
}

std::string Harness::to_csv() const {
  auto field = [](const std::string& s) {
    if (s.find_first_of(",\"\n") == std::string::npos) return s;
    std::string out = "\"";
    for (char c : s) {
      if (c == '"') out += '"';
      out += c;
    }
    out += '"';
    return out;
  };
  std::string out =
      "bench,dataset,kernel,dim,config,status,cycles,"
      "issue_cycles,stall_cycles,load_issue_cycles,load_stall_cycles,"
      "store_issue_cycles,atomic_issue_cycles,load_tx,bytes_loaded,"
      "bytes_stored,warps_per_sm,load_fraction\n";
  char buf[256];
  for (const Row& r : rows_) {
    out += field(name_) + ',' + field(r.dataset) + ',' + field(r.kernel) + ',';
    std::snprintf(buf, sizeof buf, "%d,", r.dim);
    out += buf;
    out += field(r.config) + ',' + field(r.status) + ',';
    std::snprintf(buf, sizeof buf, "%llu,",
                  static_cast<unsigned long long>(r.cycles));
    out += buf;
    if (r.has_stats) {
      const gpusim::WarpStats& t = r.stats.totals;
      std::snprintf(buf, sizeof buf,
                    "%llu,%llu,%llu,%llu,%llu,%llu,%llu,%llu,%llu,%d,%.4f",
                    static_cast<unsigned long long>(t.issue_cycles),
                    static_cast<unsigned long long>(t.stall_cycles),
                    static_cast<unsigned long long>(t.load_issue_cycles),
                    static_cast<unsigned long long>(t.load_stall_cycles),
                    static_cast<unsigned long long>(t.store_issue_cycles),
                    static_cast<unsigned long long>(t.atomic_issue_cycles),
                    static_cast<unsigned long long>(t.load_transactions),
                    static_cast<unsigned long long>(t.bytes_loaded),
                    static_cast<unsigned long long>(t.bytes_stored),
                    r.stats.resident_warps_per_sm,
                    r.stats.data_load_fraction());
      out += buf;
    } else {
      out += ",,,,,,,,,,";
    }
    out += '\n';
  }
  return out;
}

Json results_doc(const std::vector<const Harness*>& benches, Scale scale,
                 const gpusim::DeviceSpec& spec) {
  Json doc = Json::object();
  doc.set("schema", kResultSchemaName);
  doc.set("version", kResultSchemaVersion);
  doc.set("scale", scale_name(scale));
  Json dev = Json::object();
  dev.set("sm_clock_ghz", spec.sm_clock_ghz);
  dev.set("num_sms", spec.num_sms);
  dev.set("max_warps_per_sm", spec.max_warps_per_sm);
  dev.set("global_load_latency", spec.global_load_latency);
  dev.set("dram_bytes_per_cycle", spec.dram_bytes_per_cycle);
  doc.set("device", std::move(dev));
  Json arr = Json::array();
  for (const Harness* h : benches) arr.push_back(h->to_json());
  doc.set("benches", std::move(arr));
  return doc;
}

std::uint64_t percentile(std::vector<std::uint64_t> samples, double p) {
  return gnnone::util::percentile(std::move(samples), p);
}

double percentile(std::vector<double> samples, double p) {
  return gnnone::util::percentile(std::move(samples), p);
}

std::uint64_t p50(std::vector<std::uint64_t> samples) {
  return percentile(std::move(samples), 50.0);
}

std::uint64_t p99(std::vector<std::uint64_t> samples) {
  return percentile(std::move(samples), 99.0);
}

// --- registry -------------------------------------------------------------

namespace {
std::vector<BenchInfo>& registry() {
  static std::vector<BenchInfo> r;
  return r;
}
}  // namespace

void register_bench(const BenchInfo& info) { registry().push_back(info); }

std::vector<BenchInfo> registered_benches() {
  std::vector<BenchInfo> out = registry();
  std::sort(out.begin(), out.end(), [](const BenchInfo& a, const BenchInfo& b) {
    if (a.order != b.order) return a.order < b.order;
    return std::strcmp(a.name, b.name) < 0;
  });
  return out;
}

// --- command-line helpers --------------------------------------------------

bool parse_scale(const char* s, Scale* out) {
  if (std::strcmp(s, "full") == 0) {
    *out = Scale::kFull;
    return true;
  }
  if (std::strcmp(s, "ci") == 0) {
    *out = Scale::kCi;
    return true;
  }
  return false;
}

void print_expectations(const Harness& h) {
  if (h.expectations().empty()) return;
  std::printf("\npaper-shape expectations (%s):\n", h.name().c_str());
  for (const Expectation& e : h.expectations()) {
    std::printf("  [%s] %-40s %s\n", e.ok ? "ok" : "FAIL", e.id.c_str(),
                e.detail.c_str());
  }
}

}  // namespace bench
