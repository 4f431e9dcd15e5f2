#include "bench.h"

#include <algorithm>
#include <stdexcept>
#include <unordered_map>

namespace perfbench {

namespace {

using gnnone::ArrivalProcess;
using gnnone::serve::CachePolicy;
using gnnone::serve::SchedulerPolicy;
using gnnone::serve::ShardRole;

// Requests per closed-loop trace: 512 batches of 8, so the p99 over
// per-request latencies has 40 samples beyond it and its spread across
// seeds stays small.
constexpr int kClosedRequests = 4096;
// Requests per tenant of the open mix (p99 of the worst tenant: 20 beyond).
constexpr int kOpenRequestsPerTenant = 2048;
// Mean interarrival cycles per tenant of the open mix: just below the knee
// where the worst tenant's SLO attainment starts to fall.
constexpr double kOpenMeanInterarrival = 3.0e4;

}  // namespace

Workload workload_by_name(const std::string& name) {
  if (name == "serve_closed") return {name, Kind::kServeClosed, "G4", 1};
  if (name == "serve_open_mix") return {name, Kind::kServeOpenMix, "G4", 1};
  if (name == "serve_sharded") return {name, Kind::kServeSharded, "G4", 1};
  if (name == "train_full") return {name, Kind::kTrainFull, "G13", 4};
  throw std::invalid_argument("unknown workload '" + name + "'");
}

gnnone::ServeOptions serve_options(const Workload& w) {
  gnnone::ServeOptions o;  // gcn, batch 8, fanouts {10,5}, alpha 0.1, kAuto
  switch (w.kind) {
    case Kind::kServeClosed:
      break;
    case Kind::kServeOpenMix: {
      gnnone::serve::TenantSpec gcn;
      gcn.name = "gcn_poisson";
      gcn.model_kind = "gcn";
      gcn.fanouts = {10, 5};
      gcn.slo_cycles = kTightSloCycles;
      gnnone::serve::TenantSpec gat;
      gat.name = "gat_bursty";
      gat.model_kind = "gat";
      gat.fanouts = {5, 5};
      gat.slo_cycles = 500'000;
      o.tenants = {gcn, gat};
      o.scheduler.policy = SchedulerPolicy::kEdf;
      o.pipeline = true;
      o.cache_policy = CachePolicy::kClock;
      break;
    }
    case Kind::kServeSharded:
      o.shard.num_devices = 4;
      o.shard.roles = {ShardRole::kSampler, ShardRole::kSampler,
                       ShardRole::kForward, ShardRole::kForward};
      break;
    case Kind::kTrainFull:
      throw std::invalid_argument("train_full has no server");
  }
  return o;
}

std::vector<gnnone::SeedRequest> make_trace(const Workload& w,
                                            const gnnone::Coo& graph,
                                            std::uint64_t seed) {
  if (w.kind != Kind::kServeOpenMix) {
    gnnone::RequestTraceOptions ro;
    ro.num_requests = kClosedRequests;
    ro.min_seeds = 1;
    ro.max_seeds = 4;
    ro.hot_fraction = 0.5;
    ro.seed = seed;
    return gnnone::make_request_trace(graph, ro);
  }
  std::vector<gnnone::TenantWorkload> tenants(2);
  for (std::size_t t = 0; t < tenants.size(); ++t) {
    gnnone::TenantWorkload& tw = tenants[t];
    tw.requests.num_requests = kOpenRequestsPerTenant;
    tw.requests.min_seeds = 1;
    tw.requests.max_seeds = 2;
    tw.requests.seed = seed * 2 + t;
    tw.arrivals.mean_interarrival_cycles = kOpenMeanInterarrival;
    tw.arrivals.seed = 1;  // one fixed arrival schedule; --seed picks the requests
  }
  tenants[0].requests.hot_fraction = 0.5;  // GCN tenant: hot seeds, Poisson
  tenants[1].arrivals.process = ArrivalProcess::kBursty;
  tenants[1].arrivals.period_cycles =
      std::uint64_t(8.0 * kOpenMeanInterarrival) + 1;
  return gnnone::make_open_loop_trace(graph, tenants);
}

std::vector<std::vector<gnnone::SeedRequest>> split_calls(
    const Workload& w, const std::vector<gnnone::SeedRequest>& trace) {
  const bool open = w.kind == Kind::kServeOpenMix;
  const std::size_t n =
      std::size_t(open ? kOpenWindowRequests : kChunkRequests);
  std::vector<std::vector<gnnone::SeedRequest>> calls;
  for (std::size_t at = 0; at < trace.size(); at += n) {
    calls.emplace_back(trace.begin() + long(at),
                       trace.begin() + long(std::min(at + n, trace.size())));
    if (!open) continue;
    const std::uint64_t base = calls.back().front().arrival_cycle;
    for (gnnone::SeedRequest& r : calls.back()) r.arrival_cycle -= base;
  }
  return calls;
}

// --- spans ----------------------------------------------------------------

int SpanLog::add(std::string name, int track, double start_us, double end_us,
                 int parent, int batch) {
  const int id = int(spans_.size());
  spans_.push_back({std::move(name), track, start_us, end_us, id, parent,
                    batch});
  return id;
}

gnnone::util::Json SpanLog::chrome_json(const gnnone::util::Json& meta) const {
  using gnnone::util::Json;
  Json events = Json::array();
  const auto name_event = [&](int pid, int tid, const char* what,
                              const char* name) {
    Json e = Json::object();
    e.set("ph", "M");
    e.set("pid", pid);
    e.set("tid", tid);
    e.set("name", what);
    Json args = Json::object();
    args.set("name", name);
    e.set("args", args);
    events.push_back(e);
  };
  name_event(1, 0, "process_name", "host clock");
  name_event(2, 0, "process_name", "modeled clock (1 us = sm_clock_ghz * 1e3 cycles)");
  name_event(1, kReplayTrack, "thread_name", "stage-by-stage replay");
  name_event(1, kServeCallTrack, "thread_name", "serve() / train_model() calls");
  name_event(2, kModeledTrack, "thread_name", "forward spans and kernel launches");
  for (const Span& s : spans_) {
    Json e = Json::object();
    e.set("name", s.name);
    e.set("ph", "X");
    e.set("pid", s.track == kModeledTrack ? 2 : 1);
    e.set("tid", s.track);
    e.set("ts", s.start_us);
    e.set("dur", std::max(0.0, s.end_us - s.start_us));
    Json args = Json::object();
    args.set("id", s.id);
    args.set("parent", s.parent);
    args.set("batch", s.batch);
    e.set("args", args);
    events.push_back(e);
  }
  Json doc = Json::object();
  doc.set("traceEvents", events);
  doc.set("displayTimeUnit", "ms");
  doc.set("otherData", meta);
  return doc;
}

// --- sparse launch shapes -------------------------------------------------

std::vector<LaunchShape> model_launch_shapes(const std::string& kind,
                                             const gnnone::ModelConfig& cfg,
                                             bool training) {
  std::vector<LaunchShape> shapes;
  for (int l = 0; l < cfg.num_layers; ++l) {
    const int out =
        int(l + 1 == cfg.num_layers ? cfg.num_classes : cfg.hidden);
    if (kind == "gcn") {
      shapes.push_back({SparseOp::kSpmm, false, out});
      if (training) shapes.push_back({SparseOp::kSpmm, true, out});
    } else if (kind == "gat") {
      // u_add_v (f = 2 SDDMM), edge softmax's two f = 1 segment reductions,
      // then the attention-weighted aggregation.
      shapes.push_back({SparseOp::kSddmm, false, 2});
      shapes.push_back({SparseOp::kSpmm, false, 1});
      shapes.push_back({SparseOp::kSpmm, false, 1});
      shapes.push_back({SparseOp::kSpmm, false, out});
      if (training) {
        // Aggregation backward (dh, d alpha), the softmax segment sum, and
        // u_add_v's two score scatters.
        shapes.push_back({SparseOp::kSpmm, true, out});
        shapes.push_back({SparseOp::kSddmm, false, out});
        shapes.push_back({SparseOp::kSpmm, false, 1});
        shapes.push_back({SparseOp::kSpmm, false, 1});
        shapes.push_back({SparseOp::kSpmm, true, 1});
      }
    } else {
      throw std::invalid_argument("no launch shapes for model '" + kind + "'");
    }
  }
  return shapes;
}

std::uint64_t warp_instrs(const gpusim::KernelStats& ks) {
  const gpusim::WarpStats& t = ks.totals;
  return t.global_load_instrs + t.global_store_instrs + t.shared_ops +
         t.shuffles + t.barriers + t.atomic_instrs + t.alu_instrs;
}

void LaunchTotals::add(const gpusim::KernelStats& ks) {
  ++launches;
  if (ks.label.find("sddmm") != std::string::npos) {
    ++sddmm;
    sddmm_cycles += ks.cycles;
  } else {
    ++spmm;
    spmm_cycles += ks.cycles;
  }
  ctas += ks.num_ctas;
  instrs += warp_instrs(ks);
  bytes_moved += ks.totals.bytes_loaded + ks.totals.bytes_stored;
  dram_bound += ks.dram_bandwidth_bound ? 1 : 0;
}

void reissue(const gnnone::Context& ctx, const gnnone::Coo& coo,
             const gnnone::Coo& coo_t, const std::vector<LaunchShape>& shapes,
             ReissueStats* out) {
  for (const LaunchShape& s : shapes) {
    const gnnone::Coo& g = s.transposed ? coo_t : coo;
    if (g.nnz() == 0) continue;
    const std::size_t rows = std::size_t(g.num_rows);
    const std::size_t f = std::size_t(s.f);
    std::vector<float> x(rows * f, 0.5f), y(rows * f, 0.25f);
    std::vector<float> edge(std::size_t(g.nnz()), 1.0f);
    const Clock::time_point t0 = Clock::now();
    const gpusim::KernelStats ks =
        s.op == SparseOp::kSpmm ? ctx.spmm(g, edge, x, s.f, y)
                                : ctx.sddmm(g, x, y, s.f, edge);
    const double dt = seconds_between(t0, Clock::now());
    if (s.op == SparseOp::kSpmm) {
      ++out->spmm_launches;
      out->spmm_s += dt;
    } else {
      ++out->sddmm_launches;
      out->sddmm_s += dt;
    }
    out->warp_instrs += warp_instrs(ks);
    out->cycles.push_back(ks.cycles);
  }
}

int matching_cycles(std::vector<std::uint64_t> recorded,
                    std::vector<std::uint64_t> reissued) {
  std::unordered_map<std::uint64_t, int> pool;
  for (std::uint64_t c : recorded) ++pool[c];
  int matched = 0;
  for (std::uint64_t c : reissued) {
    auto it = pool.find(c);
    if (it != pool.end() && it->second > 0) {
      --it->second;
      ++matched;
    }
  }
  return matched;
}

}  // namespace perfbench
