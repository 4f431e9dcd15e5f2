// bench::Harness — the machine-readable result sink behind every bench.
//
// Each bench registers itself with GNNONE_BENCH(...) and receives a Harness.
// While the bench keeps printing its human-readable stdout tables, every
// measured point is ALSO registered as a Row (dataset, kernel/system, feature
// dim, config, modeled cycles, full KernelStats counter block), every
// headline average as a Metric (with the paper's value when the paper states
// one), and every paper-shape claim from DESIGN.md §3 as an Expectation.
//
// The harness then emits:
//  * a versioned BENCH_RESULTS.json (schema below) — one document whether
//    bench_runner ran the whole suite or an --only subset;
//  * one per-figure CSV next to it (all rows + counters, joinable on
//    bench/dataset/kernel/dim/config);
//  * a nonzero exit code when any expectation fails, so CI catches a run
//    that no longer matches the paper's shapes.
//
// JSON schema (version 1):
//   { "schema": "gnnone-bench-results", "version": 1, "scale": "full"|"ci",
//     "device": { "sm_clock_ghz": .., "num_sms": .., ... },
//     "benches": [ { "name", "title", "paper_ref",
//                    "rows": [ { "dataset", "kernel", "dim", "config",
//                                "status", "cycles", "counters"? : {...} } ],
//                    "metrics": [ { "name", "value", "paper"? } ],
//                    "expectations": [ { "id", "ok", "detail" } ] } ] }
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "gpusim/device.h"
#include "gpusim/stats.h"
#include "util/json.h"

namespace bench {

using Json = gnnone::util::Json;
using JsonError = gnnone::util::JsonError;

inline constexpr const char* kResultSchemaName = "gnnone-bench-results";
inline constexpr int kResultSchemaVersion = 1;

/// Suite scale: kFull reproduces every figure over the full dataset suite;
/// kCi runs a reduced subset (same simulation parameters — a ci row's cycles
/// are identical to the same row in a full run) sized for a CI job.
enum class Scale { kFull, kCi };
const char* scale_name(Scale s);

/// One measured point of one figure.
struct Row {
  std::string dataset;        // dataset id ("G4"); "" when not per-dataset
  std::string kernel;         // kernel/system/series name ("gnnone", "dgl")
  int dim = 0;                // feature length; 0 = not applicable
  std::string config;         // extra config discriminator ("cache=32")
  std::string status = "ok";  // "ok" | "n/s" | "oom" | "crash"
  std::uint64_t cycles = 0;   // modeled cycles (0 when status != "ok")
  bool has_stats = false;     // full counter block present?
  gpusim::KernelStats stats;
};

/// A headline scalar of the figure (geomean speedup, share, ...). `paper`
/// carries the paper's reported value when it states one (0 = none); the
/// EXPERIMENTS.md measured-vs-paper table is regenerated from these.
struct Metric {
  std::string name;
  double value = 0.0;
  double paper = 0.0;
};

/// One encoded paper-shape claim and its verdict for this run.
struct Expectation {
  std::string id;      // "fig3.gnnone_fastest"
  bool ok = false;
  std::string detail;  // what was measured / why it failed
};

class Harness {
 public:
  Harness(std::string name, std::string title, std::string paper_ref,
          Scale scale);

  const std::string& name() const { return name_; }
  const std::string& title() const { return title_; }
  const std::string& paper_ref() const { return paper_ref_; }
  Scale scale() const { return scale_; }
  bool ci() const { return scale_ == Scale::kCi; }

  // --- suite reduction ---------------------------------------------------
  // Full scale passes ids through; ci scale keeps only the ci allowlist
  // (chosen to preserve every graph class the §3 claims depend on: skewed,
  // uniform/road, Kronecker, dense, >2M-vertex, OOM-at-paper-scale).
  std::vector<std::string> reduce(std::vector<std::string> ids) const;
  std::vector<std::string> kernel_suite() const;
  std::vector<std::string> accuracy_suite() const;
  /// Feature-length sweep of Figs. 3/4: full {6,16,32,64}, ci {6,32} (keeps
  /// the small-dim-vs-32 crossover claims evaluable).
  std::vector<int> dims() const;

  // --- result sink -------------------------------------------------------
  Row& add(Row row);
  /// Full-stats row from a simulated launch.
  Row& add(const std::string& dataset, const std::string& kernel, int dim,
           const gpusim::KernelStats& ks, const std::string& config = "");
  /// Cycles-only row (training totals, aggregated pipelines).
  Row& add_cycles(const std::string& dataset, const std::string& kernel,
                  int dim, std::uint64_t cycles,
                  const std::string& config = "");
  /// Non-measured row ("n/s", "oom", "crash").
  Row& add_status(const std::string& dataset, const std::string& kernel,
                  int dim, const std::string& status,
                  const std::string& config = "");

  void metric(const std::string& name, double value, double paper = 0.0);

  /// Records one paper-shape claim verdict; returns `ok` so call sites can
  /// chain. A failed expectation makes the binary (and bench_runner) exit
  /// nonzero.
  bool expect(const std::string& id, bool ok, const std::string& detail = "");

  const std::vector<Row>& rows() const { return rows_; }
  const std::vector<Metric>& metrics() const { return metrics_; }
  const std::vector<Expectation>& expectations() const {
    return expectations_;
  }
  int failed_expectations() const;

  // --- exporters ---------------------------------------------------------
  Json to_json() const;      // one entry of the "benches" array
  std::string to_csv() const;  // per-figure CSV (header + all rows)

 private:
  std::string name_, title_, paper_ref_;
  Scale scale_;
  std::vector<Row> rows_;
  std::vector<Metric> metrics_;
  std::vector<Expectation> expectations_;
};

/// Whole-suite result document (schema above) from one or more benches.
Json results_doc(const std::vector<const Harness*>& benches, Scale scale,
                 const gpusim::DeviceSpec& spec);

// --- order statistics -----------------------------------------------------
// Exact nearest-rank percentiles (util/stats.h — the same selection the
// serving TenantReport uses, so a bench expectation on a p99 compares the
// identical number the report quotes). Throws std::invalid_argument on an
// empty sample set or p outside [0, 100].

std::uint64_t percentile(std::vector<std::uint64_t> samples, double p);
double percentile(std::vector<double> samples, double p);
/// p50 / p99 shorthands for latency-tail reporting.
std::uint64_t p50(std::vector<std::uint64_t> samples);
std::uint64_t p99(std::vector<std::uint64_t> samples);

// --- bench registry ------------------------------------------------------

struct BenchInfo {
  const char* name;       // "fig3_sddmm" — also the JSON/CSV identity
  int order;              // paper order for suite runs / reports
  const char* title;      // stdout header line
  const char* paper_ref;  // "reproduces:" line
  int (*fn)(Harness&);    // bench body; nonzero = hard failure
};

void register_bench(const BenchInfo& info);
/// All registered benches, sorted by (order, name).
std::vector<BenchInfo> registered_benches();

/// Parses "full"/"ci" into a Scale; returns false on anything else.
bool parse_scale(const char* s, Scale* out);
/// Prints the per-expectation ok/FAIL table of one bench to stdout.
void print_expectations(const Harness& h);

}  // namespace bench

// Declares + registers a bench body; bench_runner runs the registry.
#define GNNONE_BENCH(name_, order_, title_, ref_)                   \
  static int gnnone_bench_body(bench::Harness&);                    \
  static const bench::BenchInfo gnnone_bench_info{                  \
      #name_, order_, title_, ref_, &gnnone_bench_body};            \
  [[maybe_unused]] static const bool gnnone_bench_registered =      \
      (bench::register_bench(gnnone_bench_info), true);             \
  static int gnnone_bench_body([[maybe_unused]] bench::Harness& h)
