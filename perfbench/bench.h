// Shared pieces of the end-to-end benchmark driver: the four workloads, the
// host-time span log behind the traced run, and the sparse-launch shapes the
// traced run re-issues through gnnone::Context.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "core/gnnone.h"
#include "util/json.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// --- workloads ------------------------------------------------------------

enum class Kind { kServeClosed, kServeOpenMix, kServeSharded, kTrainFull };

struct Workload {
  std::string name;
  Kind kind = Kind::kServeClosed;
  std::string dataset;
  /// Host threads of the simulator's CTA pool (capped at nproc). Serving
  /// launches 1-3 CTAs per kernel, and waking pool threads in a shared VM
  /// makes its call tail noisy (p99 spread across runs 0.45 at 4 threads,
  /// 0.03 at 1), so serving runs serially; training's large grids keep
  /// every core busy.
  int host_threads = 1;
};

/// The workload named `name`; throws std::invalid_argument on an unknown one.
Workload workload_by_name(const std::string& name);

/// The server configuration a serving workload runs under.
gnnone::ServeOptions serve_options(const Workload& w);

/// The request trace a serving workload serves, generated from `seed` alone.
std::vector<gnnone::SeedRequest> make_trace(const Workload& w,
                                            const gnnone::Coo& graph,
                                            std::uint64_t seed);

/// Closed-loop requests in a serving workload's timed loop are served in
/// chunks of this many requests (whole batches).
inline constexpr int kChunkRequests = 64;
/// The open mix's arrival-ordered trace is served in windows of this many
/// requests, arrivals rebased to the window's first.
inline constexpr int kOpenWindowRequests = 512;

/// The inputs of the serve() calls one pass over `trace` makes: chunks of
/// kChunkRequests (closed loop) or arrival windows (open mix).
std::vector<std::vector<gnnone::SeedRequest>> split_calls(
    const Workload& w, const std::vector<gnnone::SeedRequest>& trace);

/// The open mix's tight SLO (its GCN tenant's, modeled cycles). The closed
/// loops are scored against it in slo_attainment_min too; their batches take
/// tens of thousands of cycles, so there the metric reads 1.0 by
/// construction and only serve_open_mix can move it.
inline constexpr std::uint64_t kTightSloCycles = 250'000;

// --- spans ----------------------------------------------------------------

/// Track ids of the span file: host-time tracks under process 1, the
/// modeled-cycle track (forward spans with their kernel launches) under 2.
inline constexpr int kReplayTrack = 1;
inline constexpr int kServeCallTrack = 2;
inline constexpr int kModeledTrack = 3;

struct Span {
  std::string name;
  int track = kReplayTrack;
  double start_us = 0.0;
  double end_us = 0.0;
  int id = 0;
  int parent = -1;  // id of the enclosing span, -1 at top level
  int batch = -1;   // batch index in the replay plan, -1 when not per batch
};

/// Spans held in memory and written out once, when the run ends.
class SpanLog {
 public:
  SpanLog() : origin_(Clock::now()) {}

  double now_us() const {
    return seconds_between(origin_, Clock::now()) * 1e6;
  }
  /// Appends a finished span and returns its id.
  int add(std::string name, int track, double start_us, double end_us,
          int parent, int batch);
  /// Moves the end of an already added span (a parent closed after its
  /// children).
  void set_end(int id, double end_us) {
    spans_[std::size_t(id)].end_us = end_us;
  }
  const std::vector<Span>& spans() const { return spans_; }

  /// Chrome/Perfetto trace-event JSON.
  gnnone::util::Json chrome_json(const gnnone::util::Json& meta) const;

 private:
  Clock::time_point origin_;
  std::vector<Span> spans_;
};

// --- sparse launch shapes -------------------------------------------------

enum class SparseOp { kSpmm, kSddmm };

/// One sparse launch a model issues: the op, whether it runs on the
/// transposed graph, and its feature width.
struct LaunchShape {
  SparseOp op = SparseOp::kSpmm;
  bool transposed = false;
  int f = 0;
};

/// The sparse launches one forward (and, when `training`, one backward) of
/// `kind` issues on a graph, in the model layers' order (gnn/layers.cc,
/// gnn/backends.cc).
std::vector<LaunchShape> model_launch_shapes(const std::string& kind,
                                             const gnnone::ModelConfig& cfg,
                                             bool training);

/// Host time and modeled cost of re-issuing shapes through gnnone::Context.
struct ReissueStats {
  int spmm_launches = 0;
  int sddmm_launches = 0;
  double spmm_s = 0.0;
  double sddmm_s = 0.0;
  std::uint64_t warp_instrs = 0;
  std::vector<std::uint64_t> cycles;  // per re-issued launch, in order
};

/// Re-issues every shape on `coo` (and `coo_t` for transposed shapes) with
/// the default GNNOne configuration, timing each launch; adds to `out`.
void reissue(const gnnone::Context& ctx, const gnnone::Coo& coo,
             const gnnone::Coo& coo_t, const std::vector<LaunchShape>& shapes,
             ReissueStats* out);

/// Warp instructions a launch issued, summed over its counters.
std::uint64_t warp_instrs(const gpusim::KernelStats& ks);

/// Counters summed over recorded kernel launches (gpusim::Trace events).
struct LaunchTotals {
  long launches = 0;
  long spmm = 0;
  long sddmm = 0;
  long dram_bound = 0;
  std::uint64_t spmm_cycles = 0;
  std::uint64_t sddmm_cycles = 0;
  std::uint64_t ctas = 0;
  std::uint64_t instrs = 0;
  std::uint64_t bytes_moved = 0;  // computed from the launch's counters

  void add(const gpusim::KernelStats& ks);
};

/// Counts entries of `reissued` that pair off with an equal entry of
/// `recorded` (multiset intersection size).
int matching_cycles(std::vector<std::uint64_t> recorded,
                    std::vector<std::uint64_t> reissued);

}  // namespace perfbench
