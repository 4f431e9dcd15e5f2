// Stage-by-stage replay of the serving path, driven from outside the server
// through each layer's public functions: sample_khop with a SamplerScratch,
// the batch's vertex dedup, FeatureCache::gather, SparseEngine construction,
// make_model and the model's forward. Each stage is timed as a span; the
// forward's kernel launches come from a gpusim::Trace and are re-issued
// through gnnone::Context to time them on the host. The first pass checks
// what those public calls return (sampled blocks, gather cycles and cache
// counts, the forward's ledger, predictions) against the ServingReport of
// the same trace.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "bench.h"

namespace perfbench {

/// One batch as the server formed it: its tenant, members (trace indices)
/// and, when sharded, its sampler device.
struct ReplayBatch {
  int tenant = 0;
  std::vector<std::size_t> members;
  int sampler = -1;
};

struct ReplayTotals {
  int passes = 0;
  long batches = 0;   // over the timing passes (all but the first)
  long requests = 0;  // over the timing passes
  double sample_s = 0.0;
  double dedup_s = 0.0;
  double gather_s = 0.0;
  double engine_s = 0.0;
  double model_s = 0.0;
  double forward_s = 0.0;  // whole forward span, kernel launches included
  ReissueStats reissued;   // forward launches re-issued through Context
  long sampled_edges = 0;
  long unique_vertices = 0;

  // What the first pass got from public calls, checked against the
  // ServingReport: batches whose sampled block (rows, edges) or unique vertex
  // count differs from its BatchStats, FeatureCache::gather cycles
  // (unsharded), cache counts, the forward ledger and predictions.
  long block_mismatches = 0;
  std::uint64_t gather_cycles = 0;
  std::uint64_t forward_cycles = 0;
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t remote_hits = 0;
  std::uint64_t remote_misses = 0;
  bool predictions_match = true;
  bool plan_matches = true;

  // Kernel launches of the first pass, from the gpusim::Trace.
  LaunchTotals kernels;
  long reissue_matched = 0;  // re-issued launches whose cycles match one
  long reissue_count = 0;    //   recorded in the same batch (first pass)
};

class ServeReplay {
 public:
  ServeReplay(const gnnone::Dataset& ds,
              const gnnone::InferenceServer& server,
              const gnnone::ServeOptions& opts,
              const gpusim::DeviceSpec& dev,
              std::span<const gnnone::SeedRequest> trace,
              const gnnone::ServingReport& report);

  /// The server's batch plan: each report batch's size, tenant and sampler
  /// device, its members drawn in order from the queue it served. Timed; a
  /// queue that runs short or is left over clears plan_matches.
  void build_plan(SpanLog* log);

  /// Replays every batch of the plan once. The first pass is checked: it
  /// records spans and kernel launches and re-issues them. Later passes, run
  /// untraced like serve(), supply the stage host times.
  void pass(SpanLog* run_log);

  const ReplayTotals& totals() const { return totals_; }
  std::size_t num_batches() const { return plan_.size(); }

 private:
  struct Block;
  Block sample(const ReplayBatch& rb);
  gnnone::GatherStats gather(const ReplayBatch& rb,
                             std::span<const gnnone::vid_t> unique,
                             std::size_t b,
                             gnnone::FeatureCache::ClockTxn* txn,
                             gnnone::CycleLedger* ledger);
  const gnnone::StageSpan* modeled_forward_span(std::size_t b) const;

  const gnnone::Dataset& ds_;
  const gnnone::InferenceServer& server_;
  const gnnone::ServeOptions& opts_;
  const gpusim::DeviceSpec& dev_;
  std::span<const gnnone::SeedRequest> trace_;
  const gnnone::ServingReport& report_;
  gnnone::Csr csr_;
  std::vector<float> features_;
  int in_dim_;
  gnnone::SamplerScratch scratch_;
  gnnone::Context ctx_;
  std::vector<ReplayBatch> plan_;
  ReplayTotals totals_;
};

}  // namespace perfbench
