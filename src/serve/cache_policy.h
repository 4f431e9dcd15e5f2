// Feature-cache placement policies for GNN serving (docs/SERVING.md §9).
//
// The serving tier's byte budget is dominated by feature gathers, so *which*
// rows sit in device memory decides how much traffic crosses PCIe. Three
// deterministic policies compete behind one abstraction:
//
//  * kDegree — FGNN's static baseline (the pre-policy server, preserved bit
//    for bit): pin the top-alpha fraction of vertices by degree, ties by
//    ascending id.
//  * kPresampleFrequency — FGNN's headline result: run the deterministic
//    k-hop sampler for a few warmup epochs over a probe trace, count how
//    often each vertex is actually gathered, and pin the top-alpha by
//    observed frequency (degree-then-id tiebreak). Frequency measures the
//    sampler's real access distribution — in-neighbor reach under fanout
//    caps — which degree order only approximates; with zero epochs every
//    count ties at 0 and the order collapses to the degree order exactly.
//  * kClock — a recency policy: a CLOCK (second-chance) cache seeded from
//    the degree-ordered pinned set that adapts online. Hits set a slot's
//    reference bit; a miss evicts the first unreferenced slot at the hand
//    and installs the missed row. Misses still cross PCIe, and each
//    installed row is additionally written to the cache slot at DRAM
//    bandwidth, so adaptation has a modeled cost — the trade the drifting-
//    hot-set bench measures.
//
// The autotuner's signature machinery arbitrates: tune_cache_policy()
// replays a trace's sample+gather stream through every policy, records the
// winner in the TuningCache keyed by (graph signature, workload, device),
// and ServeOptions::cache_policy = kAuto dispatches that record (exact
// signature first, nearest fallback, degree when nothing matches).
//
// Everything here is deterministic: orders are full sorts with total
// tiebreaks, probe epochs derive their sampler seeds from (seed, epoch),
// and CLOCK state evolves per batch under an explicit commit discipline
// (feature_cache.h) so serial, pipelined, and chaos-recovered serves observe
// identical hit/miss streams.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "gen/requests.h"
#include "gpusim/device.h"
#include "graph/coo.h"
#include "graph/csr.h"
#include "graph/types.h"
#include "sample/sampler.h"
#include "tune/cache.h"

namespace gnnone::serve {

enum class CachePolicy {
  kDegree,              // static top-alpha by degree (the original cache)
  kPresampleFrequency,  // static top-alpha by warmup-sampled frequency
  kClock,               // dynamic second-chance cache seeded from degree
  kAuto,                // dispatch the tuned winner per workload signature
};

const char* cache_policy_name(CachePolicy p);
/// Inverse of cache_policy_name; false when the name is unknown.
bool cache_policy_from_name(const std::string& name, CachePolicy* out);

/// The degree pin order: degree descending, ties by ascending id — exactly
/// the order the pre-policy FeatureCache sorted (and the request
/// generator's hot set uses), so kDegree stays bit-identical.
std::vector<vid_t> degree_order(const Coo& graph);

/// Per-vertex access counts from `epochs` warmup passes of the k-hop
/// sampler over `probe`: every vertex of every sampled block counts one
/// access per request (blocks are deduplicated within a request, the same
/// granularity the serving gather fetches at). Epoch e derives its sampler
/// seed from (seed, e), so epochs observe independent draws of the same
/// workload. `scratch` is the serving sampler's reusable intern table;
/// null allocates a private one. epochs == 0 (or an empty probe) returns
/// all-zero counts. Throws std::invalid_argument on negative epochs or a
/// probe seed outside the graph.
std::vector<std::uint64_t> presample_frequencies(
    const Csr& csr, std::span<const SeedRequest> probe,
    const std::vector<int>& fanouts, std::uint64_t seed, int epochs,
    SamplerScratch* scratch = nullptr);

/// The pre-sampling pin order: frequency descending, then degree
/// descending, then ascending id. All-zero frequencies (zero warmup
/// epochs) therefore reproduce degree_order() bit for bit.
std::vector<vid_t> frequency_order(std::span<const std::uint64_t> freq,
                                   std::span<const vid_t> degrees);

/// Default probe trace for kPresampleFrequency when the caller supplies
/// none: `num_requests` uniform 1–3-seed requests over the graph, derived
/// from (but distinct from) `seed` so the probe never aliases a serving
/// trace generated from the same seed.
std::vector<SeedRequest> default_presample_probe(const Coo& graph,
                                                 std::uint64_t seed,
                                                 int num_requests = 64);

/// Largest-remainder split of `capacity` cache rows across tenant shares:
/// all-zero shares mean an equal split; otherwise rows are apportioned
/// proportionally to the (nonnegative) shares. Deterministic — remainder
/// rows go to the largest fractional parts, ties to the lowest tenant
/// index — and the parts always sum exactly to `capacity`. Throws
/// std::invalid_argument on an empty share list or a negative share.
std::vector<vid_t> partition_capacities(vid_t capacity,
                                        std::span<const double> shares);

/// Canonical workload discriminator of a serving config — the `workload`
/// coordinate of tune::ServeKey, e.g. "alpha=0.100;fan=10-5;bs=24;f=32".
std::string cache_workload_key(double alpha, const std::vector<int>& fanouts,
                               int batch_size, int feat_dim);

/// Deterministic CLOCK (second-chance) cache state over feature rows.
/// Copyable value semantics: the serving layer snapshots per-batch states
/// to keep recovery replays (feature_cache.h's ClockTxn) order-invariant.
class ClockCache {
 public:
  ClockCache() = default;
  /// `capacity` slots pre-filled with the first `capacity` vertices of
  /// `seed_order` (the static policy's pinned prefix), reference bits
  /// clear. A full seed keeps alpha = 1 all-hit and alpha = 0 all-miss
  /// identical to the static policies.
  ClockCache(std::span<const vid_t> seed_order, vid_t capacity,
             vid_t num_vertices);

  vid_t capacity() const { return vid_t(slots_.size()); }
  bool contains(vid_t v) const { return slot_of_[std::size_t(v)] >= 0; }

  /// One reference of `v`. A hit sets the slot's second-chance bit and
  /// returns true. A miss (with capacity > 0) sweeps the hand — clearing
  /// set bits as it passes — evicts the first unreferenced slot, installs
  /// `v` there with its bit clear, advances the hand past it, and returns
  /// false. Capacity 0 is a pure miss.
  bool access(vid_t v);

 private:
  std::vector<vid_t> slots_;   // slot -> resident vertex
  std::vector<char> ref_;      // second-chance bit per slot
  std::vector<vid_t> slot_of_;  // vertex -> slot, -1 when absent
  std::size_t hand_ = 0;
};

/// One policy's replayed cost over a trace (tune_cache_policy).
struct PolicyOutcome {
  CachePolicy policy = CachePolicy::kDegree;
  std::uint64_t gather_cycles = 0;
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  double hit_rate() const {
    const double total = double(hits + misses);
    return total > 0.0 ? double(hits) / total : 0.0;
  }
};

/// The bake-off verdict: every concrete policy's replayed gather cost and
/// the winner (fewest gather cycles; ties break in enum order, so degree —
/// the conservative default — wins exact ties).
struct CachePolicyBakeoff {
  std::vector<PolicyOutcome> outcomes;  // kDegree, kPresampleFrequency, kClock
  CachePolicy winner = CachePolicy::kDegree;
};

/// Workload knobs of one bake-off run — mirrors the ServeOptions fields
/// that shape gather traffic, without depending on server.h.
struct PolicyTuneConfig {
  double cache_alpha = 0.1;
  std::vector<int> fanouts = {10, 5};
  int batch_size = 8;
  int feat_len = 32;
  std::uint64_t seed = 1;
  int presample_epochs = 3;
  /// Probe trace for the frequency policy; empty = default_presample_probe.
  std::vector<SeedRequest> presample_probe;
  std::size_t elem_bytes = sizeof(float);
};

/// Replays `trace`'s sample + gather stream (no forward passes — gather
/// traffic is all that differs between policies) through each concrete
/// policy and, when `out` is non-null, records the winner under
/// (signature_of(graph), cache_workload_key(cfg), device_key(dev)) so a
/// later kAuto server dispatches it. Deterministic; throws
/// std::invalid_argument on invalid cfg or a trace seed outside the graph.
CachePolicyBakeoff tune_cache_policy(const Coo& graph,
                                     const gpusim::DeviceSpec& dev,
                                     const PolicyTuneConfig& cfg,
                                     std::span<const SeedRequest> trace,
                                     tune::TuningCache* out);

}  // namespace gnnone::serve
