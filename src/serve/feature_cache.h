// Policy-driven feature cache for GNN serving (the FGNN design,
// docs/SERVING.md §9).
//
// Sampling-based inference spends most of its bytes gathering input features
// for the sampled vertices; on a real deployment those live in host memory
// and cross PCIe. FGNN's observation is that a *static* cache works almost
// as well as an oracle one on power-law graphs: pin the features of the
// top-alpha fraction of vertices on the device. Which rows get pinned — and
// whether the resident set may adapt online — is the cache policy
// (serve/cache_policy.h): degree order (the original behavior, bit-identical
// under the default config), pre-sampling frequency order, or a CLOCK
// second-chance cache seeded from the degree set. A cached vertex's row is
// read at DRAM bandwidth; a miss crosses PCIe; a CLOCK install additionally
// writes the fetched row into its slot at DRAM bandwidth. All of it is
// charged to the cycle ledger under "feature_gather" and to the memory
// ledger under "feature_cache_hit" / "feature_cache_miss" /
// "feature_cache_insert", which is what the serving bench's alpha and
// policy sweeps measure.
//
// CLOCK determinism (the serial ≡ pipelined ≡ chaos contract): dynamic
// state evolves per *batch*, not per gather call. A ClockTxn holds the
// committed state after each batch; a batch's first full-fidelity,
// full-membership gather simulates from the state after the previous batch
// and commits the result, while every other gather on the batch's behalf
// (retries, bisected halves, truncated or safe-mode reruns) replays against
// that same basis and discards its state. Commits therefore happen in batch
// order, so the hit/miss stream — and every cycle charged from it — is
// identical in serial, pipelined, and chaos-recovery execution.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "gpusim/device.h"
#include "graph/coo.h"
#include "graph/types.h"
#include "serve/cache_policy.h"
#include "tensor/ledger.h"

namespace gnnone {

/// Byte and cycle accounting of one gather call.
struct GatherStats {
  std::uint64_t hits = 0;    // vertices served from the device cache
  std::uint64_t misses = 0;  // vertices fetched across PCIe
  /// CLOCK only: rows evicted to make room (== rows installed, since the
  /// cache starts full); 0 under the static policies.
  std::uint64_t evictions = 0;
  std::size_t hit_bytes = 0;
  std::size_t miss_bytes = 0;
  /// CLOCK only: bytes of fetched rows written into their cache slots.
  std::size_t insert_bytes = 0;
  /// Sharded serving only (docs/SERVING.md §10; always 0 from
  /// FeatureCache::gather itself): vertices owned by a peer device, served
  /// from the peer's pinned rows over NVLink (remote hit) or refetched from
  /// the host over PCIe (remote miss).
  std::uint64_t remote_hits = 0;
  std::uint64_t remote_misses = 0;
  std::size_t remote_hit_bytes = 0;
  std::size_t remote_miss_bytes = 0;
  std::uint64_t cycles = 0;  // modeled cycles of the gather launch
};

/// Thrown by FeatureCache::gather when an armed transient PCIe-fetch fault
/// fires (serve/chaos.h): the host->device copy of this gather failed and
/// must be retried. Fires *before* any cycles or bytes are charged, so a
/// faulted gather attempt leaves the ledgers untouched.
class TransientFetchError : public std::runtime_error {
 public:
  TransientFetchError(std::uint64_t key, int attempt)
      : std::runtime_error("transient PCIe fetch fault: request " +
                           std::to_string(key) + ", attempt " +
                           std::to_string(attempt)),
        key_(key),
        attempt_(attempt) {}
  std::uint64_t key() const { return key_; }
  int attempt() const { return attempt_; }

 private:
  std::uint64_t key_;
  int attempt_;
};

/// One fault probe of a gather call: `key` identifies the unit of work the
/// gather serves (the serving driver passes the request's trace index) and
/// `attempt` counts how many gathers that unit has already attempted. The
/// fault schedule is a pure function of (seed, key, attempt), so outcomes
/// are independent of batch composition and of serial vs pipelined order.
struct GatherProbe {
  std::uint64_t key = 0;
  int attempt = 0;
};

/// Structural knobs of a FeatureCache beyond (graph, feat_len, alpha).
struct CacheConfig {
  serve::CachePolicy policy = serve::CachePolicy::kDegree;
  /// Bytes per feature element — derived from the feature tensor's element
  /// type by the server (the tensor stack is float today; an fp16/fp64
  /// feature table changes every PCIe/DRAM charge through this knob).
  std::size_t elem_bytes = sizeof(float);
  /// >= 0 overrides the alpha-derived row capacity — the per-tenant
  /// partitioning path, where each tenant owns a fixed share of the rows.
  vid_t capacity_override = -1;
};

class FeatureCache {
 public:
  /// Caches the features of the top-`alpha` fraction of `graph`'s vertices
  /// ordered by degree (descending, ties by ascending id — the same order
  /// the request generator's hot set uses). alpha is clamped to [0, 1];
  /// alpha = 0 caches nothing, alpha = 1 caches every vertex. The device
  /// spec is copied — callers routinely pass temporaries.
  FeatureCache(const Coo& graph, int feat_len, double alpha,
               const gpusim::DeviceSpec& dev,
               std::size_t elem_bytes = sizeof(float));

  /// Policy-driven cache. `pin_order` is the full vertex ordering the
  /// policy pins from (serve::degree_order / serve::frequency_order); its
  /// first capacity entries form the resident set — the static set for the
  /// static policies, the initial CLOCK fill for kClock. An empty span
  /// computes the degree order internally. cfg.policy must be a concrete
  /// policy (kAuto is resolved by the server before construction; throws
  /// std::invalid_argument here).
  FeatureCache(const Coo& graph, int feat_len, double alpha,
               const gpusim::DeviceSpec& dev, const CacheConfig& cfg,
               std::span<const vid_t> pin_order = {});

  /// The alpha-derived row capacity every cache and partition split uses:
  /// llround(alpha * n) clamped to [0, n].
  static vid_t capacity_for(vid_t num_vertices, double alpha);

  /// Static membership: the pinned set for the static policies, the
  /// *initial* fill for kClock (whose resident set then adapts per serve).
  bool cached(vid_t v) const { return cached_[std::size_t(v)] != 0; }
  vid_t num_cached() const { return num_cached_; }
  vid_t num_vertices() const { return vid_t(cached_.size()); }
  double alpha() const { return alpha_; }
  int feat_len() const { return feat_len_; }
  serve::CachePolicy policy() const { return policy_; }
  std::size_t elem_bytes() const { return elem_bytes_; }

  /// Device bytes the cache's slots occupy (CLOCK slots are allocated
  /// whether or not their resident row changed).
  std::size_t device_bytes() const {
    return std::size_t(num_cached_) * row_bytes();
  }

  /// Bytes of one feature row, sized from the feature element type.
  std::size_t row_bytes() const {
    return std::size_t(feat_len_) * elem_bytes_;
  }

  /// Arms the seeded transient PCIe-fetch fault schedule: a gather whose
  /// probe's (key, attempt) is poisoned under (rate, seed) throws
  /// TransientFetchError (serve/chaos.h's fetch_fate). rate <= 0 disarms.
  void set_fetch_faults(double rate, std::uint64_t seed) {
    fetch_rate_ = rate;
    fetch_seed_ = seed;
  }

  /// Per-serve CLOCK state under the per-batch commit discipline (header
  /// comment). The serving driver owns one per cache per serve() call;
  /// unit tests may drive one directly. Movable, not copyable.
  class ClockTxn {
   public:
    explicit ClockTxn(const FeatureCache& cache) : initial_(cache.clock_init_) {}
    ClockTxn(ClockTxn&&) = default;
    ClockTxn& operator=(ClockTxn&&) = default;

    /// Whether batch `batch` already committed its state.
    bool committed(std::int64_t batch) const;

   private:
    friend class FeatureCache;
    /// State after the last committed batch with id < `batch` (the initial
    /// state when none). Snapshots keep a depth-3 history; a batch and its
    /// recovery replays run before the next batch, so only the newest
    /// snapshot below `batch` is ever the basis.
    const serve::ClockCache& basis(std::int64_t batch) const;
    void commit(std::int64_t batch, serve::ClockCache&& state);

    serve::ClockCache initial_;
    struct Snap {
      std::int64_t id = -1;
      serve::ClockCache state;
    };
    std::vector<Snap> snaps_;  // ascending id, at most 3 kept
  };

  /// CLOCK coordinates of one gather (ignored by the static policies). A
  /// null txn simulates from the initial state and discards — the
  /// stateless unit-test mode. With a txn, the gather replays from
  /// basis(batch); it commits the resulting state only when `commit` is
  /// set and the batch has not committed yet (the batch's first
  /// full-fidelity, full-membership attempt).
  struct ClockGatherCtx {
    ClockTxn* txn = nullptr;
    std::int64_t batch = 0;
    bool commit = false;
  };

  /// Models gathering the feature rows of `vertices` (global ids) into a
  /// contiguous device buffer: hits stream from DRAM, misses cross PCIe,
  /// CLOCK installs write back at DRAM bandwidth. Charges `cycles` (tag
  /// "feature_gather") and `bytes` (tags "feature_cache_hit" /
  /// "feature_cache_miss" / "feature_cache_insert"); either ledger may be
  /// null. An *empty* vertex span is a no-op: no launch, zero cycles, zero
  /// bytes, no fault probe.
  ///
  /// `probes` identify the units of work this gather serves; if any probe is
  /// scheduled to fault (set_fetch_faults), the gather throws
  /// TransientFetchError before charging anything. `bypass_cache` models a
  /// post-eviction gather (the ladder's safe mode): every row crosses PCIe
  /// under every policy, and CLOCK state neither moves nor commits.
  GatherStats gather(std::span<const vid_t> vertices, CycleLedger* cycles,
                     MemoryLedger* bytes,
                     std::span<const GatherProbe> probes = {},
                     bool bypass_cache = false,
                     const ClockGatherCtx& clock = ClockGatherCtx{
                         nullptr, 0, false}) const;

 private:
  gpusim::DeviceSpec dev_;  // by value: binding a caller temporary is legal
  int feat_len_;
  std::size_t elem_bytes_;
  double alpha_;
  serve::CachePolicy policy_ = serve::CachePolicy::kDegree;
  vid_t num_cached_ = 0;
  std::vector<char> cached_;  // per-vertex flag (static / initial set)
  serve::ClockCache clock_init_;  // kClock: the seeded initial state
  double fetch_rate_ = 0.0;   // transient-fetch fault schedule (chaos)
  std::uint64_t fetch_seed_ = 0;
};

}  // namespace gnnone
