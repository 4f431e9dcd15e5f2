// Request-batching GNN inference server.
//
// The serving regime the FGNN/SamGraph line of work targets: requests name
// seed vertices, the server groups them into minibatches, samples each
// request's k-hop neighborhood, gathers input features through the static
// degree-ordered cache, and runs one forward pass per minibatch over the
// batched blocks through the existing GCN/GAT/GIN layers. Every stage
// charges modeled cycles to one CycleLedger ("sample", "feature_gather",
// then the usual kernel tags), so a serving run decomposes the same way a
// training run does and the bench layer can sweep the cache fraction alpha.
//
// Batch-composition invariance: every request is sampled independently with
// streams derived from (trace seed, hop, vertex) — never from the batch
// index — and the minibatch runs the forward over the *block-diagonal*
// composition of the per-request blocks (DGL's graph batching). GCN/GAT
// compute is row- and component-local, so a request's predictions are a
// pure function of (dataset, options, its own seed set): they do not change
// with batch_size, with the other requests in the batch, or between serial
// and pipelined mode. (GIN is the exception: its BatchNorm-style vcolnorm
// standardizes across every row of the minibatch block, so GIN predictions
// are inherently batch-coupled — same as real batch-norm inference without
// frozen running statistics.)
//
// Determinism: model weights are glorot-rebuilt from fixed seeds per batch
// (the checkpoint stand-in — equal configs give equal weights), and the
// forward runs with training = false, so equal (dataset, requests, options)
// produce byte-identical reports.
//
// One executor serves every configuration (docs/SERVING.md §4): it admits
// each request once, routes it to a device (the owner of its first seed when
// sharded, else device 0), cuts each device's batches — fixed batch_size
// chunks in trace order, or with a tenant table that device's
// TenantScheduler on its own decision clock — runs each batch through the
// degradation ladder below, and places the measured stage spans on one
// StreamTimeline per device (serve/pipeline.h's place_batches), serial or
// pipelined. Tenants, pipelining, sharding and an external device_memory
// therefore compose; only partition_cache with shard is rejected.
//
// Pipelined mode (opts.pipeline) changes placement only: sample and gather
// of batch b+1 overlap with the forward of batch b on each device's three
// streams, total_cycles is the slowest device's makespan, each stage's
// cycles split into exposed vs overlapped, and a batch's latency is its
// critical path through the schedule. Predictions and the cycle ledger are
// bit-identical to serial mode. Under a tenant scheduler pipelining changes
// no modeled number today: each batch's release is its serial
// decision-clock start, so no two batches ever overlap.
//
// Fault tolerance (docs/ROBUSTNESS.md): every request carries a
// serve::Status outcome in the report instead of a fault aborting the run.
// When a stage throws — a DeviceMemory OOM, a transient PCIe-fetch fault
// from the feature cache, or a simsan kernel fault — the server contains it
// to the faulted minibatch and walks the degradation ladder: whole-batch
// retries with exponential backoff (charged to the ledger/timeline as
// "backoff"), bisection down to single requests, truncated fanouts, and
// finally safe mode (feature-cache bypass + the safe default backend).
// Only requests whose injected fault is incurable report an error; every
// other request is served, and any request served without a degraded mode
// keeps predictions bit-identical to the fault-free run.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "gen/datasets.h"
#include "gen/requests.h"
#include "gnn/train.h"
#include "gpusim/memory.h"
#include "sample/sampler.h"
#include "serve/chaos.h"
#include "serve/feature_cache.h"
#include "serve/pipeline.h"
#include "serve/scheduler.h"
#include "serve/shard.h"
#include "serve/status.h"

namespace gnnone {

struct ServeOptions {
  std::string model_kind = "gcn";  // "gcn", "gin" or "gat"
  int batch_size = 8;              // requests per minibatch
  std::vector<int> fanouts = {10, 5};
  /// Fraction of vertices (by degree) whose features are pinned on device.
  double cache_alpha = 0.1;
  /// Which vertices the cache budget goes to (serve/cache_policy.h):
  /// kDegree (the original static order, bit-identical), kPresampleFrequency
  /// (warmup-sampled access frequency), kClock (dynamic second-chance), or
  /// kAuto (dispatch the bake-off winner recorded in `tuning_cache` for this
  /// (graph signature, workload, device); degree when nothing matches).
  serve::CachePolicy cache_policy = serve::CachePolicy::kDegree;
  /// kPresampleFrequency: warmup epochs of the sampler over the probe
  /// trace. 0 collapses to the degree order exactly (all counts tie at 0).
  int presample_epochs = 3;
  /// kPresampleFrequency: the probe trace the warmup epochs sample. Empty =
  /// a default uniform probe derived from `seed`
  /// (serve::default_presample_probe).
  std::vector<SeedRequest> presample_probe;
  /// Scheduled serving only (and not with shard): give each tenant its own
  /// cache partition sized by TenantSpec::cache_share (largest-remainder
  /// split of the alpha capacity; all-zero shares split equally) instead of
  /// one shared cache.
  /// Partition capacities sum exactly to the shared capacity, so the device
  /// byte budget is unchanged.
  bool partition_cache = false;
  /// Overrides the dataset's input feature length (0 = use Table 1's F).
  int feature_dim_override = 0;
  Backend backend = Backend::kAuto;
  std::uint64_t seed = 1;
  /// Backend::kAuto: pretuned cache the dispatcher consults (caller keeps
  /// ownership; may be null) and whether to tune cache misses on the spot.
  const tune::TuningCache* tuning_cache = nullptr;
  bool online_tune = false;
  /// Software-pipelined placement: overlap sample+gather of batch b+1 with
  /// forward of batch b on each device (serve/pipeline.h). Off = every
  /// device runs one stage at a time. Predictions are bit-identical either
  /// way; under a tenant scheduler no modeled number changes (header
  /// comment).
  bool pipeline = false;
  /// External device-memory tracker: the pinned cache and every per-batch
  /// staging allocation are charged against it, so injected faults
  /// (fail_at_allocation / fail_above) drive the serving OOM paths
  /// deterministically and tests can assert nothing leaks across a serve.
  /// Sharded serving charges it as device 0's tracker. Null = a private
  /// tracker sized to the device.
  gpusim::DeviceMemory* device_memory = nullptr;
  /// Degradation-ladder retry/backoff policy.
  serve::RetryPolicy retry;
  /// Deterministic fault-injection schedule (rates 0 = no injection).
  serve::ChaosOptions chaos;
  /// Multi-tenant SLO-aware serving (docs/SERVING.md §8). Non-empty turns
  /// the server into an open-loop scheduled tier: each request's
  /// SeedRequest::tenant indexes this table, batches are formed per tenant
  /// by `scheduler.policy` from the requests' arrival cycles, each batch
  /// runs its tenant's model_kind/fanouts (batch_size stays the global max),
  /// and the report gains per-tenant TenantReports. Sharded, each device
  /// schedules the requests routed to it. Empty (the default) cuts fixed
  /// batch_size chunks in trace order, ignoring SeedRequest::tenant and
  /// arrival_cycle.
  std::vector<serve::TenantSpec> tenants;
  /// Batch-formation policy for the multi-tenant path (ignored otherwise).
  serve::SchedulerOptions scheduler;
  /// Sharded multi-device serving (docs/SERVING.md §10): shard.num_devices
  /// > 0 partitions graph + feature table across N simulated devices
  /// (serve/shard.h) and routes each request to the device owning its first
  /// seed. Composes with tenants and pipeline; predictions stay
  /// bit-identical to unsharded serving at every shard count and role
  /// assignment (GIN excepted — its vcolnorm is batch-coupled, and sharding
  /// regroups batches).
  serve::ShardOptions shard;

  /// Throws std::invalid_argument on out-of-range options (unknown
  /// model_kind, batch_size < 1, empty or non-positive fanouts, cache_alpha
  /// outside [0, 1], negative feature_dim_override, chaos rates outside
  /// [0, 1], negative retry budget, a tenant with an unknown model_kind /
  /// empty or non-positive fanouts / slo_cycles < 1 / negative cache_share,
  /// negative presample_epochs, partition_cache without tenants or with
  /// shard, scheduler or shard options out of range). The standalone
  /// sampler treats a fanout <= 0 as "take every neighbor"; serving rejects
  /// it — an unbounded neighborhood has no place in a latency-bounded tier.
  void Validate() const;
};

/// One stage's cycles split by the timeline attribution: `exposed` cycles
/// extend the makespan, `overlapped` cycles hide behind a concurrent stage
/// on a higher-priority stream. exposed + overlapped == cycles; in serial
/// mode everything is exposed.
struct StageSplit {
  std::uint64_t cycles = 0;
  std::uint64_t exposed = 0;
  std::uint64_t overlapped = 0;
};

/// Per-minibatch accounting. Under recovery a batch's counters accumulate
/// over every attempt charged on its behalf (retries, bisected sub-groups,
/// degraded re-runs): stage cycles via ledger deltas, gather traffic per
/// successful gather, shapes per successfully sampled group — so
/// hits + misses == num_unique_vertices and the ledger equalities stay
/// exact whether or not the batch faulted.
struct BatchStats {
  int num_requests = 0;
  vid_t num_seeds = 0;     // seed rows in the block (summed over requests)
  vid_t num_vertices = 0;  // block rows (per-request blocks, concatenated)
  /// Distinct global vertices the batch gathers (feature traffic is
  /// deduplicated across the batch's blocks; see serve's gather stage).
  vid_t num_unique_vertices = 0;
  eid_t num_edges = 0;     // block nnz (with self-loops)
  GatherStats gather;
  std::uint64_t sample_cycles = 0;
  std::uint64_t forward_cycles = 0;
  /// Modeled recovery waits (exponential backoff between ladder attempts),
  /// charged to the ledger under "backoff" and placed on the batch's host
  /// stream in the timeline. 0 on a fault-free batch.
  std::uint64_t backoff_cycles = 0;
  /// Sharded serving: NVLink cycles moving the sampled topology + staged
  /// features from the sampler device to the forward device (rides the
  /// batch's gather span; 0 when both stages share a device).
  std::uint64_t handoff_cycles = 0;
  std::size_t handoff_bytes = 0;
  /// Sharded serving: the devices this batch ran on (-1 unsharded).
  int sampler_device = -1;
  int forward_device = -1;
  /// Sharded serving: extra cycles the colocation dilation added to this
  /// batch's sample and forward stages (already included in sample_cycles /
  /// forward_cycles; 0 off the sharded path and on dedicated devices).
  std::uint64_t colocation_sample_cycles = 0;
  std::uint64_t colocation_forward_cycles = 0;
  /// Faults that fired while serving this batch (initial run + recovery).
  int fault_events = 0;
  std::uint64_t cycles = 0;  // all stages + backoff (the batch's work)
  /// Critical path through the timeline: forward end minus sample start.
  /// Serial mode: equals `cycles`. Pipelined: can exceed `cycles` when the
  /// batch waits on a stream held by its neighbors.
  std::uint64_t latency_cycles = 0;
  /// Tenant the batch belongs to (scheduled serving; 0 without a tenant
  /// table — a batch never mixes tenants).
  int tenant = 0;
  /// Earliest cycle the batch could start (the scheduler's cut cycle; 0
  /// without a tenant table).
  std::uint64_t release_cycle = 0;
};

struct ServingReport {
  int num_requests = 0;
  int num_batches = 0;
  bool pipelined = false;
  std::uint64_t sample_cycles = 0;
  std::uint64_t gather_cycles = 0;
  std::uint64_t forward_cycles = 0;
  /// Timeline makespan. Serial mode: equals serial_cycles (the stage sum).
  /// Pipelined: at most serial_cycles, smaller whenever overlap hides work.
  std::uint64_t total_cycles = 0;
  /// Sum of every stage's cycles (== ledger.total()): what a serial run
  /// would quote as total_cycles.
  std::uint64_t serial_cycles = 0;
  /// Exposed/overlapped split per stage; exposed sums to total_cycles.
  StageSplit sample_split, gather_split, forward_split;
  /// Slowest minibatch by latency — the tail a batching server quotes.
  std::uint64_t max_batch_cycles = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  /// CLOCK policy: rows displaced by installs across all batches (0 under
  /// the static policies).
  std::uint64_t cache_evictions = 0;
  std::size_t cache_hit_bytes = 0;
  std::size_t cache_miss_bytes = 0;
  /// CLOCK policy: bytes written installing fetched rows into their slots.
  std::size_t cache_insert_bytes = 0;
  /// Fraction of gathered vertices served from the device cache.
  double cache_hit_rate() const {
    const double total = double(cache_hits + cache_misses);
    return total > 0.0 ? double(cache_hits) / total : 0.0;
  }

  /// Total modeled backoff waits and fault events across all batches.
  std::uint64_t backoff_cycles = 0;
  int fault_events = 0;

  /// Timeline cycles during which every stream idles (an open-loop server
  /// waiting for arrivals). The exposed-tiling invariant with releases is
  /// Sigma exposed + idle_cycles == total_cycles; 0 on every closed-loop
  /// schedule.
  std::uint64_t idle_cycles = 0;
  /// Per-tenant latency/SLO aggregates (multi-tenant scheduled serving;
  /// empty without a tenant table). Latencies come from the placed
  /// timeline, which on one device equals the scheduler's decision clock —
  /// the serial execution order batches were committed in — in serial and
  /// pipelined mode alike.
  std::vector<serve::TenantReport> tenants;
  /// Scheduled serving: the largest arrived-but-unserved backlog any tenant
  /// queue (on any device) reached — what SchedulerOptions::max_queue_depth
  /// bounds.
  std::size_t peak_queue_depth = 0;

  /// Sharded serving (docs/SERVING.md §10; empty unsharded): per-device
  /// stage/traffic/memory accounting. total_cycles is the
  /// slowest device's makespan; Σ exposed + idle == makespan holds exactly
  /// per device.
  std::vector<serve::DeviceShardReport> devices;
  /// Sharded serving: cross-device gather traffic totals — peer-pinned rows
  /// over NVLink (remote hits), peer-owned unpinned rows over host PCIe
  /// (remote misses). The byte-conservation invariant is hit + miss +
  /// remote_hit + remote_miss bytes == Σ unique gathered vertices × row
  /// bytes. For the static policies hit + remote_hit == the unsharded run's
  /// hits whenever batch composition matches (e.g. batch_size 1 — routing
  /// regroups larger batches, which shifts per-batch vertex dedup).
  std::uint64_t remote_hits = 0;
  std::uint64_t remote_misses = 0;
  std::size_t remote_hit_bytes = 0;
  std::size_t remote_miss_bytes = 0;
  /// Sharded serving: sampler->forward NVLink handoff traffic.
  std::size_t handoff_bytes = 0;

  std::vector<BatchStats> batches;
  /// The full schedule: the per-device timelines concatenated in device
  /// order, each in commit order (serve/pipeline.h's place_batches). One
  /// device is batch-major: span 3 * b + stream. A batch's sample span
  /// carries its backoff cycles too (host-side waiting), its gather span the
  /// outbound handoff, which keeps Sigma exposed + idle == makespan exact
  /// under recovery.
  std::vector<StageSpan> timeline;
  CycleLedger ledger;  // cycles by stage/kernel tag (+ "backoff")
  MemoryLedger bytes;  // gather traffic by hit/miss tag
  /// predictions[r][s] = argmax class of request r's seed s. Empty for a
  /// request whose outcome is not served (rejected or failed).
  std::vector<std::vector<int>> predictions;
  /// Per-request status + degradation trace, trace order (serve/chaos.h).
  std::vector<serve::RequestOutcome> outcomes;

  /// Requests that produced predictions (status kOk or kDegraded).
  int served_requests() const {
    int n = 0;
    for (const auto& o : outcomes) n += serve::is_served(o.status) ? 1 : 0;
    return n;
  }
  /// Requests refused at the server boundary (invalid input).
  int rejected_requests() const {
    int n = 0;
    for (const auto& o : outcomes) {
      n += o.status == serve::Status::kRejected ? 1 : 0;
    }
    return n;
  }
  /// Admitted requests the ladder could not cure.
  int failed_requests() const {
    return num_requests - rejected_requests() - served_requests();
  }
  int degraded_requests() const {
    int n = 0;
    for (const auto& o : outcomes) {
      n += o.status == serve::Status::kDegraded ? 1 : 0;
    }
    return n;
  }
  /// Served fraction of the admitted (non-rejected) requests — the
  /// availability the chaos harness holds to a floor.
  double availability() const {
    const int eligible = num_requests - rejected_requests();
    return eligible > 0 ? double(served_requests()) / double(eligible) : 1.0;
  }
};

class InferenceServer {
 public:
  /// The dataset must outlive the server; the device spec is copied (it is
  /// a small flat struct, and callers routinely pass temporaries). Throws
  /// std::invalid_argument when opts.Validate() rejects the options.
  InferenceServer(const Dataset& ds, const gpusim::DeviceSpec& dev,
                  const ServeOptions& opts);

  /// The shared cache (empty when partitioned or sharded: the partitions
  /// own the rows).
  const FeatureCache& cache() const { return caches_.front(); }
  /// The concrete policy serving runs under — ServeOptions::cache_policy
  /// with kAuto resolved against the tuning cache at construction.
  serve::CachePolicy cache_policy() const { return policy_; }
  /// Whether scheduled serving gathers through per-tenant partitions.
  bool partitioned() const { return opts_.partition_cache; }
  /// Tenant t's cache partition (partitioned() must hold).
  const FeatureCache& tenant_cache(int t) const {
    return caches_[1 + std::size_t(t)];
  }
  /// Device bytes across every cache and partition on every device — what
  /// sits in use between serves.
  std::size_t cache_device_bytes() const {
    std::size_t total = 0;
    for (const FeatureCache& c : caches_) total += c.device_bytes();
    return total;
  }
  /// The tracker serving allocations are charged to (the external one when
  /// ServeOptions::device_memory was set, else the private one; device 0's
  /// when sharded). Between serves exactly the pinned cache bytes are in
  /// use — the chaos harness's leak check.
  gpusim::DeviceMemory& device_memory() const { return *mems_.front(); }

  /// Whether ServeOptions::shard split this server across devices.
  bool sharded() const { return opts_.shard.enabled(); }
  int shard_devices() const { return sharded() ? int(mems_.size()) : 0; }
  /// The edge-cut vertex partition (sharded() must hold).
  const serve::ShardMap& shard_map() const { return shard_map_; }
  /// Device d's cache partition: the globally pinned rows it owns (empty on
  /// a forward-only device).
  const FeatureCache& shard_cache(int d) const {
    return caches_[1 + std::size_t(d)];
  }
  /// Device d's memory tracker. Between serves exactly the device's pinned
  /// cache bytes are in use — the per-device leak check.
  gpusim::DeviceMemory& shard_memory(int d) const {
    return *mems_[std::size_t(d)];
  }

  /// Runs every request through the one executor (header comment). Invalid
  /// requests (empty seed set, out-of-range or duplicated seed ids, a
  /// tenant index outside a non-empty tenant table) are rejected
  /// per-request at the boundary; a stage fault is contained to its
  /// minibatch and recovered through the degradation ladder. Never throws
  /// for a fault on the serving path; deterministic for equal inputs, and
  /// per-request predictions are invariant to batching. Every outcome
  /// carries queue/service cycles from the placed timeline: queue from the
  /// request's arrival_cycle to its batch's sample start, service from
  /// there to its forward's end. Resets each device tracker's peak, so
  /// DeviceShardReport::peak_bytes is this serve's own high-water mark.
  ServingReport serve(std::span<const SeedRequest> requests) const;

 private:
  /// Fidelity a group runs at: rungs of the ladder are cumulative, so safe
  /// mode keeps the truncated fanouts it escalated through.
  struct GroupMode {
    bool truncated = false;  // fanouts halved (floor 1)
    bool safe = false;       // feature-cache bypass + safe default backend
  };
  /// A caught stage fault, classified for the ladder.
  struct StageFault {
    serve::Status status = serve::Status::kOk;
    serve::ChaosSite site = serve::ChaosSite::kSample;
    std::string message;
  };
  struct ServeState;     // per-serve scratch (server.cc)
  struct PreparedGroup;  // sampled + gathered, awaiting its forward pass

  PreparedGroup prepare_group(ServeState& st,
                              const std::vector<std::size_t>& indices,
                              GroupMode mode, std::size_t b,
                              serve::ChaosSite* stage) const;
  void forward_group(ServeState& st, const PreparedGroup& pg) const;
  /// One full attempt at serving `indices` as one group; commits outcomes
  /// and predictions on success. On a contained fault, fills *fault,
  /// counts the event against batch b, and returns false.
  bool try_group(ServeState& st, const std::vector<std::size_t>& indices,
                 GroupMode mode, std::size_t b, StageFault* fault) const;
  /// Walks the ladder for a faulted batch: whole-batch retries w/ backoff,
  /// bisection to singletons, then the per-request degraded rungs.
  void recover_batch(ServeState& st, std::size_t b,
                     const std::vector<std::size_t>& members,
                     StageFault fault) const;
  void bisect(ServeState& st, std::size_t b,
              const std::vector<std::size_t>& group, StageFault fault) const;
  void singleton_ladder(ServeState& st, std::size_t b, std::size_t idx,
                        StageFault fault, int attempt_base) const;
  bool arms_oom(const std::vector<std::size_t>& indices, GroupMode mode,
                serve::ChaosSite site) const;
  /// The gather stage: fault probes fire first, then the batch's unique
  /// vertices go through the active cache. Sharded, they split by owner:
  /// local rows through the sampler device's partition, peer-pinned rows
  /// over NVLink and peer-unpinned rows over PCIe.
  GatherStats gather(ServeState& st, std::span<const vid_t> unique_vertices,
                     std::span<const GatherProbe> probes, GroupMode mode,
                     std::size_t b) const;
  /// Colocation-dilation surcharge for stage cycles on `device`: 0 unless
  /// sharded and the device is kSymmetric.
  std::uint64_t colocation_extra(int device, std::uint64_t cycles) const;
  /// Folds the placed per-device timelines into the report: totals from
  /// BatchStats, per-device reports (sharded), batch latencies, and each
  /// member's queue/service cycles (members[b] = batch b's trace indices).
  void fold(ServingReport& rep, const std::vector<StreamTimeline>& tls,
            const std::vector<std::vector<std::size_t>>& members,
            std::span<const SeedRequest> requests) const;

  /// kAuto resolution at construction: consult the tuning cache's serve
  /// table (exact signature, then nearest) for this workload; degree when
  /// nothing matches or no cache was supplied.
  static serve::CachePolicy resolve_policy(const Dataset& ds,
                                           const gpusim::DeviceSpec& dev,
                                           const ServeOptions& opts,
                                           int in_dim);
  /// The ranking a cache pins from: the presample frequency order of
  /// `probe` under `fanouts` for kPresampleFrequency, the degree order
  /// otherwise.
  std::vector<vid_t> pin_order(std::span<const SeedRequest> probe,
                               const std::vector<int>& fanouts) const;
  /// Appends a cache pinning the first `capacity` rows of `order` (the
  /// degree order when empty) and registers its bytes on `device`'s
  /// tracker.
  void add_cache(int device, vid_t capacity, std::span<const vid_t> order);

  const Dataset* ds_;
  gpusim::DeviceSpec dev_;  // by value: binding a caller temporary is legal
  ServeOptions opts_;
  int in_dim_;
  Csr csr_;                     // sampling topology
  serve::CachePolicy policy_;   // concrete (kAuto resolved)
  std::vector<float> features_;  // full n x in_dim host-side feature table
  /// Per-device memory trackers (one device unsharded); device 0's is the
  /// external ServeOptions::device_memory when set.
  std::vector<std::unique_ptr<gpusim::DeviceMemory>> owned_mems_;
  std::vector<gpusim::DeviceMemory*> mems_;
  /// Vertex -> owner device over contiguous degree-order ranges (sharded).
  serve::ShardMap shard_map_;
  /// Every cache the server pins: [0] the shared cache, then one partition
  /// per tenant (partition_cache) or per device (sharded). Device d's
  /// partition pins exactly the globally pinned rows it owns (so per-vertex
  /// hit/miss membership is identical to the unsharded cache); forward-only
  /// devices pin nothing.
  std::vector<FeatureCache> caches_;
  /// The caches' resident registrations on their devices' trackers.
  std::vector<gpusim::DeviceAllocation> cache_allocs_;
};

}  // namespace gnnone
