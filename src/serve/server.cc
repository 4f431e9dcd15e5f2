#include "serve/server.h"

#include <algorithm>
#include <cmath>
#include <optional>
#include <stdexcept>
#include <unordered_map>
#include <utility>

#include "gpusim/sanitizer.h"
#include "graph/convert.h"

namespace gnnone {

namespace {

/// Exponential backoff before recovery attempt `attempt` (1-based), shift
/// capped so a long ladder cannot overflow.
std::uint64_t backoff_for(const serve::RetryPolicy& p, int attempt) {
  const int shift = std::min(std::max(attempt - 1, 0), 10);
  return p.backoff_cycles << shift;
}

std::vector<int> truncated_fanouts(const std::vector<int>& fanouts) {
  std::vector<int> out = fanouts;
  for (int& f : out) f = std::max(1, f / 2);
  return out;
}

const ServeOptions& validated(const ServeOptions& opts) {
  opts.Validate();
  return opts;
}

/// Throws std::invalid_argument unless `kind` names a served model and its
/// fanouts are non-empty and positive; `who` prefixes the message.
void validate_model(const std::string& who, const std::string& kind,
                    const std::vector<int>& fanouts) {
  if (kind != "gcn" && kind != "gin" && kind != "gat") {
    throw std::invalid_argument(who + ": unknown model_kind '" + kind +
                                "' (want gcn, gin or gat)");
  }
  if (fanouts.empty()) {
    throw std::invalid_argument(who + ": fanouts must not be empty");
  }
  for (int f : fanouts) {
    if (f <= 0) {
      throw std::invalid_argument(
          who + ": fanouts must be positive for serving, got " +
          std::to_string(f));
    }
  }
}

/// Boundary validation of one request. Empty = admissible. The sampler
/// would throw std::invalid_argument on an out-of-range seed — the server
/// turns that into a per-request rejection instead of aborting the run —
/// and duplicate seeds violate the trace contract (gen/requests.h: unique
/// within one request).
std::string validate_request(const SeedRequest& r, vid_t num_vertices) {
  if (r.seeds.empty()) return "empty seed set";
  for (std::size_t i = 0; i < r.seeds.size(); ++i) {
    const vid_t s = r.seeds[i];
    if (s < 0 || s >= num_vertices) {
      return "seed " + std::to_string(s) + " out of range [0, " +
             std::to_string(num_vertices) + ")";
    }
    for (std::size_t j = 0; j < i; ++j) {
      if (r.seeds[j] == s) {
        return "duplicate seed " + std::to_string(s) + " within request";
      }
    }
  }
  return {};
}

void record_step(ServingReport& rep, const std::vector<std::size_t>& members,
                 const serve::DegradationStep& step) {
  for (std::size_t idx : members) rep.outcomes[idx].trace.push_back(step);
}

void charge_backoff(ServingReport& rep, std::size_t b, std::uint64_t wait) {
  rep.ledger.add("backoff", wait);
  rep.batches[b].backoff_cycles += wait;
}

}  // namespace

/// Per-serve mutable state threaded through every attempt.
struct InferenceServer::ServeState {
  std::span<const SeedRequest> requests;
  ServingReport* rep = nullptr;
  /// The active batch's tenant (an implicit one built from the options
  /// without a tenant table) and model config — a batch and its whole
  /// recovery ladder never mix tenants — and the caches_ slot it gathers
  /// through.
  const serve::TenantSpec* tenant = nullptr;
  const ModelConfig* cfg = nullptr;
  std::size_t cache = 0;
  /// Devices the active batch's sample+gather and forward stages run on.
  int device = 0;
  int fwd_device = 0;
  OpContext ctx;
  SamplerScratch scratch;
  /// Gather attempts per trace index — the `attempt` coordinate of the
  /// transient-fetch fault schedule. Counted per gather entry per request,
  /// success or not, so a transient clears after its scheduled number of
  /// failures no matter how the request is (re)grouped.
  std::vector<int> gather_attempts;
  /// Per-cache CLOCK transactions (kClock only), index-aligned with caches_
  /// and opened on a cache's first gather. A fresh serve starts from each
  /// cache's seeded initial state — serves are independent.
  std::vector<std::optional<FeatureCache::ClockTxn>> clock_txns;
};

struct InferenceServer::PreparedGroup {
  std::vector<std::size_t> indices;  // trace indices of the member requests
  std::size_t batch = 0;             // owning minibatch (stats slot)
  GroupMode mode;
  /// Per block row: the global vertex whose features the row carries.
  std::vector<vid_t> block_vertices;
  /// Per member: block row of each of its seeds, request-seed order.
  std::vector<std::vector<vid_t>> seed_rows;
  Coo coo;  // block-diagonal composition of the per-request blocks
  /// Device registrations of the sampled topology and the gathered feature
  /// rows; released (RAII) when the group retires or its attempt unwinds.
  gpusim::DeviceAllocation topo;
  gpusim::DeviceAllocation staging;
};

void ServeOptions::Validate() const {
  validate_model("ServeOptions", model_kind, fanouts);
  if (batch_size < 1) {
    throw std::invalid_argument("ServeOptions: batch_size must be >= 1, got " +
                                std::to_string(batch_size));
  }
  if (!(cache_alpha >= 0.0 && cache_alpha <= 1.0)) {
    throw std::invalid_argument(
        "ServeOptions: cache_alpha must be in [0, 1], got " +
        std::to_string(cache_alpha));
  }
  if (feature_dim_override < 0) {
    throw std::invalid_argument(
        "ServeOptions: feature_dim_override must be >= 0, got " +
        std::to_string(feature_dim_override));
  }
  for (double rate : {chaos.oom_rate, chaos.fetch_rate, chaos.kernel_rate}) {
    if (!(rate >= 0.0 && rate <= 1.0)) {
      throw std::invalid_argument(
          "ServeOptions: chaos rates must be in [0, 1], got " +
          std::to_string(rate));
    }
  }
  if (retry.max_retries < 0) {
    throw std::invalid_argument(
        "ServeOptions: retry.max_retries must be >= 0, got " +
        std::to_string(retry.max_retries));
  }
  if (presample_epochs < 0) {
    throw std::invalid_argument(
        "ServeOptions: presample_epochs must be >= 0, got " +
        std::to_string(presample_epochs));
  }
  if (partition_cache && tenants.empty()) {
    throw std::invalid_argument(
        "ServeOptions: partition_cache requires a tenant table (the legacy "
        "single-tenant path has nothing to partition by)");
  }
  for (const serve::TenantSpec& t : tenants) {
    validate_model("ServeOptions: tenant '" + t.name + "'", t.model_kind,
                   t.fanouts);
    if (t.slo_cycles < 1) {
      throw std::invalid_argument("ServeOptions: tenant '" + t.name +
                                  "' slo_cycles must be >= 1");
    }
    if (!(t.cache_share >= 0.0)) {  // rejects negatives and NaN
      throw std::invalid_argument("ServeOptions: tenant '" + t.name +
                                  "' cache_share must be >= 0");
    }
  }
  scheduler.Validate();
  shard.Validate();
  if (partition_cache && shard.enabled()) {
    throw std::invalid_argument(
        "ServeOptions: partition_cache with shard is not supported (per-"
        "(device, tenant) partitions would be a new cache layout)");
  }
}

serve::CachePolicy InferenceServer::resolve_policy(const Dataset& ds,
                                                   const gpusim::DeviceSpec& dev,
                                                   const ServeOptions& opts,
                                                   int in_dim) {
  if (opts.cache_policy != serve::CachePolicy::kAuto) return opts.cache_policy;
  if (opts.tuning_cache == nullptr) return serve::CachePolicy::kDegree;
  tune::ServeKey key;
  key.signature = tune::signature_of(ds.coo);
  key.workload = serve::cache_workload_key(opts.cache_alpha, opts.fanouts,
                                           opts.batch_size, in_dim);
  key.device = tune::device_key(dev);
  const tune::ServeDecision* d = opts.tuning_cache->lookup_serve(key);
  if (d == nullptr) d = opts.tuning_cache->lookup_serve_nearest(key);
  serve::CachePolicy p = serve::CachePolicy::kDegree;
  if (d != nullptr && serve::cache_policy_from_name(d->cache_policy, &p) &&
      p != serve::CachePolicy::kAuto) {
    return p;
  }
  return serve::CachePolicy::kDegree;
}

std::vector<vid_t> InferenceServer::pin_order(
    std::span<const SeedRequest> probe,
    const std::vector<int>& fanouts) const {
  if (policy_ != serve::CachePolicy::kPresampleFrequency) {
    return serve::degree_order(ds_->coo);
  }
  const auto freq = serve::presample_frequencies(
      csr_, probe, fanouts, opts_.seed, opts_.presample_epochs);
  return serve::frequency_order(freq, row_lengths(ds_->coo));
}

void InferenceServer::add_cache(int device, vid_t capacity,
                                std::span<const vid_t> order) {
  CacheConfig cc;
  cc.policy = policy_;
  cc.capacity_override = capacity;
  caches_.emplace_back(ds_->coo, in_dim_, opts_.cache_alpha, dev_, cc, order);
  cache_allocs_.emplace_back(*mems_[std::size_t(device)],
                             caches_.back().device_bytes());
}

InferenceServer::InferenceServer(const Dataset& ds,
                                 const gpusim::DeviceSpec& dev,
                                 const ServeOptions& opts)
    : ds_(&ds),
      dev_(dev),
      opts_(validated(opts)),
      in_dim_(opts.feature_dim_override > 0 ? opts.feature_dim_override
                                            : ds.input_feat_len),
      csr_(coo_to_csr(ds.coo)),
      policy_(resolve_policy(ds, dev, opts_, in_dim_)),
      features_(make_features(ds.coo.num_rows, in_dim_,
                              ds.labeled ? ds.labels : std::vector<int>{},
                              opts.seed)) {
  const int nd = sharded() ? opts_.shard.num_devices : 1;
  for (int d = 0; d < nd; ++d) {
    if (d == 0 && opts_.device_memory != nullptr) {
      mems_.push_back(opts_.device_memory);
      continue;
    }
    owned_mems_.push_back(
        std::make_unique<gpusim::DeviceMemory>(dev.device_memory_bytes));
    mems_.push_back(owned_mems_.back().get());
  }

  // Every cache pins the head of its own ranking, all ranked from one
  // probe. The shared cache pins the alpha capacity, unless partitioned
  // serving splits that capacity across tenants or sharded serving across
  // the devices owning the pinned rows — then it stays allocated-but-empty
  // and the partitions own the device byte budget.
  std::vector<SeedRequest> own_probe;
  if (policy_ == serve::CachePolicy::kPresampleFrequency &&
      opts_.presample_probe.empty()) {
    own_probe = serve::default_presample_probe(ds.coo, opts_.seed);
  }
  const std::span<const SeedRequest> probe =
      opts_.presample_probe.empty()
          ? std::span<const SeedRequest>(own_probe)
          : std::span<const SeedRequest>(opts_.presample_probe);
  const vid_t cap =
      FeatureCache::capacity_for(ds.coo.num_rows, opts_.cache_alpha);
  if (opts_.partition_cache || sharded()) {
    add_cache(0, 0, {});
  } else {
    add_cache(0, cap, pin_order(probe, opts_.fanouts));
  }

  if (opts_.partition_cache) {
    // Per-tenant partitions: the capacity splits by TenantSpec shares
    // (largest remainder, sums exactly); each tenant ranks by its own share
    // of the probe, falling back to the full probe when it issued none.
    std::vector<double> shares;
    for (const serve::TenantSpec& t : opts_.tenants) {
      shares.push_back(t.cache_share);
    }
    const std::vector<vid_t> caps = serve::partition_capacities(cap, shares);
    for (std::size_t t = 0; t < opts_.tenants.size(); ++t) {
      std::vector<SeedRequest> sub;
      for (const SeedRequest& r : probe) {
        if (r.tenant == int(t)) sub.push_back(r);
      }
      const std::span<const SeedRequest> own =
          sub.empty() ? probe : std::span<const SeedRequest>(sub);
      add_cache(0, caps[t], pin_order(own, opts_.tenants[t].fanouts));
    }
  }

  if (sharded()) {
    // The vertex set splits over the sampler-capable devices by contiguous
    // ranges of the global pin order (serve/shard.h), and device d pins
    // exactly the globally pinned rows it owns — per-vertex membership is
    // identical to the unsharded cache, so a globally pinned row is a local
    // hit on its owner and a remote (NVLink) hit everywhere else.
    const std::vector<vid_t> order = pin_order(probe, opts_.fanouts);
    std::vector<int> owners;
    for (int d = 0; d < nd; ++d) {
      if (opts_.shard.samples(d)) owners.push_back(d);
    }
    shard_map_ = serve::ShardMap(order, owners);
    for (int d = 0; d < nd; ++d) {
      // Device d's ranking: its owned vertices first (global order
      // preserved, so the first `pinned` are exactly the owned ∩ globally
      // pinned rows), everyone else's after. Forward-only devices pin
      // nothing.
      std::vector<vid_t> dev_order;
      vid_t pinned = 0;
      if (opts_.shard.samples(d)) {
        dev_order.reserve(order.size());
        for (std::size_t i = 0; i < order.size(); ++i) {
          if (shard_map_.owner(order[i]) != d) continue;
          dev_order.push_back(order[i]);
          if (vid_t(i) < cap) ++pinned;
        }
        for (vid_t v : order) {
          if (shard_map_.owner(v) != d) dev_order.push_back(v);
        }
      }
      add_cache(d, pinned, dev_order);
    }
  }
}

bool InferenceServer::arms_oom(const std::vector<std::size_t>& indices,
                               GroupMode mode, serve::ChaosSite site) const {
  if (opts_.chaos.oom_rate <= 0.0 || opts_.chaos.oom_site != site) {
    return false;
  }
  for (std::size_t idx : indices) {
    const serve::OomFate f = serve::oom_fate(opts_.chaos, idx);
    if (!f.poisoned) continue;
    const bool cured = (f.cure_rung == 1 && indices.size() == 1) ||
                       (f.cure_rung <= 2 && mode.truncated);
    if (!cured) return true;
  }
  return false;
}

InferenceServer::PreparedGroup InferenceServer::prepare_group(
    ServeState& st, const std::vector<std::size_t>& indices, GroupMode mode,
    std::size_t b, serve::ChaosSite* stage) const {
  ServingReport& rep = *st.rep;
  BatchStats& bs = rep.batches[b];
  gpusim::DeviceMemory& mem = *mems_[std::size_t(st.device)];
  PreparedGroup pg;
  pg.indices = indices;
  pg.batch = b;
  pg.mode = mode;

  // Stage 1: sample every request's k-hop block independently. The stream
  // seed is the trace seed alone — per-(seed, hop, vertex) streams inside
  // the sampler — never the batch index, so a request's block is a pure
  // function of its own seed set and predictions cannot depend on which
  // group the request lands in.
  *stage = serve::ChaosSite::kSample;
  SampleOptions so;
  so.fanouts = mode.truncated ? truncated_fanouts(st.tenant->fanouts)
                              : st.tenant->fanouts;
  so.seed = opts_.seed;

  vid_t group_seeds = 0;
  std::size_t bytes_touched = 0;
  for (std::size_t idx : indices) {
    const SampledSubgraph sub =
        sample_khop(csr_, st.requests[idx].seeds, so, &st.scratch);
    const vid_t base = vid_t(pg.block_vertices.size());

    // Request seed j -> its block row. Boundary validation rejected
    // within-request duplicates, so sample_khop's first-appearance local
    // ids are exactly 0..num_seeds-1 in request-seed order.
    std::vector<vid_t> rows;
    rows.reserve(st.requests[idx].seeds.size());
    for (std::size_t j = 0; j < st.requests[idx].seeds.size(); ++j) {
      rows.push_back(base + vid_t(j));
    }
    pg.seed_rows.push_back(std::move(rows));
    group_seeds += sub.num_seeds();

    // Block-diagonal append: each per-request block is CSR-arranged over its
    // own local ids, and bases increase monotonically, so the concatenation
    // stays CSR-arranged and every component keeps its exact within-row NZE
    // order — the property that makes the batched forward bit-identical to
    // per-request forwards.
    pg.block_vertices.insert(pg.block_vertices.end(), sub.vertices.begin(),
                             sub.vertices.end());
    pg.coo.row.reserve(pg.coo.row.size() + sub.coo.row.size());
    pg.coo.col.reserve(pg.coo.col.size() + sub.coo.col.size());
    for (vid_t v : sub.coo.row) pg.coo.row.push_back(base + v);
    for (vid_t v : sub.coo.col) pg.coo.col.push_back(base + v);
    bytes_touched += sub.bytes_touched;
  }
  pg.coo.num_rows = pg.coo.num_cols = vid_t(pg.block_vertices.size());

  // The sampled topology lands on device: row + col indices plus the local
  // -> global map, 4 bytes each. Registering it may throw DeviceOutOfMemory
  // (real pressure or an injected fault armed just below); a faulted
  // attempt fires here, *before* the stage charges the ledger, so retries
  // never double-charge.
  if (arms_oom(indices, mode, serve::ChaosSite::kSample)) {
    mem.fail_at_allocation(1);
  }
  pg.topo = gpusim::DeviceAllocation(
      mem, (2 * std::size_t(pg.coo.nnz()) + pg.block_vertices.size()) * 4);

  // The sampler reports the adjacency bytes it scanned; charge them at DRAM
  // bandwidth as one launch per group.
  const std::uint64_t sample_cycles =
      2000 + std::uint64_t(std::ceil(double(bytes_touched) /
                                     dev_.dram_bytes_per_cycle));
  rep.ledger.add("sample", sample_cycles);
  bs.sample_cycles += sample_cycles;
  // A kSymmetric shard co-locates the sampling scan with forward kernels
  // and pays the contention dilation on both (shard.h).
  const std::uint64_t sample_dil = colocation_extra(st.device, sample_cycles);
  if (sample_dil > 0) {
    rep.ledger.add("colocation", sample_dil);
    bs.sample_cycles += sample_dil;
    bs.colocation_sample_cycles += sample_dil;
  }
  bs.num_seeds += group_seeds;
  bs.num_vertices += pg.coo.num_rows;
  bs.num_edges += pg.coo.nnz();

  // Stage 2: gather input features through the cache. Requests in a group
  // often sample the same hub vertices; the physical fetch happens once per
  // distinct vertex (an O(1)-lookup map built once per group), replicating
  // rows on device afterwards is free in this first-order model.
  *stage = serve::ChaosSite::kGather;
  std::unordered_map<vid_t, vid_t> gather_slot;
  gather_slot.reserve(pg.block_vertices.size());
  std::vector<vid_t> unique_vertices;
  unique_vertices.reserve(pg.block_vertices.size());
  for (vid_t g : pg.block_vertices) {
    if (gather_slot.try_emplace(g, vid_t(unique_vertices.size())).second) {
      unique_vertices.push_back(g);
    }
  }

  if (arms_oom(indices, mode, serve::ChaosSite::kGather)) {
    mem.fail_at_allocation(1);
  }
  pg.staging = gpusim::DeviceAllocation(
      mem, unique_vertices.size() * std::size_t(in_dim_) * 4);

  // Every member pays one gather attempt, success or not; the probes carry
  // the pre-attempt counts so the fault schedule sees a stable
  // (request, attempt) coordinate regardless of grouping.
  std::vector<GatherProbe> probes;
  probes.reserve(indices.size());
  for (std::size_t idx : indices) {
    probes.push_back({std::uint64_t(idx), st.gather_attempts[idx]++});
  }
  const GatherStats gst = gather(st, unique_vertices, probes, mode, b);
  bs.gather.hits += gst.hits;
  bs.gather.misses += gst.misses;
  bs.gather.evictions += gst.evictions;
  bs.gather.hit_bytes += gst.hit_bytes;
  bs.gather.miss_bytes += gst.miss_bytes;
  bs.gather.insert_bytes += gst.insert_bytes;
  bs.gather.remote_hits += gst.remote_hits;
  bs.gather.remote_misses += gst.remote_misses;
  bs.gather.remote_hit_bytes += gst.remote_hit_bytes;
  bs.gather.remote_miss_bytes += gst.remote_miss_bytes;
  bs.gather.cycles += gst.cycles;
  bs.num_unique_vertices += vid_t(unique_vertices.size());
  return pg;
}

GatherStats InferenceServer::gather(ServeState& st,
                                    std::span<const vid_t> unique_vertices,
                                    std::span<const GatherProbe> probes,
                                    GroupMode mode, std::size_t b) const {
  // FeatureCache::gather's boundary behaviour: an empty vertex span is a
  // no-op (no launch, no fault probe), and the fault check fires before any
  // cycle or byte is charged. The check lives here, not in the caches, so
  // a request's (key, attempt) coordinate is probed exactly once per gather
  // attempt no matter how its vertices split between local and remote
  // owners — chaos outcomes are shard-layout invariant.
  if (unique_vertices.empty()) return {};
  if (opts_.chaos.fetch_rate > 0.0) {
    for (const GatherProbe& p : probes) {
      const serve::FetchFate f = serve::fetch_fate(
          opts_.chaos.fetch_rate, opts_.chaos.seed, p.key);
      if (f.poisoned && p.attempt < f.failing_attempts) {
        throw TransientFetchError(p.key, p.attempt + 1);
      }
    }
  }

  ServingReport& rep = *st.rep;
  const FeatureCache& fc = caches_[st.cache];
  std::uint64_t remote_hits = 0, remote_misses = 0;
  std::vector<vid_t> local;
  if (sharded()) {
    local.reserve(unique_vertices.size());
    for (vid_t v : unique_vertices) {
      const int owner = shard_map_.owner(v);
      if (owner == st.device) {
        local.push_back(v);
        continue;
      }
      // Remote rows: the owner's pinned copy streams over NVLink; anything
      // the owner does not pin is refetched from the host over PCIe. Under
      // kClock the remote lookup consults the owner's *seeded* membership
      // (FeatureCache::cached) — a peer's in-flight CLOCK hand is not
      // observable across the link, so only the static resident set is.
      // Safe mode (cache bypass) refuses peers too: every row crosses PCIe.
      const bool hit = !mode.safe && shard_cache(owner).cached(v);
      ++(hit ? remote_hits : remote_misses);
    }
  }
  const std::span<const vid_t> rows =
      sharded() ? std::span<const vid_t>(local) : unique_vertices;

  // Local rows go through the active cache with the full policy machinery.
  // Under kClock the gather carries its batch's transaction coordinates;
  // only the batch's first full-fidelity, full-membership attempt commits
  // the advanced state (recovery replays — retries after a commit, bisected
  // halves, truncated or safe reruns — observe the same basis and discard),
  // which keeps the hit stream identical across placements and chaos.
  FeatureCache::ClockGatherCtx clock;
  if (policy_ == serve::CachePolicy::kClock) {
    std::optional<FeatureCache::ClockTxn>& txn = st.clock_txns[st.cache];
    if (!txn) txn.emplace(fc);
    clock.txn = &*txn;
    clock.batch = std::int64_t(b);
    clock.commit = !mode.truncated && !mode.safe &&
                   probes.size() == std::size_t(rep.batches[b].num_requests);
  }
  GatherStats gst;
  if (!rows.empty()) {
    gst = fc.gather(rows, &rep.ledger, &rep.bytes, {}, mode.safe, clock);
  }
  gst.remote_hits = remote_hits;
  gst.remote_misses = remote_misses;
  gst.remote_hit_bytes = remote_hits * fc.row_bytes();
  gst.remote_miss_bytes = remote_misses * fc.row_bytes();

  // Remote traffic and the launch make-up: the local gather charged its own
  // launch, or nothing at all when every row was remote — in which case the
  // one launch this gather still issues is charged here, so every non-empty
  // gather costs exactly one launch regardless of the local/remote split.
  const std::uint64_t remote_cycles =
      std::uint64_t(std::ceil(double(gst.remote_hit_bytes) /
                              dev_.nvlink_bytes_per_cycle)) +
      std::uint64_t(std::ceil(double(gst.remote_miss_bytes) /
                              dev_.pcie_bytes_per_cycle));
  const std::uint64_t extra = remote_cycles + (rows.empty() ? 2000 : 0);
  if (extra > 0) rep.ledger.add("feature_gather", extra);
  if (gst.remote_hit_bytes > 0) {
    rep.bytes.add("feature_remote_hit", gst.remote_hit_bytes);
  }
  if (gst.remote_miss_bytes > 0) {
    rep.bytes.add("feature_remote_miss", gst.remote_miss_bytes);
  }
  gst.cycles += extra;
  return gst;
}

std::uint64_t InferenceServer::colocation_extra(int device,
                                                std::uint64_t cycles) const {
  if (!sharded() || opts_.shard.role(device) != serve::ShardRole::kSymmetric) {
    return 0;
  }
  return std::uint64_t(
      std::llround((opts_.shard.colocation_dilation - 1.0) * double(cycles)));
}

void InferenceServer::forward_group(ServeState& st,
                                    const PreparedGroup& pg) const {
  ServingReport& rep = *st.rep;
  BatchStats& bs = rep.batches[pg.batch];
  const vid_t n = pg.coo.num_rows;

  // Activations: the staged input block plus the output logits, on the
  // forward device's tracker. May throw DeviceOutOfMemory (armed below for
  // an injected forward-site fault).
  gpusim::DeviceMemory& mem = *mems_[std::size_t(st.fwd_device)];
  if (arms_oom(pg.indices, pg.mode, serve::ChaosSite::kForward)) {
    mem.fail_at_allocation(1);
  }
  const gpusim::DeviceAllocation activations(
      mem, std::size_t(n) * std::size_t(in_dim_ + ds_->num_classes) * 4);

  // Injected kernel fault: fires at forward entry, before any kernel
  // charges, the way simsan's fatal mode aborts a launch. A curable fault
  // disappears under the safe default backend.
  if (opts_.chaos.kernel_rate > 0.0) {
    for (std::size_t idx : pg.indices) {
      const serve::KernelFate f = serve::kernel_fate(opts_.chaos, idx);
      if (f.poisoned && !(pg.mode.safe && f.safe_backend_cures)) {
        throw gpusim::SanitizerError("injected kernel fault: request " +
                                     std::to_string(idx));
      }
    }
  }

  const std::uint64_t fwd_before = rep.ledger.total();
  std::vector<float> x_data(std::size_t(n) * std::size_t(in_dim_));
  for (vid_t lv = 0; lv < n; ++lv) {
    const auto src = std::size_t(pg.block_vertices[std::size_t(lv)]) *
                     std::size_t(in_dim_);
    std::copy_n(features_.begin() + long(src), in_dim_,
                x_data.begin() + long(std::size_t(lv) * std::size_t(in_dim_)));
  }
  const VarPtr x = make_var(Tensor::from(n, in_dim_, std::move(x_data)));

  // Safe mode drops kAuto dispatch (and its tuning cache) for the
  // conservative default backend — the ladder's last rung.
  SparseEngine engine(pg.mode.safe ? Backend::kGnnOne : opts_.backend,
                      pg.coo, dev_);
  engine.set_tuning_cache(pg.mode.safe ? nullptr : opts_.tuning_cache);
  engine.set_online_tune(pg.mode.safe ? false : opts_.online_tune);
  const auto model = make_model(st.tenant->model_kind, engine, *st.cfg);
  const VarPtr logp = model->forward(st.ctx, engine, x, opts_.seed);

  for (std::size_t m = 0; m < pg.indices.size(); ++m) {
    const std::size_t r = pg.indices[m];
    auto& out = rep.predictions[r];
    out.clear();  // a retried request must not accumulate stale rows
    out.reserve(st.requests[r].seeds.size());
    for (const vid_t lv : pg.seed_rows[m]) {
      int best = 0;
      for (std::int64_t c = 1; c < logp->value.cols(); ++c) {
        if (logp->value.at(lv, c) > logp->value.at(lv, best)) best = int(c);
      }
      out.push_back(best);
    }
  }
  const std::uint64_t fwd_cycles = rep.ledger.total() - fwd_before;
  bs.forward_cycles += fwd_cycles;
  // The forward side of the colocation dilation (the sample side is
  // charged in prepare_group).
  const std::uint64_t fwd_dil = colocation_extra(st.fwd_device, fwd_cycles);
  if (fwd_dil > 0) {
    rep.ledger.add("colocation", fwd_dil);
    bs.forward_cycles += fwd_dil;
    bs.colocation_forward_cycles += fwd_dil;
  }
}

bool InferenceServer::try_group(ServeState& st,
                                const std::vector<std::size_t>& indices,
                                GroupMode mode, std::size_t b,
                                StageFault* fault) const {
  serve::ChaosSite stage = serve::ChaosSite::kSample;
  try {
    const PreparedGroup pg = prepare_group(st, indices, mode, b, &stage);
    stage = serve::ChaosSite::kForward;
    forward_group(st, pg);
    for (std::size_t idx : indices) {
      serve::RequestOutcome& o = st.rep->outcomes[idx];
      o.truncated_fanouts = mode.truncated;
      o.status = (mode.truncated || mode.safe) ? serve::Status::kDegraded
                                               : serve::Status::kOk;
      o.error.clear();
    }
    return true;
  } catch (const gpusim::DeviceOutOfMemory& e) {
    *fault = {serve::Status::kOom, stage, e.what()};
  } catch (const TransientFetchError& e) {
    *fault = {serve::Status::kTransientFetch, serve::ChaosSite::kGather,
              e.what()};
  } catch (const gpusim::SanitizerError& e) {
    *fault = {serve::Status::kKernelFault, serve::ChaosSite::kForward,
              e.what()};
  }
  st.rep->batches[b].fault_events += 1;
  return false;
}

void InferenceServer::recover_batch(ServeState& st, std::size_t b,
                                    const std::vector<std::size_t>& members,
                                    StageFault fault) const {
  ServingReport& rep = *st.rep;
  // Rung 0: whole-batch retries with exponential backoff — cures transient
  // fetches whose scheduled failures run out.
  for (int attempt = 1; attempt <= opts_.retry.max_retries; ++attempt) {
    const std::uint64_t wait = backoff_for(opts_.retry, attempt);
    charge_backoff(rep, b, wait);
    record_step(rep, members,
                {serve::ServeAction::kRetry, fault.status, fault.site,
                 attempt, wait});
    if (try_group(st, members, GroupMode{}, b, &fault)) return;
  }
  if (members.size() == 1) {
    singleton_ladder(st, b, members[0], fault, opts_.retry.max_retries);
    return;
  }
  bisect(st, b, members, fault);
}

void InferenceServer::bisect(ServeState& st, std::size_t b,
                             const std::vector<std::size_t>& group,
                             StageFault fault) const {
  // Shrink the batch: split in half and re-run each side immediately (no
  // backoff — the fault is isolated spatially, not waited out). A half with
  // no poisoned member completes here; a faulted half keeps halving until
  // the poison is alone.
  const std::size_t mid = group.size() / 2;
  const std::vector<std::size_t> halves[2] = {
      {group.begin(), group.begin() + long(mid)},
      {group.begin() + long(mid), group.end()}};
  for (const std::vector<std::size_t>& half : halves) {
    record_step(*st.rep, half,
                {serve::ServeAction::kIsolate, fault.status, fault.site, 0,
                 0});
    StageFault hf = fault;
    if (try_group(st, half, GroupMode{}, b, &hf)) continue;
    if (half.size() == 1) {
      singleton_ladder(st, b, half[0], hf, opts_.retry.max_retries);
    } else {
      bisect(st, b, half, hf);
    }
  }
}

void InferenceServer::singleton_ladder(ServeState& st, std::size_t b,
                                       std::size_t idx, StageFault fault,
                                       int attempt_base) const {
  ServingReport& rep = *st.rep;
  const std::vector<std::size_t> solo = {idx};

  // Rung: truncate fanouts — halved neighborhoods, smaller blocks.
  int attempt = attempt_base + 1;
  std::uint64_t wait = backoff_for(opts_.retry, attempt);
  charge_backoff(rep, b, wait);
  record_step(rep, solo,
              {serve::ServeAction::kTruncateFanouts, fault.status, fault.site,
               attempt, wait});
  if (try_group(st, solo, GroupMode{.truncated = true}, b, &fault)) return;

  // Rung: safe mode — cache bypass + the safe default backend (still
  // truncated; the ladder is cumulative).
  attempt += 1;
  wait = backoff_for(opts_.retry, attempt);
  charge_backoff(rep, b, wait);
  record_step(rep, solo,
              {serve::ServeAction::kSafeMode, fault.status, fault.site,
               attempt, wait});
  if (try_group(st, solo, GroupMode{.truncated = true, .safe = true}, b,
                &fault)) {
    return;
  }

  // Off the ladder: the request is truly poisoned.
  serve::RequestOutcome& o = rep.outcomes[idx];
  o.status = fault.status;
  o.error = fault.message;
  rep.predictions[idx].clear();
}

ServingReport InferenceServer::serve(
    std::span<const SeedRequest> requests) const {
  ServingReport rep;
  rep.num_requests = int(requests.size());
  rep.pipelined = opts_.pipeline;
  rep.predictions.resize(requests.size());
  rep.outcomes.resize(requests.size());
  const bool scheduled = !opts_.tenants.empty();
  const int num_tenants = int(opts_.tenants.size());
  const std::size_t nd = mems_.size();

  // Admission and routing. Invalid requests are rejected per-request, never
  // handed to the sampler; a tenant table adds the tenant-range check (such
  // a request is attributed to no tenant's report). Each admitted request
  // goes to the device owning its first seed, in trace order.
  std::vector<int> tenant_of(scheduled ? requests.size() : 0, -1);
  std::vector<std::vector<std::size_t>> routed(nd);
  for (std::size_t r = 0; r < requests.size(); ++r) {
    const SeedRequest& req = requests[r];
    std::string err;
    if (scheduled && (req.tenant < 0 || req.tenant >= num_tenants)) {
      err = "tenant " + std::to_string(req.tenant) + " out of range [0, " +
            std::to_string(num_tenants) + ")";
    } else {
      if (scheduled) tenant_of[r] = req.tenant;
      err = validate_request(req, csr_.num_rows);
    }
    if (!err.empty()) {
      rep.outcomes[r].status = serve::Status::kRejected;
      rep.outcomes[r].error = std::move(err);
      continue;
    }
    routed[sharded() ? std::size_t(shard_map_.owner(req.seeds[0])) : 0]
        .push_back(r);
  }

  // Tenants share the feature table (and its input width) but each runs its
  // own architecture; untenanted serving is one implicit tenant.
  std::vector<serve::TenantSpec> specs = opts_.tenants;
  if (!scheduled) {
    specs.emplace_back();
    specs.back().model_kind = opts_.model_kind;
    specs.back().fanouts = opts_.fanouts;
  }
  std::vector<ModelConfig> cfgs;
  for (const serve::TenantSpec& t : specs) {
    cfgs.push_back(model_config_for(t.model_kind, in_dim_, ds_->num_classes));
  }

  ServeState st;
  st.requests = requests;
  st.rep = &rep;
  st.ctx.dev = &dev_;
  st.ctx.ledger = &rep.ledger;
  st.ctx.training = false;  // dropout is identity at serving time
  st.gather_attempts.assign(requests.size(), 0);
  st.clock_txns.resize(caches_.size());
  for (gpusim::DeviceMemory* mem : mems_) mem->reset_peak();

  // A forward-capable device forwards its own batches; a dedicated sampler
  // hands off round-robin across the forward-capable devices.
  const auto forwards = [&](int d) {
    return !sharded() || opts_.shard.forwards(d);
  };
  std::vector<int> fwd_devices;
  for (int d = 0; d < int(nd); ++d) {
    if (forwards(d)) fwd_devices.push_back(d);
  }
  std::size_t rr = 0;
  const std::size_t bsz = std::size_t(opts_.batch_size);
  std::vector<std::vector<std::size_t>> members;  // per batch

  // Per device, in device order: cut its batches and run each through the
  // ladder in commit order. Execution order does not affect outcomes — the
  // chaos schedule keys on trace indices, sampling on per-request seeds, and
  // each cache's CLOCK transaction sees its batches in ascending order.
  for (int d = 0; d < int(nd); ++d) {
    std::vector<std::size_t>& q = routed[std::size_t(d)];
    std::optional<serve::TenantScheduler> sched;
    if (scheduled) {
      // Feed the scheduler in deterministic arrival order — (arrival, trace
      // index), so an unsorted trace behaves identically to its sorted self
      // and the per-tenant queues stay FIFO in arrival order.
      std::stable_sort(q.begin(), q.end(), [&](std::size_t a, std::size_t b) {
        return requests[a].arrival_cycle < requests[b].arrival_cycle;
      });
      sched.emplace(opts_.tenants, opts_.scheduler, opts_.batch_size);
      for (std::size_t r : q) {
        sched->enqueue(r, requests[r].tenant, requests[r].arrival_cycle);
      }
    }
    std::size_t at = 0;
    const auto next_batch = [&](std::uint64_t now)
        -> std::optional<serve::TenantScheduler::BatchPlan> {
      if (sched) return sched->next_batch(now);
      if (at >= q.size()) return std::nullopt;
      serve::TenantScheduler::BatchPlan plan;
      const std::size_t end = std::min(at + bsz, q.size());
      plan.members.assign(q.begin() + long(at), q.begin() + long(end));
      at = end;
      return plan;
    };

    // The device's decision clock: the serial completion cycle of its
    // batches so far. The scheduler cuts the next batch from what has
    // arrived by `now`, and the clock advances past the batch's measured
    // service — recovery time included, which is exactly how a degraded
    // batch pressures the queues behind it.
    std::uint64_t now = 0;
    while (std::optional<serve::TenantScheduler::BatchPlan> plan =
               next_batch(now)) {
      const std::size_t b = rep.batches.size();
      const int fwd =
          forwards(d) ? d : fwd_devices[rr++ % fwd_devices.size()];
      BatchStats& bs = rep.batches.emplace_back();
      bs.num_requests = int(plan->members.size());
      bs.tenant = plan->tenant;
      bs.release_cycle = plan->cut_cycle;
      bs.sampler_device = sharded() ? d : -1;
      bs.forward_device = sharded() ? fwd : -1;
      st.tenant = &specs[std::size_t(plan->tenant)];
      st.cfg = &cfgs[std::size_t(plan->tenant)];
      st.cache = sharded()               ? 1 + std::size_t(d)
                 : opts_.partition_cache ? 1 + std::size_t(plan->tenant)
                                         : 0;
      st.device = d;
      st.fwd_device = fwd;
      StageFault fault;
      if (!try_group(st, plan->members, GroupMode{}, b, &fault)) {
        recover_batch(st, b, plan->members, fault);
      }
      // Sampler -> forward handoff: the sampled topology (row + col + the
      // local->global map, 4 B each) and the staged feature rows cross
      // NVLink when the forward runs elsewhere. Charged once per batch from
      // the accumulated shape counters, so recovery attempts that re-sampled
      // the batch push their re-staged bytes too.
      if (fwd != d) {
        const std::size_t bytes =
            (2 * std::size_t(bs.num_edges) + std::size_t(bs.num_vertices)) *
                4 +
            std::size_t(bs.num_unique_vertices) * std::size_t(in_dim_) * 4;
        const std::uint64_t cyc = std::uint64_t(
            std::ceil(double(bytes) / dev_.nvlink_bytes_per_cycle));
        rep.ledger.add("handoff", cyc);
        bs.handoff_cycles += cyc;
        bs.handoff_bytes += bytes;
      }
      bs.cycles = bs.sample_cycles + bs.gather.cycles + bs.forward_cycles +
                  bs.backoff_cycles + bs.handoff_cycles;
      if (sched) {
        sched->observe(plan->tenant, bs.num_requests, bs.cycles);
        now = std::max(now, plan->cut_cycle) + bs.cycles;
      }
      members.push_back(std::move(plan->members));
    }
    if (!sched) continue;
    rep.peak_queue_depth =
        std::max(rep.peak_queue_depth, sched->peak_queue_depth());
    // Requests shed at admission (SchedulerOptions::max_queue_depth /
    // shed_unmeetable) were never batched: they report kRejected like any
    // other boundary refusal, with zero queue/service attribution, and tile
    // with served + degraded + failed in the tenant reports.
    for (const serve::TenantScheduler::ShedEvent& e : sched->shed_events()) {
      rep.outcomes[e.index].status = serve::Status::kRejected;
      rep.outcomes[e.index].error =
          e.unmeetable ? "shed at admission: estimated service exceeds the "
                         "tenant SLO even served alone"
                       : "shed at admission: tenant queue at max_queue_depth";
    }
  }
  rep.num_batches = int(rep.batches.size());

  // Placement: backoff waits ride each batch's sample (host) span and the
  // outbound handoff its gather span, so Sigma exposed + idle == makespan
  // holds under recovery and arrival gaps alike.
  std::vector<BatchStageCycles> stages;
  stages.reserve(rep.batches.size());
  for (const BatchStats& bs : rep.batches) {
    stages.push_back({bs.sample_cycles + bs.backoff_cycles,
                      bs.gather.cycles + bs.handoff_cycles, bs.forward_cycles,
                      bs.release_cycle, std::max(bs.sampler_device, 0),
                      std::max(bs.forward_device, 0)});
  }
  fold(rep, place_batches(stages, int(nd), opts_.pipeline), members,
       requests);
  if (scheduled) {
    rep.tenants =
        serve::make_tenant_reports(opts_.tenants, tenant_of, rep.outcomes);
  }
  return rep;
}

void InferenceServer::fold(
    ServingReport& rep, const std::vector<StreamTimeline>& tls,
    const std::vector<std::vector<std::size_t>>& members,
    std::span<const SeedRequest> requests) const {
  const std::size_t nb = rep.batches.size();
  if (sharded()) rep.devices.resize(tls.size());

  // The report-level timeline concatenates the per-device schedules in
  // device order; spans carry their batch and stream ids.
  std::vector<std::uint64_t> sample_start(nb, 0), fwd_end(nb, 0);
  for (std::size_t d = 0; d < tls.size(); ++d) {
    std::uint64_t exposed = 0;
    for (const StageSpan& span : tls[d].spans()) {
      rep.timeline.push_back(span);
      StageSplit& split = span.stream == kSampleStream   ? rep.sample_split
                          : span.stream == kGatherStream ? rep.gather_split
                                                         : rep.forward_split;
      split.cycles += span.cycles();
      split.exposed += span.exposed;
      split.overlapped += span.overlapped;
      exposed += span.exposed;
      if (span.stream == kSampleStream) {
        sample_start[std::size_t(span.batch)] = span.start;
      } else if (span.stream == kForwardStream) {
        fwd_end[std::size_t(span.batch)] = span.end;
      }
    }
    rep.total_cycles = std::max(rep.total_cycles, tls[d].makespan());
    rep.idle_cycles += tls[d].idle_cycles();
    if (!sharded()) continue;
    serve::DeviceShardReport& dr = rep.devices[d];
    dr.device = int(d);
    dr.role = opts_.shard.role(int(d));
    dr.makespan = tls[d].makespan();
    dr.exposed_cycles = exposed;
    dr.idle_cycles = tls[d].idle_cycles();
    dr.peak_bytes = mems_[d]->peak();
    dr.cache_bytes = shard_cache(int(d)).device_bytes();
  }
  rep.serial_cycles = rep.ledger.total();

  for (std::size_t b = 0; b < nb; ++b) {
    BatchStats& bs = rep.batches[b];
    bs.latency_cycles = fwd_end[b] - sample_start[b];
    rep.sample_cycles += bs.sample_cycles;
    rep.gather_cycles += bs.gather.cycles;
    rep.forward_cycles += bs.forward_cycles;
    rep.backoff_cycles += bs.backoff_cycles;
    rep.fault_events += bs.fault_events;
    rep.max_batch_cycles = std::max(rep.max_batch_cycles, bs.latency_cycles);
    rep.cache_hits += bs.gather.hits;
    rep.cache_misses += bs.gather.misses;
    rep.cache_evictions += bs.gather.evictions;
    rep.cache_hit_bytes += bs.gather.hit_bytes;
    rep.cache_miss_bytes += bs.gather.miss_bytes;
    rep.cache_insert_bytes += bs.gather.insert_bytes;
    rep.remote_hits += bs.gather.remote_hits;
    rep.remote_misses += bs.gather.remote_misses;
    rep.remote_hit_bytes += bs.gather.remote_hit_bytes;
    rep.remote_miss_bytes += bs.gather.remote_miss_bytes;
    rep.handoff_bytes += bs.handoff_bytes;
    if (sharded()) {
      serve::DeviceShardReport& s = rep.devices[std::size_t(bs.sampler_device)];
      ++s.sampled_batches;
      s.sample_cycles += bs.sample_cycles + bs.backoff_cycles;
      s.gather_cycles += bs.gather.cycles + bs.handoff_cycles;
      s.colocation_cycles += bs.colocation_sample_cycles;
      s.hit_bytes += bs.gather.hit_bytes;
      s.miss_bytes += bs.gather.miss_bytes;
      s.remote_hit_bytes += bs.gather.remote_hit_bytes;
      s.remote_miss_bytes += bs.gather.remote_miss_bytes;
      s.handoff_bytes += bs.handoff_bytes;
      serve::DeviceShardReport& f = rep.devices[std::size_t(bs.forward_device)];
      ++f.forward_batches;
      f.forward_cycles += bs.forward_cycles;
      f.colocation_cycles += bs.colocation_forward_cycles;
    }
    // Queue/service attribution against the placed schedule: a request
    // queued from its arrival_cycle (0 closed-loop) until its batch's sample
    // span started, and was served until its forward ended. Rejected
    // requests keep 0/0.
    for (std::size_t idx : members[b]) {
      serve::RequestOutcome& o = rep.outcomes[idx];
      const std::uint64_t arrival = requests[idx].arrival_cycle;
      o.queue_cycles =
          sample_start[b] > arrival ? sample_start[b] - arrival : 0;
      o.service_cycles = fwd_end[b] - sample_start[b];
    }
  }
}

}  // namespace gnnone
