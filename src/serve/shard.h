// Sharded multi-device serving: graph/feature partitioning, device roles,
// and the cross-device interconnect accounting (docs/SERVING.md §10).
//
// One simulated device stops scaling once the feature table and the request
// stream outgrow it; the FGNN/SamGraph distributed design splits the serving
// tier across N devices two ways at once:
//
//  * Data sharding: the vertex set is edge-cut into contiguous ranges of the
//    degree order (ShardMap). Each owner device holds its range's slice of
//    the feature table — and the pinned-cache rows that fall inside it — so
//    a gather resolves per vertex into local-hit (DRAM), local-miss (host
//    PCIe), remote-hit (a peer device's pinned row over NVLink,
//    DeviceSpec::nvlink_bytes_per_cycle) or remote-miss (host PCIe).
//  * Role factoring: gSuite's inference study shows the sampling scan and
//    the forward kernels contend destructively when co-located on one
//    device; FGNN's answer is to *dedicate* devices. ShardRole::kSampler
//    devices own graph shards and run sample+gather only, kForward devices
//    run forward passes only (fed over NVLink handoffs), and kSymmetric
//    devices do both — paying a colocation dilation on the two contending
//    stages (ShardOptions::colocation_dilation), which is exactly the
//    contention dedication removes.
//
// Every device gets its own DeviceMemory tracker, its own FeatureCache
// partition, and its own three-stream timeline (the one serving executor,
// server.h, places every device's spans); Σ exposed + idle == makespan
// holds exactly per device, and the run's total is the slowest device's
// makespan. Predictions stay bit-identical to unsharded serving at
// every shard count and role assignment (per-request sampling keys on the
// trace seed alone; GCN/GAT forwards are component-local — server.h).
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "graph/types.h"

namespace gnnone::serve {

/// What a device does in the sharded tier. Sampler-capable devices
/// (kSampler, kSymmetric) own graph/feature shards; forward-capable devices
/// (kForward, kSymmetric) run forward passes.
enum class ShardRole {
  kSymmetric,  // samples its shard and forwards its own batches
  kSampler,    // dedicated: sample + gather only, hands batches off
  kForward,    // dedicated: forward only, owns no shard
};

const char* shard_role_name(ShardRole r);

struct ShardOptions {
  /// Simulated devices the serving tier spans. 0 (the default) disables
  /// sharding — one device, bit for bit.
  int num_devices = 0;
  /// roles[d] is device d's role; empty means every device is kSymmetric.
  std::vector<ShardRole> roles;
  /// Stage-cycle multiplier on the sample and forward stages of kSymmetric
  /// devices: co-located sampling (a bandwidth-bound scan) and forward
  /// (compute kernels) slow each other down when they share one device —
  /// the gSuite/FGNN contention observation role dedication removes.
  /// Dedicated (kSampler / kForward) devices never pay it. 1.0 models no
  /// contention; must be >= 1.
  double colocation_dilation = 1.2;

  bool enabled() const { return num_devices > 0; }
  ShardRole role(int device) const {
    return roles.empty() ? ShardRole::kSymmetric
                         : roles[std::size_t(device)];
  }
  bool samples(int device) const { return role(device) != ShardRole::kForward; }
  bool forwards(int device) const { return role(device) != ShardRole::kSampler; }

  /// Throws std::invalid_argument on a negative device count, a role list
  /// whose size disagrees with num_devices, a role assignment with no
  /// sampler-capable or no forward-capable device, or a colocation_dilation
  /// below 1 (or non-finite).
  void Validate() const;
};

/// Edge-cut vertex partition by contiguous ranges of the degree order: the
/// ranking is split into num_owners near-equal slices (earlier owners get
/// the remainder), so every owner holds the same vertex count ±1 and the
/// hot (high-degree) head of the order concentrates on the first owner —
/// the same skew a real range partitioner over a degree-sorted relabeling
/// produces. owner(v) is an O(1) lookup.
class ShardMap {
 public:
  ShardMap() = default;
  /// `order` must rank every vertex exactly once (serve::degree_order);
  /// `owner_devices` lists the sampler-capable device ids, ascending.
  /// Throws std::invalid_argument when either is empty.
  ShardMap(std::span<const vid_t> order, std::span<const int> owner_devices);

  /// Device id owning vertex v's feature row and adjacency.
  int owner(vid_t v) const { return owner_of_[std::size_t(v)]; }
  int num_shards() const { return int(owners_.size()); }
  vid_t num_vertices() const { return vid_t(owner_of_.size()); }
  const std::vector<int>& owner_devices() const { return owners_; }
  /// Vertices owned by `device` (0 for a device that owns no shard).
  vid_t owned_count(int device) const;

 private:
  std::vector<int> owner_of_;  // vertex -> owning device id
  std::vector<int> owners_;    // shard index -> device id
  std::vector<vid_t> counts_;  // shard index -> owned vertices
};

/// Per-device accounting of one sharded serve. The timeline invariant is
/// per device: exposed_cycles + idle_cycles == makespan exactly, and the
/// run's ServingReport::total_cycles is the max makespan across devices.
struct DeviceShardReport {
  int device = 0;
  ShardRole role = ShardRole::kSymmetric;
  int sampled_batches = 0;  // batches whose sample+gather ran here
  int forward_batches = 0;  // batches whose forward ran here
  std::uint64_t sample_cycles = 0;   // incl. colocation dilation + backoff
  std::uint64_t gather_cycles = 0;   // incl. the outbound handoff push
  std::uint64_t forward_cycles = 0;  // incl. colocation dilation
  /// Extra cycles the colocation dilation added on this device (0 on
  /// dedicated devices and at dilation 1.0).
  std::uint64_t colocation_cycles = 0;
  std::uint64_t makespan = 0;
  std::uint64_t exposed_cycles = 0;
  std::uint64_t idle_cycles = 0;  // makespan - exposed, exactly
  /// Gather traffic of batches sampled here, split by path: local pinned
  /// rows (DRAM), local unpinned rows (host PCIe), peer-pinned rows
  /// (NVLink) and peer-unpinned rows (host PCIe).
  std::size_t hit_bytes = 0;
  std::size_t miss_bytes = 0;
  std::size_t remote_hit_bytes = 0;
  std::size_t remote_miss_bytes = 0;
  /// Sampler->forward handoff traffic pushed from this device (NVLink).
  std::size_t handoff_bytes = 0;
  /// This device's DeviceMemory high-water mark during this serve and its
  /// resident pinned cache bytes (what in_use() must equal between serves —
  /// the per-device leak invariant).
  std::size_t peak_bytes = 0;
  std::size_t cache_bytes = 0;
};

}  // namespace gnnone::serve
