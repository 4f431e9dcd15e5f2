// Tests for sharded multi-device serving (serve/shard.h, docs/SERVING.md
// §10): the edge-cut ShardMap, role validation, shard-count/role invariance
// of predictions, cross-device byte conservation, the per-device timeline
// tiling, chaos outcome invariance across role assignments, and the
// per-device memory-leak check.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <numeric>
#include <string>
#include <vector>

#include "gen/datasets.h"
#include "gen/requests.h"
#include "serve/invariants.h"
#include "serve/server.h"

namespace gnnone {
namespace {

gpusim::DeviceSpec test_device() { return gpusim::DeviceSpec{}; }

ServeOptions base_opts(const std::string& kind = "gcn") {
  ServeOptions o;
  o.model_kind = kind;
  o.batch_size = 4;
  o.fanouts = {6, 3};
  o.cache_alpha = 0.1;
  o.feature_dim_override = 16;
  o.backend = Backend::kGnnOne;
  o.seed = 3;
  return o;
}

std::vector<SeedRequest> uniform_trace(const Dataset& ds, int n = 24) {
  RequestTraceOptions ro;
  ro.num_requests = n;
  ro.max_seeds = 3;
  // Uniform traffic spreads the seeds across the contiguous degree-order
  // shards; hot traffic piles onto the top-degree shard.
  ro.hot_fraction = 0.0;
  ro.seed = 21;
  return make_request_trace(ds.coo, ro);
}

serve::ShardOptions symmetric(int n, double dilation = 1.2) {
  serve::ShardOptions s;
  s.num_devices = n;
  s.colocation_dilation = dilation;
  return s;
}

/// The first `samplers` devices dedicated to sampling, the rest to forward.
serve::ShardOptions factored(int n, int samplers) {
  serve::ShardOptions s = symmetric(n);
  for (int d = 0; d < n; ++d) {
    s.roles.push_back(d < samplers ? serve::ShardRole::kSampler
                                   : serve::ShardRole::kForward);
  }
  return s;
}

std::size_t total_unique_bytes(const ServingReport& rep,
                               std::size_t row_bytes) {
  std::size_t n = 0;
  for (const BatchStats& b : rep.batches) {
    n += std::size_t(b.num_unique_vertices) * row_bytes;
  }
  return n;
}

// --- ShardMap ------------------------------------------------------------

TEST(ShardMap, SplitsOrderIntoNearEqualContiguousRanges) {
  // An identity "degree order" over 11 vertices across 3 owners: slices of
  // 4/4/3 (earlier owners absorb the remainder), contiguous in the order.
  std::vector<vid_t> order(11);
  std::iota(order.begin(), order.end(), vid_t(0));
  const std::vector<int> owners = {0, 2, 5};
  const serve::ShardMap map(order, owners);

  EXPECT_EQ(map.num_shards(), 3);
  EXPECT_EQ(map.num_vertices(), vid_t(11));
  EXPECT_EQ(map.owner_devices(), owners);
  EXPECT_EQ(map.owned_count(0), vid_t(4));
  EXPECT_EQ(map.owned_count(2), vid_t(4));
  EXPECT_EQ(map.owned_count(5), vid_t(3));
  EXPECT_EQ(map.owned_count(1), vid_t(0));  // owns no shard

  // Contiguity in the order: owner ids change at most num_shards - 1 times.
  int changes = 0;
  for (std::size_t i = 1; i < order.size(); ++i) {
    changes += map.owner(order[i]) != map.owner(order[i - 1]) ? 1 : 0;
  }
  EXPECT_EQ(changes, map.num_shards() - 1);

  vid_t total = 0;
  for (int d : owners) total += map.owned_count(d);
  EXPECT_EQ(total, map.num_vertices());
}

TEST(ShardMap, RejectsEmptyAndMalformedInput) {
  std::vector<vid_t> order = {0, 1, 2};
  const std::vector<int> owners = {0};
  EXPECT_THROW(serve::ShardMap(std::vector<vid_t>{}, owners),
               std::invalid_argument);
  EXPECT_THROW(serve::ShardMap(order, std::vector<int>{}),
               std::invalid_argument);
  const std::vector<vid_t> dup = {0, 1, 1};  // ranks vertex 1 twice, 2 never
  EXPECT_THROW(serve::ShardMap(dup, owners), std::invalid_argument);
}

// --- validation ----------------------------------------------------------

TEST(ShardValidation, RejectsMalformedShardOptions) {
  serve::ShardOptions s;
  s.num_devices = -1;
  EXPECT_THROW(s.Validate(), std::invalid_argument);

  s = symmetric(2);
  s.roles = {serve::ShardRole::kSampler};  // size disagrees with num_devices
  EXPECT_THROW(s.Validate(), std::invalid_argument);

  s = symmetric(2);
  s.roles = {serve::ShardRole::kForward, serve::ShardRole::kForward};
  EXPECT_THROW(s.Validate(), std::invalid_argument);  // nobody samples

  s = symmetric(2);
  s.roles = {serve::ShardRole::kSampler, serve::ShardRole::kSampler};
  EXPECT_THROW(s.Validate(), std::invalid_argument);  // nobody forwards

  s = symmetric(2, 0.5);
  EXPECT_THROW(s.Validate(), std::invalid_argument);  // dilation < 1

  s = symmetric(0);  // disabled: roles/dilation unchecked beyond basics
  EXPECT_NO_THROW(s.Validate());
  s = factored(4, 2);
  EXPECT_NO_THROW(s.Validate());
}

TEST(ShardValidation, RejectsPartitionCacheWithShard) {
  // Per-(device, tenant) partitions would be a new cache layout; every
  // other option composes with sharding.
  const Dataset ds = make_dataset("G4");
  ServeOptions o = base_opts();
  o.shard = symmetric(2);
  o.tenants.push_back(serve::TenantSpec{});
  o.tenants.back().slo_cycles = 1'000'000;
  EXPECT_NO_THROW(InferenceServer(ds, test_device(), o));
  o.partition_cache = true;
  EXPECT_THROW(InferenceServer(ds, test_device(), o), std::invalid_argument);
}

// --- composition ---------------------------------------------------------

/// Two gcn tenants with loose deadlines, and an open-loop trace for them.
std::vector<serve::TenantSpec> two_gcn_tenants() {
  serve::TenantSpec a;
  a.name = "a";
  a.fanouts = {6, 3};
  a.slo_cycles = 1u << 28;
  serve::TenantSpec b = a;
  b.name = "b";
  b.fanouts = {4, 2};
  b.slo_cycles = 1u << 29;
  return {a, b};
}

std::vector<SeedRequest> two_tenant_trace(const Dataset& ds) {
  TenantWorkload w0;
  w0.requests.num_requests = 14;
  w0.requests.max_seeds = 3;
  w0.requests.hot_fraction = 0.0;
  w0.requests.seed = 11;
  w0.arrivals.mean_interarrival_cycles = 30000.0;
  w0.arrivals.seed = 5;
  TenantWorkload w1 = w0;
  w1.requests.num_requests = 10;
  w1.requests.seed = 12;
  w1.arrivals.mean_interarrival_cycles = 60000.0;
  return make_open_loop_trace(ds.coo, {w0, w1});
}

std::string joined(const std::vector<std::string>& v) {
  std::string out;
  for (const std::string& s : v) out += "\n  " + s;
  return out;
}

/// Bit-for-bit equality of everything a one-shard reduction must keep:
/// ledger entries, the timeline, every outcome (queue/service included) and
/// the predictions.
void expect_same_serve(const ServingReport& a, const ServingReport& b) {
  EXPECT_EQ(a.ledger.entries(), b.ledger.entries());
  EXPECT_EQ(a.bytes.entries(), b.bytes.entries());
  EXPECT_EQ(a.total_cycles, b.total_cycles);
  EXPECT_EQ(a.idle_cycles, b.idle_cycles);
  ASSERT_EQ(a.timeline.size(), b.timeline.size());
  for (std::size_t i = 0; i < a.timeline.size(); ++i) {
    const StageSpan &x = a.timeline[i], &y = b.timeline[i];
    EXPECT_TRUE(x.batch == y.batch && x.stream == y.stream &&
                x.start == y.start && x.end == y.end &&
                x.exposed == y.exposed && x.overlapped == y.overlapped)
        << "span " << i;
  }
  ASSERT_EQ(a.outcomes.size(), b.outcomes.size());
  for (std::size_t r = 0; r < a.outcomes.size(); ++r) {
    const serve::RequestOutcome &x = a.outcomes[r], &y = b.outcomes[r];
    EXPECT_EQ(x.status, y.status) << "request " << r;
    EXPECT_EQ(x.error, y.error) << "request " << r;
    EXPECT_EQ(x.truncated_fanouts, y.truncated_fanouts) << "request " << r;
    EXPECT_EQ(x.trace.size(), y.trace.size()) << "request " << r;
    EXPECT_EQ(x.queue_cycles, y.queue_cycles) << "request " << r;
    EXPECT_EQ(x.service_cycles, y.service_cycles) << "request " << r;
  }
  EXPECT_EQ(a.predictions, b.predictions);
}

TEST(ShardComposition, EveryModeComposesWithInvariantsAndPredictions) {
  // {closed, 2 tenants} x {serial, pipelined} x {unsharded, 4 symmetric,
  // 2 samplers + 2 forward} x {no chaos, chaos}: the accounting identities
  // hold everywhere, and gcn predictions equal the unsharded serial serve
  // of the same traffic and fault schedule.
  const Dataset ds = make_dataset("G4");
  const auto dev = test_device();
  const std::vector<serve::ShardOptions> layouts = {
      serve::ShardOptions{}, symmetric(4), factored(4, 2)};
  for (const bool tenants : {false, true}) {
    const auto reqs = tenants ? two_tenant_trace(ds) : uniform_trace(ds);
    for (const bool chaos : {false, true}) {
      ServeOptions o = base_opts();
      if (tenants) {
        o.tenants = two_gcn_tenants();
        o.scheduler.policy = serve::SchedulerPolicy::kEdf;
      }
      if (chaos) {
        o.chaos.oom_rate = 0.1;
        o.chaos.fetch_rate = 0.15;
        o.chaos.kernel_rate = 0.1;
        o.chaos.seed = 5;
      }
      const ServingReport ref = InferenceServer(ds, dev, o).serve(reqs);
      for (const bool pipeline : {false, true}) {
        for (const serve::ShardOptions& shard : layouts) {
          ServeOptions c = o;
          c.pipeline = pipeline;
          c.shard = shard;
          const InferenceServer server(ds, dev, c);
          const ServingReport rep = server.serve(reqs);
          const std::string at = std::string("tenants=") +
                                 (tenants ? "2" : "0") +
                                 " chaos=" + (chaos ? "on" : "off") +
                                 " pipeline=" + (pipeline ? "on" : "off") +
                                 " devices=" +
                                 std::to_string(shard.num_devices) +
                                 " roles=" + std::to_string(shard.roles.size());
          EXPECT_TRUE(serve::check_invariants(rep, server).empty())
              << at << joined(serve::check_invariants(rep, server));
          EXPECT_EQ(rep.predictions, ref.predictions) << at;
          EXPECT_EQ(rep.served_requests(), ref.served_requests()) << at;
          if (chaos) {
            EXPECT_GT(rep.fault_events, 0) << at;
          }
        }
      }
    }
  }
}

TEST(ShardComposition, PipelinedSymmetricShardsNeverLoseToSerial) {
  // Each symmetric device runs the single-device pipeline over its own
  // batches, so pipelining cannot lengthen any device's makespan.
  const Dataset ds = make_dataset("G4");
  const auto reqs = uniform_trace(ds, 48);
  ServeOptions o = base_opts();
  o.shard = symmetric(4);
  const ServingReport serial =
      InferenceServer(ds, test_device(), o).serve(reqs);
  o.pipeline = true;
  const ServingReport piped = InferenceServer(ds, test_device(), o).serve(reqs);
  ASSERT_EQ(serial.devices.size(), piped.devices.size());
  for (std::size_t d = 0; d < serial.devices.size(); ++d) {
    EXPECT_LE(piped.devices[d].makespan, serial.devices[d].makespan) << d;
  }
  EXPECT_LT(piped.total_cycles, serial.total_cycles);
  EXPECT_EQ(piped.ledger.entries(), serial.ledger.entries());
  EXPECT_EQ(piped.predictions, serial.predictions);
}

TEST(ShardComposition, InvariantCheckFlagsEachBrokenIdentity) {
  const Dataset ds = make_dataset("G4");
  ServeOptions o = base_opts();
  o.shard = factored(4, 2);
  o.tenants = two_gcn_tenants();
  const InferenceServer server(ds, test_device(), o);
  const ServingReport rep = server.serve(two_tenant_trace(ds));
  ASSERT_TRUE(serve::check_invariants(rep, server).empty());

  const auto violations = [&](void (*tamper)(ServingReport&)) {
    ServingReport r = rep;
    tamper(r);
    return serve::check_invariants(r, server).size();
  };
  // Timeline tiling, byte conservation, cycle conservation, outcome tiling.
  EXPECT_GT(violations([](ServingReport& r) { r.devices[1].idle_cycles++; }),
            0u);
  EXPECT_GT(violations([](ServingReport& r) { r.total_cycles++; }), 0u);
  EXPECT_GT(violations([](ServingReport& r) { r.remote_hit_bytes += 64; }),
            0u);
  EXPECT_GT(violations([](ServingReport& r) { r.batches[0].cycles++; }), 0u);
  EXPECT_GT(violations([](ServingReport& r) {
              r.outcomes[0].status = serve::Status::kOom;
            }),
            0u);
  EXPECT_GT(violations([](ServingReport& r) { r.tenants[1].served--; }), 0u);
}

// --- one-shard reductions ------------------------------------------------

TEST(ShardReduction, OneShardPipelinedIsUnshardedPipelined) {
  const Dataset ds = make_dataset("G4");
  const auto reqs = uniform_trace(ds);
  ServeOptions flat = base_opts();
  flat.pipeline = true;
  ServeOptions one = flat;
  one.shard = symmetric(1, 1.0);
  const ServingReport ref =
      InferenceServer(ds, test_device(), flat).serve(reqs);
  const ServingReport rep =
      InferenceServer(ds, test_device(), one).serve(reqs);
  EXPECT_GT(ref.sample_split.overlapped + ref.gather_split.overlapped, 0u);
  expect_same_serve(rep, ref);
}

TEST(ShardReduction, OneShardScheduledIsUnshardedScheduled) {
  const Dataset ds = make_dataset("G4");
  const auto reqs = two_tenant_trace(ds);
  for (const bool pipeline : {false, true}) {
    ServeOptions flat = base_opts();
    flat.tenants = two_gcn_tenants();
    flat.scheduler.policy = serve::SchedulerPolicy::kSlack;
    flat.pipeline = pipeline;
    ServeOptions one = flat;
    one.shard = symmetric(1, 1.0);
    const ServingReport ref =
        InferenceServer(ds, test_device(), flat).serve(reqs);
    const ServingReport rep =
        InferenceServer(ds, test_device(), one).serve(reqs);
    ASSERT_EQ(rep.tenants.size(), ref.tenants.size());
    for (std::size_t t = 0; t < ref.tenants.size(); ++t) {
      EXPECT_EQ(rep.tenants[t].p99_latency_cycles,
                ref.tenants[t].p99_latency_cycles);
    }
    expect_same_serve(rep, ref);
  }
}

TEST(ShardReduction, OneShardOnExternalTrackerIsUnsharded) {
  const Dataset ds = make_dataset("G4");
  const auto dev = test_device();
  const auto reqs = uniform_trace(ds);
  gpusim::DeviceMemory flat_mem(dev.device_memory_bytes);
  gpusim::DeviceMemory one_mem(dev.device_memory_bytes);
  ServeOptions flat = base_opts();
  flat.device_memory = &flat_mem;
  ServeOptions one = flat;
  one.device_memory = &one_mem;
  one.shard = symmetric(1, 1.0);
  const InferenceServer flat_server(ds, dev, flat);
  const InferenceServer one_server(ds, dev, one);
  const ServingReport ref = flat_server.serve(reqs);
  const ServingReport rep = one_server.serve(reqs);
  expect_same_serve(rep, ref);
  // The external tracker is device 0's: afterwards it holds exactly the
  // pinned cache bytes, the same bytes the unsharded server pins.
  EXPECT_EQ(&one_server.shard_memory(0), &one_mem);
  EXPECT_EQ(one_mem.in_use(), one_server.shard_cache(0).device_bytes());
  EXPECT_EQ(one_mem.in_use(), flat_mem.in_use());
  EXPECT_EQ(rep.devices[0].peak_bytes, flat_mem.peak());
}

// --- prediction invariance -----------------------------------------------

TEST(ShardInvariance, PredictionsBitIdenticalAcrossCountsAndRoles) {
  const Dataset ds = make_dataset("G4");
  const auto dev = test_device();
  const auto reqs = uniform_trace(ds);

  for (const std::string kind : {"gcn", "gat"}) {
    const ServeOptions flat = base_opts(kind);
    const ServingReport ref = InferenceServer(ds, dev, flat).serve(reqs);

    const std::vector<serve::ShardOptions> layouts = {
        symmetric(1), symmetric(2), symmetric(4),
        factored(2, 1), factored(4, 2), factored(4, 1)};
    for (const serve::ShardOptions& shard : layouts) {
      ServeOptions o = flat;
      o.shard = shard;
      const ServingReport rep = InferenceServer(ds, dev, o).serve(reqs);
      EXPECT_EQ(rep.predictions, ref.predictions)
          << kind << " devices=" << shard.num_devices
          << " roles=" << shard.roles.size();
      EXPECT_EQ(rep.num_requests, ref.num_requests);
      EXPECT_EQ(rep.served_requests(), ref.served_requests());
    }
  }
}

TEST(ShardInvariance, OneSymmetricShardAtDilationOneIsUnsharded) {
  const Dataset ds = make_dataset("G4");
  const auto dev = test_device();
  const auto reqs = uniform_trace(ds);

  const ServeOptions flat = base_opts();
  const ServingReport ref = InferenceServer(ds, dev, flat).serve(reqs);

  ServeOptions o = flat;
  o.shard = symmetric(1, 1.0);
  const ServingReport rep = InferenceServer(ds, dev, o).serve(reqs);

  // The single-shard run is the unsharded serial chain, bit for bit: no
  // remote traffic, no handoff, identical cycle totals and attribution.
  EXPECT_EQ(rep.total_cycles, ref.total_cycles);
  EXPECT_EQ(rep.serial_cycles, ref.serial_cycles);
  EXPECT_EQ(rep.ledger.total(), ref.ledger.total());
  EXPECT_EQ(rep.predictions, ref.predictions);
  EXPECT_EQ(rep.cache_hits, ref.cache_hits);
  EXPECT_EQ(rep.cache_misses, ref.cache_misses);
  EXPECT_EQ(rep.remote_hits, 0u);
  EXPECT_EQ(rep.remote_misses, 0u);
  EXPECT_EQ(rep.handoff_bytes, 0u);
  ASSERT_EQ(rep.timeline.size(), ref.timeline.size());
  for (std::size_t i = 0; i < rep.timeline.size(); ++i) {
    EXPECT_EQ(rep.timeline[i].start, ref.timeline[i].start) << "span " << i;
    EXPECT_EQ(rep.timeline[i].end, ref.timeline[i].end) << "span " << i;
  }
  ASSERT_EQ(rep.devices.size(), 1u);
  EXPECT_EQ(rep.devices[0].makespan, rep.total_cycles);
  EXPECT_EQ(rep.devices[0].colocation_cycles, 0u);
}

// --- accounting ----------------------------------------------------------

TEST(ShardAccounting, DevicesTileExactlyAndBatchCountsAddUp) {
  const Dataset ds = make_dataset("G4");
  const auto dev = test_device();
  const auto reqs = uniform_trace(ds);

  for (const serve::ShardOptions& shard :
       {symmetric(4), factored(4, 2), factored(4, 1)}) {
    ServeOptions o = base_opts();
    o.shard = shard;
    const InferenceServer server(ds, dev, o);
    const ServingReport rep = server.serve(reqs);

    ASSERT_EQ(rep.devices.size(), 4u);
    int sampled = 0, forwarded = 0;
    std::uint64_t max_makespan = 0, idle = 0;
    std::size_t handoff = 0;
    for (const serve::DeviceShardReport& d : rep.devices) {
      // The tentpole invariant: exposed + idle == makespan, exactly.
      EXPECT_EQ(d.exposed_cycles + d.idle_cycles, d.makespan)
          << "device " << d.device;
      EXPECT_GE(d.peak_bytes, d.cache_bytes);
      sampled += d.sampled_batches;
      forwarded += d.forward_batches;
      max_makespan = std::max(max_makespan, d.makespan);
      idle += d.idle_cycles;
      handoff += d.handoff_bytes;
      if (d.role == serve::ShardRole::kSampler) {
        EXPECT_EQ(d.forward_batches, 0);
        EXPECT_EQ(d.forward_cycles, 0u);
      }
      if (d.role == serve::ShardRole::kForward) {
        EXPECT_EQ(d.sampled_batches, 0);
        EXPECT_EQ(d.cache_bytes, 0u);  // owns no shard, pins nothing
        EXPECT_EQ(server.shard_map().owned_count(d.device), vid_t(0));
      }
      // Dedicated devices never pay the colocation dilation.
      if (d.role != serve::ShardRole::kSymmetric) {
        EXPECT_EQ(d.colocation_cycles, 0u);
      }
    }
    EXPECT_EQ(sampled, rep.num_batches);
    EXPECT_EQ(forwarded, rep.num_batches);
    EXPECT_EQ(rep.total_cycles, max_makespan);
    EXPECT_EQ(rep.idle_cycles, idle);
    EXPECT_EQ(rep.handoff_bytes, handoff);
    // Factored layouts hand every batch off; symmetric hands off nothing.
    if (!shard.roles.empty()) {
      EXPECT_GT(rep.handoff_bytes, 0u);
    } else {
      EXPECT_EQ(rep.handoff_bytes, 0u);
    }
  }
}

TEST(ShardAccounting, GatherBytesConserved) {
  const Dataset ds = make_dataset("G4");
  const auto dev = test_device();
  const auto reqs = uniform_trace(ds);
  const std::size_t row_bytes = 16 * 4;

  for (const serve::ShardOptions& shard :
       {symmetric(2), symmetric(4), factored(4, 2)}) {
    ServeOptions o = base_opts();
    o.shard = shard;
    const ServingReport rep = InferenceServer(ds, dev, o).serve(reqs);

    // Every unique gathered vertex lands on exactly one of the four paths:
    // local hit (DRAM), local miss (PCIe), remote hit (NVLink), remote miss
    // (PCIe).
    EXPECT_EQ(rep.cache_hit_bytes + rep.cache_miss_bytes +
                  rep.remote_hit_bytes + rep.remote_miss_bytes,
              total_unique_bytes(rep, row_bytes))
        << "devices=" << shard.num_devices;
    EXPECT_EQ(rep.bytes.by_tag("feature_remote_hit"), rep.remote_hit_bytes);
    EXPECT_EQ(rep.bytes.by_tag("feature_remote_miss"), rep.remote_miss_bytes);
    if (shard.num_devices > 1 && shard.roles.empty()) {
      // More than one owner and uniform traffic: some gathers cross devices.
      EXPECT_GT(rep.remote_hits + rep.remote_misses, 0u);
    }
  }
}

TEST(ShardAccounting, StaticPolicyHitsConservedAtBatchSizeOne) {
  // With batch_size 1 the sharded run's batch composition matches the
  // unsharded run's exactly (routing cannot regroup singleton batches), so
  // under the static degree policy every vertex pinned anywhere is pinned
  // identically and local + remote hits must equal the unsharded hits.
  const Dataset ds = make_dataset("G4");
  const auto dev = test_device();
  const auto reqs = uniform_trace(ds, 12);

  ServeOptions flat = base_opts();
  flat.batch_size = 1;
  const ServingReport ref = InferenceServer(ds, dev, flat).serve(reqs);

  for (int devices : {2, 4}) {
    ServeOptions o = flat;
    o.shard = symmetric(devices);
    const ServingReport rep = InferenceServer(ds, dev, o).serve(reqs);
    EXPECT_EQ(rep.cache_hits + rep.remote_hits, ref.cache_hits)
        << "devices=" << devices;
    EXPECT_EQ(rep.cache_misses + rep.remote_misses, ref.cache_misses)
        << "devices=" << devices;
  }
}

// --- chaos ---------------------------------------------------------------

TEST(ShardChaos, OutcomesInvariantAcrossRoleAssignments) {
  // Fault fates key on the request's trace position alone (serve/chaos.h),
  // never on batch composition or device placement — so a request's final
  // status, truncation flag and served predictions are identical across
  // the unsharded driver and every shard layout / role assignment.
  const Dataset ds = make_dataset("G4");
  const auto dev = test_device();
  const auto reqs = uniform_trace(ds, 32);

  ServeOptions flat = base_opts();
  flat.chaos.oom_rate = 0.1;
  flat.chaos.fetch_rate = 0.15;
  flat.chaos.kernel_rate = 0.1;
  flat.chaos.seed = 5;
  const ServingReport ref = InferenceServer(ds, dev, flat).serve(reqs);

  int faulted = 0;
  for (const serve::RequestOutcome& oc : ref.outcomes) {
    faulted += oc.status == serve::Status::kOk ? 0 : 1;
  }
  EXPECT_GT(faulted, 0);  // the schedule actually injected something

  for (const serve::ShardOptions& shard :
       {symmetric(2), symmetric(4), factored(4, 2), factored(4, 1)}) {
    ServeOptions o = flat;
    o.shard = shard;
    const ServingReport rep = InferenceServer(ds, dev, o).serve(reqs);
    ASSERT_EQ(rep.outcomes.size(), ref.outcomes.size());
    for (std::size_t r = 0; r < reqs.size(); ++r) {
      EXPECT_EQ(rep.outcomes[r].status, ref.outcomes[r].status)
          << "request " << r << " devices=" << shard.num_devices
          << " roles=" << shard.roles.size();
      EXPECT_EQ(rep.outcomes[r].truncated_fanouts,
                ref.outcomes[r].truncated_fanouts)
          << "request " << r;
      EXPECT_EQ(rep.predictions[r], ref.predictions[r]) << "request " << r;
    }
  }
}

/// Regression for the ctor-captures-temporary pattern: the sharded server
/// copies the device spec and the options by value (only the dataset must
/// outlive it — server.h), so a server whose spec/options died right after
/// construction must serve identically to one built from live arguments.
TEST(ShardLifetime, ServerSurvivesTemporarySpecAndOptions) {
  const Dataset ds = make_dataset("G4");
  const auto reqs = uniform_trace(ds, 12);

  ServeOptions live_opts = base_opts();
  live_opts.shard = factored(2, 1);
  const ServingReport ref =
      InferenceServer(ds, test_device(), live_opts).serve(reqs);

  std::unique_ptr<InferenceServer> server;
  {
    const gpusim::DeviceSpec dev{};   // both destroyed before serve() runs
    ServeOptions o = base_opts();
    o.shard = factored(2, 1);
    server = std::make_unique<InferenceServer>(ds, dev, o);
  }
  const ServingReport rep = server->serve(reqs);
  EXPECT_EQ(rep.predictions, ref.predictions);
  EXPECT_EQ(rep.total_cycles, ref.total_cycles);
  EXPECT_EQ(rep.handoff_bytes, ref.handoff_bytes);
}

// --- memory --------------------------------------------------------------

TEST(ShardMemory, PerDeviceTrackersLeakNothingAcrossServes) {
  const Dataset ds = make_dataset("G4");
  const auto dev = test_device();
  const auto reqs = uniform_trace(ds);

  ServeOptions o = base_opts();
  o.shard = factored(4, 2);
  const InferenceServer server(ds, dev, o);

  const ServingReport first = server.serve(reqs);
  for (int d = 0; d < server.shard_devices(); ++d) {
    // Between serves only the pinned cache rows stay resident per device.
    EXPECT_EQ(server.shard_memory(d).in_use(),
              server.shard_cache(d).device_bytes())
        << "device " << d;
  }
  const ServingReport second = server.serve(reqs);
  EXPECT_EQ(second.total_cycles, first.total_cycles);
  EXPECT_EQ(second.predictions, first.predictions);
  for (int d = 0; d < server.shard_devices(); ++d) {
    EXPECT_EQ(server.shard_memory(d).in_use(),
              server.shard_cache(d).device_bytes())
        << "device " << d;
    EXPECT_EQ(first.devices[std::size_t(d)].peak_bytes,
              second.devices[std::size_t(d)].peak_bytes);
  }
}

TEST(ShardMemory, PeakBytesArePerServe) {
  // Each serve reports its own high-water mark: after a large serve, a
  // one-request serve must report what a fresh server's identical serve
  // does, not the earlier serve's peak.
  const Dataset ds = make_dataset("G4");
  const auto dev = test_device();
  ServeOptions o = base_opts();
  o.batch_size = 8;
  o.fanouts = {10, 5};
  o.feature_dim_override = 32;
  o.seed = 1;
  o.shard = symmetric(2);
  RequestTraceOptions ro;
  ro.num_requests = 96;
  ro.seed = 5;
  const auto trace = make_request_trace(ds.coo, ro);
  const std::vector<SeedRequest> first = {trace.front()};

  const InferenceServer used(ds, dev, o);
  const ServingReport big = used.serve(trace);
  const ServingReport after = used.serve(first);
  const ServingReport fresh = InferenceServer(ds, dev, o).serve(first);
  ASSERT_EQ(after.devices.size(), 2u);
  for (std::size_t d = 0; d < 2; ++d) {
    EXPECT_EQ(after.devices[d].peak_bytes, fresh.devices[d].peak_bytes)
        << "device " << d;
    EXPECT_GE(big.devices[d].peak_bytes, after.devices[d].peak_bytes);
  }
}

}  // namespace
}  // namespace gnnone
