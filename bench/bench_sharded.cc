// Sharded multi-device serving (docs/SERVING.md §10): the graph and feature
// table partitioned across N simulated devices, requests routed to the owner
// of their first seed, with either symmetric devices (every device samples
// AND forwards its own batches, paying the gSuite colocation dilation on
// both stages) or factored FGNN-style roles (dedicated samplers hand off to
// dedicated forward devices over NVLink, no dilation on either side).
//
// Encoded claims:
//  * predictions are bit-identical to the unsharded server at every shard
//    count and role assignment (gcn — row/component-local compute);
//  * one symmetric shard with dilation 1.0 IS unsharded serving: identical
//    makespan, identical ledger total;
//  * every serve satisfies the accounting identities (serve/invariants.h):
//    Σ exposed + idle == makespan on every device, gather byte conservation,
//    Σ batch cycles == ledger total, outcome tiling;
//  * factoring roles beats N symmetric devices on the sampling-heavy end of
//    the sweep (deep fanouts, narrow features — strictly, on >= 3 points),
//    for two compounding reasons: dedicated devices dodge the colocation
//    dilation entirely, and the sampler->forward round-robin rebalances
//    work that seed-ownership routing distributes unevenly across
//    symmetric devices;
//  * sharding composes with pipelining and tenants: pipelined symmetric
//    devices each run the single-device pipeline over their own batches, so
//    pipelined <= serial on every symmetric point, and a two-tenant EDF mix
//    on 2 symmetric devices keeps the unsharded scheduled predictions;
//  * overload + admission control (SchedulerOptions::max_queue_depth) on the
//    scheduled path: the backlog stays at or under the bound, sheds are > 0,
//    and rejected + served + degraded + failed tiles the trace exactly.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <tuple>
#include <vector>

#include "common.h"
#include "gen/requests.h"
#include "serve/invariants.h"
#include "serve/server.h"

namespace {

constexpr int kNumDevices = 4;

struct MixPoint {
  const char* id;        // sweep label ("fan15x10_d16")
  std::vector<int> fanouts;
  int dim;
  bool sampling_heavy;   // the factored-roles win band
};

std::string shard_config(const char* mix, const char* layout) {
  return std::string("mix=") + mix + ";layout=" + layout;
}

/// Serves `trace` and records the first accounting-identity violation of
/// the run into *violation (left as is when the report is consistent).
gnnone::ServingReport checked_serve(
    const gnnone::Dataset& ds, const gpusim::DeviceSpec& dev,
    const gnnone::ServeOptions& o,
    const std::vector<gnnone::SeedRequest>& trace, std::string* violation) {
  const gnnone::InferenceServer server(ds, dev, o);
  gnnone::ServingReport rep = server.serve(trace);
  const std::vector<std::string> v =
      gnnone::serve::check_invariants(rep, server);
  if (!v.empty() && violation->empty()) *violation = v.front();
  return rep;
}

gnnone::serve::ShardOptions symmetric(int devices) {
  gnnone::serve::ShardOptions s;
  s.num_devices = devices;
  return s;
}

/// The factored role assignment for a given sampler count: the first
/// `samplers` devices sample, the rest forward.
gnnone::serve::ShardOptions factored(int samplers) {
  gnnone::serve::ShardOptions s;
  s.num_devices = kNumDevices;
  for (int d = 0; d < kNumDevices; ++d) {
    s.roles.push_back(d < samplers ? gnnone::serve::ShardRole::kSampler
                                   : gnnone::serve::ShardRole::kForward);
  }
  return s;
}

}  // namespace

GNNONE_BENCH(sharded, 263,
             "Sharded serving: symmetric vs factored sampler/forward roles "
             "across simulated devices",
             "extension (docs/SERVING.md §10); factored roles dodge the "
             "colocation dilation and win sampling-heavy mixes; admission "
             "control bounds the overload backlog") {
  const gpusim::DeviceSpec& dev = gpusim::default_device();
  const gnnone::Dataset ds = gnnone::make_dataset("G4");

  // Uniform traffic: routed load balances across the contiguous degree-order
  // shards (hot traffic would pile onto the top-degree shard — a layout
  // question, not a role question).
  gnnone::RequestTraceOptions ro;
  ro.num_requests = 96;
  ro.min_seeds = 1;
  ro.max_seeds = 3;
  ro.hot_fraction = 0.0;
  ro.seed = 77;
  const auto trace = gnnone::make_request_trace(ds.coo, ro);

  // The fanout/dim sweep walks the sample-to-forward cost ratio: deep
  // fanouts + narrow features are the sampling-heavy end (where the win
  // expectation is pinned), shallow fanouts + wide features the
  // forward-heavy end (reported for the record — the best split shifts
  // toward fewer samplers). ci keeps one point from each end.
  std::vector<MixPoint> mixes = {
      {"fan15x10_d16", {15, 10}, 16, true},
      {"fan12x8_d16", {12, 8}, 16, true},
      {"fan10x10_d32", {10, 10}, 32, true},
      {"fan10x5_d32", {10, 5}, 32, false},
      {"fan4x2_d96", {4, 2}, 96, false}};
  if (h.ci()) {
    mixes = {{"fan15x10_d16", {15, 10}, 16, true},
             {"fan4x2_d96", {4, 2}, 96, false}};
  }

  std::printf("%-14s %10s %12s %12s %12s %12s  %s\n", "mix", "unsharded",
              "sym x4", "3s+1f", "2s+2f", "1s+3f", "best");

  bool preds_invariant = true;
  bool identity_exact = true;
  bool pipelined_never_slower = true;
  std::string violation;
  int factored_wins = 0, heavy_points = 0;
  std::vector<double> win_ratios;

  for (const MixPoint& mix : mixes) {
    gnnone::ServeOptions base;
    base.model_kind = "gcn";
    base.batch_size = 8;
    base.fanouts = mix.fanouts;
    base.cache_alpha = 0.1;
    base.feature_dim_override = mix.dim;
    base.backend = gnnone::Backend::kGnnOne;
    base.seed = 9;

    const gnnone::ServingReport flat_rep =
        checked_serve(ds, dev, base, trace, &violation);

    // One symmetric shard with no dilation IS unsharded serving.
    {
      gnnone::ServeOptions o = base;
      o.shard.num_devices = 1;
      o.shard.colocation_dilation = 1.0;
      const gnnone::ServingReport rep =
          checked_serve(ds, dev, o, trace, &violation);
      identity_exact = identity_exact &&
                       rep.total_cycles == flat_rep.total_cycles &&
                       rep.ledger.total() == flat_rep.ledger.total() &&
                       rep.predictions == flat_rep.predictions;
    }

    // Symmetric N devices vs every factored split, then the symmetric and
    // 2s+2f layouts pipelined.
    std::uint64_t sym_cycles = 0, best_factored = 0;
    std::vector<std::uint64_t> cycles_by_layout;
    using Layout = std::tuple<const char*, gnnone::serve::ShardOptions, bool>;
    const std::vector<Layout> layouts = {
        {"sym", symmetric(kNumDevices), false},
        {"3s1f", factored(3), false},
        {"2s2f", factored(2), false},
        {"1s3f", factored(1), false},
        {"sym_pipelined", symmetric(kNumDevices), true},
        {"2s2f_pipelined", factored(2), true}};
    for (const auto& [name, shard, pipeline] : layouts) {
      gnnone::ServeOptions o = base;
      o.shard = shard;
      o.pipeline = pipeline;
      const gnnone::ServingReport rep =
          checked_serve(ds, dev, o, trace, &violation);
      preds_invariant = preds_invariant &&
                        rep.predictions == flat_rep.predictions;
      h.add_cycles("G4", "shard_makespan", mix.dim, rep.total_cycles,
                   shard_config(mix.id, name));
      if (pipeline) {
        if (shard.roles.empty()) {
          pipelined_never_slower =
              pipelined_never_slower && rep.total_cycles <= sym_cycles;
        }
        continue;
      }
      cycles_by_layout.push_back(rep.total_cycles);
      if (shard.roles.empty()) {
        sym_cycles = rep.total_cycles;
      } else {
        best_factored = best_factored == 0
                            ? rep.total_cycles
                            : std::min(best_factored, rep.total_cycles);
      }
    }

    const char* best = best_factored < sym_cycles ? "factored" : "symmetric";
    std::printf("%-14s %10llu %12llu %12llu %12llu %12llu  %s\n", mix.id,
                (unsigned long long)flat_rep.total_cycles,
                (unsigned long long)cycles_by_layout[0],
                (unsigned long long)cycles_by_layout[1],
                (unsigned long long)cycles_by_layout[2],
                (unsigned long long)cycles_by_layout[3], best);

    if (mix.sampling_heavy) {
      ++heavy_points;
      if (best_factored < sym_cycles) ++factored_wins;
      win_ratios.push_back(double(sym_cycles) / double(best_factored));
    }
  }

  // --- a two-tenant EDF mix on 2 symmetric devices -----------------------
  // Each device schedules the requests routed to it on its own decision
  // clock; predictions stay those of the unsharded scheduled server.
  {
    gnnone::TenantWorkload w0;
    w0.requests.num_requests = 32;
    w0.requests.max_seeds = 2;
    w0.requests.hot_fraction = 0.0;
    w0.requests.seed = 41;
    w0.arrivals.mean_interarrival_cycles = 20000.0;
    w0.arrivals.seed = 41;
    gnnone::TenantWorkload w1 = w0;
    w1.requests.seed = 42;
    w1.arrivals.process = gnnone::ArrivalProcess::kBursty;
    w1.arrivals.seed = 42;
    const auto mix_trace = gnnone::make_open_loop_trace(ds.coo, {w0, w1});

    gnnone::ServeOptions o;
    o.batch_size = 8;
    o.cache_alpha = 0.1;
    o.feature_dim_override = 32;
    o.backend = gnnone::Backend::kGnnOne;
    o.seed = 9;
    o.tenants = {{"interactive", "gcn", {10, 5}, 400'000, 0.0},
                 {"batchy", "gat", {10, 5}, 2'000'000, 0.0}};
    o.scheduler.policy = gnnone::serve::SchedulerPolicy::kEdf;
    const gnnone::ServingReport flat_rep =
        checked_serve(ds, dev, o, mix_trace, &violation);
    o.shard = symmetric(2);
    const gnnone::ServingReport rep =
        checked_serve(ds, dev, o, mix_trace, &violation);
    preds_invariant = preds_invariant &&
                      rep.predictions == flat_rep.predictions &&
                      rep.served_requests() == rep.num_requests;
    h.add_cycles("G4", "shard_tenant_makespan", 32, rep.total_cycles,
                 "policy=edf;layout=sym2");
    std::uint64_t worst_p99 = 0;
    for (const gnnone::serve::TenantReport& t : rep.tenants) {
      worst_p99 = std::max(worst_p99, t.p99_latency_cycles);
    }
    std::printf("two-tenant EDF on 2 symmetric devices: makespan %llu "
                "(unsharded %llu), worst tenant p99 %llu\n",
                (unsigned long long)rep.total_cycles,
                (unsigned long long)flat_rep.total_cycles,
                (unsigned long long)worst_p99);
  }

  h.expect("sharded.predictions_invariant", preds_invariant,
           "sharded predictions differ from the unsharded server");
  h.expect("sharded.one_shard_is_unsharded", identity_exact,
           "1 symmetric shard at dilation 1.0 != the unsharded serial run");
  h.expect("sharded.pipelined_symmetric_never_slower", pipelined_never_slower,
           "a pipelined symmetric layout took longer than its serial run");
  h.expect("sharded.factored_wins_sampling_heavy",
           factored_wins == heavy_points && heavy_points >= (h.ci() ? 1 : 3),
           "factored roles lost a sampling-heavy point to symmetric");
  if (!win_ratios.empty()) {
    double prod = 1.0;
    for (double r : win_ratios) prod *= r;
    h.metric("factored_speedup_geomean_sampling_heavy",
             std::pow(prod, 1.0 / double(win_ratios.size())));
  }

  // --- overload + admission control on the scheduled path ----------------
  // One tenant, Poisson arrivals far above service capacity: unbounded, the
  // backlog grows with the trace; with max_queue_depth the peak stays at the
  // bound and the overflow is shed at admission as kRejected.
  {
    gnnone::TenantWorkload w;
    w.requests.num_requests = h.ci() ? 48 : 96;
    w.requests.min_seeds = 1;
    w.requests.max_seeds = 2;
    w.requests.seed = 31;
    w.arrivals.process = gnnone::ArrivalProcess::kPoisson;
    // A batch of 8 services in ~25k cycles; arrivals every ~100 cycles
    // offer ~30x capacity, so the whole trace lands during the first few
    // batches and the backlog is the trace minus what got served.
    w.arrivals.mean_interarrival_cycles = 100.0;
    w.arrivals.seed = 31;
    const auto open_trace = gnnone::make_open_loop_trace(ds.coo, {w});

    gnnone::ServeOptions o;
    o.model_kind = "gcn";
    o.batch_size = 8;
    o.fanouts = {10, 5};
    o.cache_alpha = 0.1;
    o.feature_dim_override = 32;
    o.backend = gnnone::Backend::kGnnOne;
    o.seed = 9;
    o.tenants = {{"overloaded", "gcn", {10, 5}, 40'000'000, 0.0}};

    const std::size_t kDepth = 12;
    std::vector<std::pair<const char*, std::size_t>> runs = {
        {"unbounded", 0}, {"bounded", kDepth}};
    std::size_t unbounded_peak = 0, bounded_peak = 0;
    int shed = 0;
    bool tiling = true;
    for (const auto& [name, depth] : runs) {
      gnnone::ServeOptions oo = o;
      oo.scheduler.max_queue_depth = depth;
      const gnnone::ServingReport rep =
          checked_serve(ds, dev, oo, open_trace, &violation);
      h.add_cycles("G4", "shard_admission_makespan", 32, rep.total_cycles,
                   std::string("queue=") + name);
      tiling = tiling &&
               rep.served_requests() + rep.rejected_requests() +
                       rep.failed_requests() ==
                   rep.num_requests;
      if (depth == 0) {
        unbounded_peak = rep.peak_queue_depth;
      } else {
        bounded_peak = rep.peak_queue_depth;
        shed = rep.rejected_requests();
      }
    }
    std::printf("admission: unbounded peak %zu, bounded peak %zu (cap %zu), "
                "shed %d\n",
                unbounded_peak, bounded_peak, kDepth, shed);
    h.metric("admission_unbounded_peak_depth", double(unbounded_peak));
    h.metric("admission_shed_requests", double(shed));
    h.expect("sharded.admission_bounds_backlog",
             bounded_peak <= kDepth && unbounded_peak > kDepth,
             "max_queue_depth failed to bound the overload backlog");
    h.expect("sharded.admission_sheds_overflow", shed > 0,
             "overload with a bounded queue shed nothing");
    h.expect("sharded.admission_accounting_tiles", tiling,
             "served + rejected + failed != trace size under admission");
  }
  h.expect("sharded.invariants_hold", violation.empty(),
           violation.empty() ? "every serve satisfies serve::check_invariants"
                             : violation);
  return 0;
}
