// Multi-tenant SLO study (docs/SERVING.md §8): open-loop traces served
// through the tenant scheduler under a sweep of tenant mixes x offered
// loads x scheduling policies.
//
// Each mix is first calibrated closed-loop: every tenant's requests are
// served untenanted once to measure its mean per-request service cycles.
// Deadlines and interarrival means are then expressed as multiples of that
// measurement, so the sweep's operating points (utilization ~ 1/load) track
// the simulator's cost model instead of hard-coded cycle counts. The same
// probe runs double as the bit-identity reference: scheduled predictions
// must equal the untenanted ones request by request.
//
// Encoded claims:
//  * on every mixed-tenant point the better of the deadline-aware policies
//    (EDF, slack) holds worst-tenant p99 at or below FIFO-aggregate's —
//    deadline awareness never loses the tail;
//  * for the deadline-aware policies aggregate SLO attainment is monotone
//    in offered load (lighter traffic never hurts). FIFO-aggregate is
//    exempt by design: its fixed batching timeout dominates latency at
//    light load, the classic dynamic-batching pathology this subsystem
//    exists to fix;
//  * deadline-aware scheduling strictly beats FIFO's attainment on >= 3
//    full-scale points (>= 1 at ci) — the win is real, not a tie;
//  * queue-wait accounting tiles the timeline: the accounting identities
//    hold (serve/invariants.h — per-stream exposed cycles plus
//    scheduler-induced idle equal the makespan exactly), and every
//    request's arrival + queue + service lands inside it.
//
// ci rows are an exact subset of the full sweep (same traces, same
// calibration, same options), so the baseline gate sees identical cycles.
#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "common.h"
#include "gen/requests.h"
#include "serve/invariants.h"
#include "serve/scheduler.h"
#include "serve/server.h"

namespace {

struct MixTenant {
  const char* name;
  const char* model_kind;  // gcn / gat only: GIN's vcolnorm couples batches
  std::vector<int> fanouts;
  double slo_mult;  // deadline = slo_mult x calibrated per-request service
  gnnone::ArrivalProcess process;
};

struct Mix {
  const char* id;
  const char* graph;
  int requests_per_tenant;
  std::vector<MixTenant> tenants;
};

struct CalibratedMix {
  std::vector<gnnone::TenantWorkload> workloads;  // arrivals filled per load
  std::vector<gnnone::serve::TenantSpec> specs;
  /// Batch-amortized per-request service cycles (batch_size = kBatchSize):
  /// the steady-state throughput capacity the load knob is scaled by.
  std::vector<double> service_per_request;
  /// Closed-loop reference predictions per tenant, request-issue order
  /// (one prediction per seed within a request).
  std::vector<std::vector<std::vector<int>>> probe_predictions;
};

constexpr int kBatchSize = 6;
constexpr int kFeatureDim = 16;

gnnone::ServeOptions flat_opts(const MixTenant& t) {
  gnnone::ServeOptions o;
  o.model_kind = t.model_kind;
  o.fanouts = t.fanouts;
  o.batch_size = kBatchSize;
  o.cache_alpha = 0.25;
  o.feature_dim_override = kFeatureDim;
  o.seed = 7;
  return o;
}

gnnone::RequestTraceOptions request_opts(const Mix& mix, std::size_t t) {
  gnnone::RequestTraceOptions ro;
  ro.num_requests = mix.requests_per_tenant;
  ro.min_seeds = 1;
  ro.max_seeds = 2;
  ro.seed = 101 + std::uint64_t(t);
  return ro;
}

/// Serves every tenant twice, closed-loop and untenanted: once at the
/// sweep's batch size to measure its amortized per-request service cycles
/// (and record the reference predictions), once at batch size 1 to measure
/// the singleton service a lone request pays. Deadlines scale from the
/// singleton cost — that is the best latency any policy can offer, so a
/// slo_mult of 2 is comfortably attainable at light load and genuinely at
/// risk under congestion.
CalibratedMix calibrate(const gnnone::Dataset& ds, const Mix& mix,
                        const gpusim::DeviceSpec& dev) {
  CalibratedMix cal;
  for (std::size_t t = 0; t < mix.tenants.size(); ++t) {
    const MixTenant& mt = mix.tenants[t];
    gnnone::TenantWorkload w;
    w.requests = request_opts(mix, t);
    const auto probe_trace = gnnone::make_request_trace(ds.coo, w.requests);
    const gnnone::InferenceServer probe(ds, dev, flat_opts(mt));
    const gnnone::ServingReport rep = probe.serve(probe_trace);
    const double per_request =
        double(rep.total_cycles) / double(probe_trace.size());

    gnnone::ServeOptions solo_opts = flat_opts(mt);
    solo_opts.batch_size = 1;
    const gnnone::InferenceServer solo(ds, dev, solo_opts);
    const double singleton =
        double(solo.serve(probe_trace).total_cycles) /
        double(probe_trace.size());

    gnnone::serve::TenantSpec spec;
    spec.name = mt.name;
    spec.model_kind = mt.model_kind;
    spec.fanouts = mt.fanouts;
    spec.slo_cycles = std::uint64_t(mt.slo_mult * singleton);

    cal.workloads.push_back(std::move(w));
    cal.specs.push_back(std::move(spec));
    cal.service_per_request.push_back(per_request);
    cal.probe_predictions.push_back(rep.predictions);
  }
  return cal;
}

/// Offered-load knob: per-tenant mean interarrival = load x num_tenants x
/// that tenant's calibrated service, so aggregate utilization ~ 1/load.
std::vector<gnnone::SeedRequest> make_trace(const gnnone::Dataset& ds,
                                            const Mix& mix, CalibratedMix& cal,
                                            double load) {
  for (std::size_t t = 0; t < cal.workloads.size(); ++t) {
    gnnone::ArrivalOptions& a = cal.workloads[t].arrivals;
    a.process = mix.tenants[t].process;
    a.mean_interarrival_cycles =
        load * double(mix.tenants.size()) * cal.service_per_request[t];
    a.seed = 31 + std::uint64_t(t);
    if (a.process == gnnone::ArrivalProcess::kBursty) {
      a.burst_multiplier = 4.0;
      a.burst_fraction = 0.2;
      a.period_cycles = std::uint64_t(8.0 * a.mean_interarrival_cycles) + 1;
    }
  }
  return gnnone::make_open_loop_trace(ds.coo, cal.workloads);
}

gnnone::ServeOptions scheduled_opts(const CalibratedMix& cal,
                                    gnnone::serve::SchedulerPolicy policy,
                                    std::uint64_t max_wait) {
  gnnone::ServeOptions o;
  o.batch_size = kBatchSize;
  o.cache_alpha = 0.25;
  o.feature_dim_override = kFeatureDim;
  o.seed = 7;
  o.tenants = cal.specs;
  o.scheduler.policy = policy;
  o.scheduler.max_wait_cycles = max_wait;
  return o;
}

/// Worst per-tenant p99 across tenants that served anything.
std::uint64_t worst_p99(const gnnone::ServingReport& rep) {
  std::uint64_t worst = 0;
  for (const gnnone::serve::TenantReport& t : rep.tenants) {
    if (t.served > 0) worst = std::max(worst, t.p99_latency_cycles);
  }
  return worst;
}

/// Aggregate attainment: in-SLO share over all admitted requests of the run.
double aggregate_attainment(const gnnone::ServingReport& rep) {
  double in_slo = 0.0;
  int admitted = 0;
  for (const gnnone::serve::TenantReport& t : rep.tenants) {
    const int adm = t.requests - t.rejected;
    in_slo += t.attainment * double(adm);
    admitted += adm;
  }
  return admitted > 0 ? in_slo / double(admitted) : 1.0;
}

/// The accounting identities (exposed + scheduler idle tiles the makespan,
/// among others) hold, and every request's arrival + queue + service lands
/// inside the makespan.
bool attribution_tiles(const std::vector<gnnone::SeedRequest>& trace,
                       const gnnone::InferenceServer& server,
                       const gnnone::ServingReport& rep) {
  if (!gnnone::serve::check_invariants(rep, server).empty()) return false;
  for (std::size_t r = 0; r < trace.size(); ++r) {
    const gnnone::serve::RequestOutcome& o = rep.outcomes[r];
    if (o.status == gnnone::serve::Status::kRejected) continue;
    if (trace[r].arrival_cycle + o.queue_cycles + o.service_cycles >
        rep.total_cycles) {
      return false;
    }
  }
  return true;
}

std::string point_config(const Mix& mix, double load, const char* policy) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "mix=%s;load=%.2f;policy=%s", mix.id, load,
                policy);
  return buf;
}

}  // namespace

GNNONE_BENCH(serving_slo, 261,
             "Multi-tenant SLO serving: per-tenant queues under FIFO / EDF / "
             "slack scheduling",
             "extension (docs/SERVING.md §8); deadline-aware policies hold "
             "the worst-tenant tail at or below FIFO and win attainment "
             "outright on congested points") {
  const gpusim::DeviceSpec& dev = gpusim::default_device();

  // Two-tenant interactive/batch mix on a power-law graph, plus a
  // three-tenant mix with a bursty diurnal tenant on the Kronecker graph.
  // ci keeps the first mix — its points are an exact subset of the full
  // sweep (identical traces and calibration).
  std::vector<Mix> mixes = {
      {"duo", "G4", 36,
       {{"interactive", "gcn", {4, 3}, 2.0, gnnone::ArrivalProcess::kPoisson},
        {"batchy", "gat", {6, 4}, 6.0, gnnone::ArrivalProcess::kPoisson}}},
      {"trio", "G10", 24,
       {{"interactive", "gcn", {4, 3}, 2.0, gnnone::ArrivalProcess::kPoisson},
        {"analytics", "gat", {6, 4}, 8.0, gnnone::ArrivalProcess::kPoisson},
        {"diurnal", "gcn", {6, 4}, 3.0, gnnone::ArrivalProcess::kBursty}}}};
  // Offered load: batch-amortized utilization ~ 1/load. 1.25 is the
  // congested point where scheduling has to choose well; 16.0 is light
  // enough that even unbatched singleton service (~kBatchSize x the
  // amortized cost) leaves slack on every deadline.
  std::vector<double> loads = {1.25, 4.0, 16.0};
  if (h.ci()) {
    mixes.resize(1);
    loads = {1.25, 16.0};
  }

  const std::vector<gnnone::serve::SchedulerPolicy> policies = {
      gnnone::serve::SchedulerPolicy::kFifoAggregate,
      gnnone::serve::SchedulerPolicy::kEdf,
      gnnone::serve::SchedulerPolicy::kSlack};

  std::printf("%-5s %-5s %5s  %-6s %12s %12s %10s %6s\n", "mix", "graph",
              "load", "policy", "makespan", "worst-p99", "attain", "batches");

  bool tail_never_worse = true;
  bool attainment_monotone = true;
  bool tiles = true;
  bool preds_match = true;
  int strictly_better = 0, mixed_points = 0;
  std::vector<double> fifo_over_edf_p99;

  for (const Mix& mix : mixes) {
    const gnnone::Dataset ds = gnnone::make_dataset(mix.graph);
    CalibratedMix cal = calibrate(ds, mix, dev);
    // FIFO's dynamic-batching timeout, common to all policies that use it:
    // one mean batch-fill time of the slowest tenant.
    double max_service = 0.0;
    for (double s : cal.service_per_request) {
      max_service = std::max(max_service, s);
    }
    const std::uint64_t max_wait = std::uint64_t(
        double(kBatchSize) * double(mix.tenants.size()) * max_service);

    // attainment per policy index, in sweep (descending-congestion) order.
    std::vector<std::vector<double>> attain_by_policy(policies.size());

    for (const double load : loads) {
      const auto trace = make_trace(ds, mix, cal, load);

      std::vector<std::uint64_t> p99s;
      std::vector<double> attains;
      for (std::size_t p = 0; p < policies.size(); ++p) {
        const gnnone::InferenceServer server(
            ds, dev, scheduled_opts(cal, policies[p], max_wait));
        const gnnone::ServingReport rep = server.serve(trace);
        const char* pname = gnnone::serve::policy_name(policies[p]);

        const std::uint64_t p99 = worst_p99(rep);
        const double attain = aggregate_attainment(rep);
        p99s.push_back(p99);
        attains.push_back(attain);
        attain_by_policy[p].push_back(attain);
        tiles = tiles && attribution_tiles(trace, server, rep);

        const std::string cfg = point_config(mix, load, pname);
        h.add_cycles(mix.graph, "slo_makespan", kFeatureDim, rep.total_cycles,
                     cfg);
        h.add_cycles(mix.graph, "slo_worst_p99", kFeatureDim, p99, cfg);
        std::printf("%-5s %-5s %5.2f  %-6s %12llu %12llu %9.1f%% %6d\n",
                    mix.id, mix.graph, load, pname,
                    (unsigned long long)rep.total_cycles,
                    (unsigned long long)p99, 100.0 * attain, rep.num_batches);

        // Bit-identity vs the untenanted probes: the i-th scheduled request
        // of tenant t is the i-th probe request (same generator seed, and
        // the merged trace preserves per-tenant issue order).
        if (policies[p] == gnnone::serve::SchedulerPolicy::kEdf) {
          std::vector<std::size_t> next(mix.tenants.size(), 0);
          for (std::size_t r = 0; r < trace.size(); ++r) {
            const std::size_t t = std::size_t(trace[r].tenant);
            const std::size_t i = next[t]++;
            preds_match = preds_match &&
                          rep.predictions[r] == cal.probe_predictions[t][i];
          }
        }
      }

      // FIFO is policies[0]; deadline-aware tails must not lose to it.
      const std::uint64_t best_aware = std::min(p99s[1], p99s[2]);
      tail_never_worse = tail_never_worse && best_aware <= p99s[0];
      if (best_aware > 0) {
        fifo_over_edf_p99.push_back(double(p99s[0]) / double(best_aware));
      }
      ++mixed_points;
      if (std::max(attains[1], attains[2]) > attains[0]) ++strictly_better;
    }

    // Lighter traffic never hurts the deadline-aware policies: attainment
    // is non-decreasing as the load factor grows (exact — the sweep is
    // deterministic). FIFO (p = 0) is exempt: its latency floor is the
    // batching timeout, which load does not shrink.
    for (std::size_t p = 1; p < policies.size(); ++p) {
      for (std::size_t i = 1; i < attain_by_policy[p].size(); ++i) {
        attainment_monotone = attainment_monotone &&
                              attain_by_policy[p][i] >=
                                  attain_by_policy[p][i - 1] - 1e-12;
      }
    }
  }

  h.expect("serving_slo.tail_never_worse_than_fifo", tail_never_worse,
           "min(EDF, slack) worst-tenant p99 must be <= FIFO's on every "
           "mixed-tenant point");
  h.expect("serving_slo.attainment_monotone_in_load", attainment_monotone,
           "EDF/slack aggregate attainment must not fall as offered load "
           "lightens");
  const int need_better = h.ci() ? 1 : 3;
  h.expect("serving_slo.deadline_aware_wins_attainment",
           strictly_better >= need_better,
           std::to_string(strictly_better) + " of " +
               std::to_string(mixed_points) +
               " points strictly above FIFO attainment (need >= " +
               std::to_string(need_better) + ")");
  h.expect("serving_slo.attribution_tiles_makespan", tiles,
           "exposed + idle must equal the makespan and every request's "
           "arrival + queue + service must land inside it");
  h.expect("serving_slo.predictions_match_untenanted", preds_match,
           "scheduled predictions must be bit-identical to the closed-loop "
           "untenanted probes");

  const double tail_gain = bench::geomean(fifo_over_edf_p99);
  h.metric("fifo_over_deadline_aware_worst_p99", tail_gain);
  std::printf("\nFIFO worst-p99 / best deadline-aware worst-p99: geomean "
              "%.3fx over %zu points; %d of %d points win attainment\n",
              tail_gain, fifo_over_edf_p99.size(), strictly_better,
              mixed_points);
  return 0;
}
