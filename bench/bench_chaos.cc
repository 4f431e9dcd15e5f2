// Chaos harness (docs/ROBUSTNESS.md): fault-tolerant serving under seeded
// fault schedules.
//
// The serving trace of bench_serving is replayed while a deterministic
// ChaosOptions schedule injects faults — OOM at each of the three stage
// allocation sites, transient PCIe-fetch faults in the feature gather, and
// forward-pass kernel faults — across a sweep of fault rates and both
// serving drivers (serial and pipelined). The encoded claims:
//  * no fault crashes serve() and no run leaks device allocations: between
//    serves exactly the pinned feature cache is resident;
//  * containment is per-request: every request served at full fidelity is
//    bit-identical to the fault-free run, and only requests whose injected
//    fault is incurable report an error;
//  * availability holds a floor at every fault site (>= 95% of admitted
//    requests served at the 10% rate), with every degraded/failed request
//    carrying a complete DegradationTrace;
//  * recovery stays on the books: backoff cycles appear in the ledger under
//    "backoff" and ride the timeline, so the accounting identities
//    (serve/invariants.h: Sigma exposed == makespan, Sigma batch cycles ==
//    ledger total, ...) keep holding under recovery;
//  * the schedule keys on trace position alone, so serial and pipelined
//    runs produce identical predictions and outcomes;
//  * a zero-rate schedule is byte-identical to the fault-free server (the
//    chaos machinery costs nothing when off).
#include <algorithm>
#include <cstdio>

#include "common.h"
#include "gen/requests.h"
#include "serve/invariants.h"
#include "serve/server.h"

namespace {

struct FaultSite {
  const char* name;
  void (*arm)(gnnone::serve::ChaosOptions&, double rate);
};

const FaultSite kSites[] = {
    {"oom_sample",
     [](gnnone::serve::ChaosOptions& c, double r) {
       c.oom_rate = r;
       c.oom_site = gnnone::serve::ChaosSite::kSample;
     }},
    {"oom_gather",
     [](gnnone::serve::ChaosOptions& c, double r) {
       c.oom_rate = r;
       c.oom_site = gnnone::serve::ChaosSite::kGather;
     }},
    {"oom_forward",
     [](gnnone::serve::ChaosOptions& c, double r) {
       c.oom_rate = r;
       c.oom_site = gnnone::serve::ChaosSite::kForward;
     }},
    {"fetch", [](gnnone::serve::ChaosOptions& c, double r) { c.fetch_rate = r; }},
    {"kernel",
     [](gnnone::serve::ChaosOptions& c, double r) { c.kernel_rate = r; }},
};

std::string chaos_config(const char* site, double rate, bool pipelined) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "site=%s;rate=%.2f;mode=%s", site, rate,
                pipelined ? "pipelined" : "serial");
  return buf;
}


/// Full-fidelity requests must match the fault-free predictions bit for
/// bit; degraded/failed ones must carry their trace. Returns false on any
/// violation.
bool outcomes_contained(const gnnone::ServingReport& rep,
                        const gnnone::ServingReport& clean) {
  for (std::size_t r = 0; r < rep.outcomes.size(); ++r) {
    const gnnone::serve::RequestOutcome& o = rep.outcomes[r];
    switch (o.status) {
      case gnnone::serve::Status::kOk:
        if (!o.truncated_fanouts && rep.predictions[r] != clean.predictions[r])
          return false;
        break;
      case gnnone::serve::Status::kDegraded:
        if (o.trace.empty() || !o.truncated_fanouts) return false;
        if (rep.predictions[r].empty()) return false;
        break;
      case gnnone::serve::Status::kRejected:
        return false;  // the bench trace is fully valid
      default:  // an incurable fault: walked the whole ladder, no output
        if (o.trace.empty() || o.error.empty()) return false;
        if (o.trace.back().action != gnnone::serve::ServeAction::kSafeMode)
          return false;
        if (!rep.predictions[r].empty()) return false;
        break;
    }
  }
  return true;
}

}  // namespace

GNNONE_BENCH(chaos, 270,
             "Chaos: serving under seeded OOM/fetch/kernel fault schedules",
             "robustness extension (docs/ROBUSTNESS.md); availability floor, "
             "per-request containment, leak-free recovery") {
  const gpusim::DeviceSpec& dev = gpusim::default_device();
  const gnnone::Dataset ds = gnnone::make_dataset("G4");

  // The bench_serving trace: 96 requests, 1-3 seeds, uniform traffic.
  gnnone::RequestTraceOptions ro;
  ro.num_requests = 96;
  ro.min_seeds = 1;
  ro.max_seeds = 3;
  ro.hot_fraction = 0.0;
  ro.seed = 77;
  const auto trace = gnnone::make_request_trace(ds.coo, ro);

  gnnone::ServeOptions base;
  base.model_kind = "gcn";  // batch-invariant predictions (server.h)
  base.batch_size = 24;
  base.fanouts = {10, 5};
  base.cache_alpha = 0.1;
  base.feature_dim_override = 32;
  base.backend = gnnone::Backend::kAuto;
  base.seed = 9;
  base.chaos.seed = 5;

  // Full scale sweeps three rates per site; ci keeps the 10% point (rows
  // are an exact subset: same trace, same schedule seed).
  std::vector<double> rates = {0.05, 0.10, 0.25};
  if (h.ci()) rates = {0.10};
  const double kFloorRate = 0.10;

  // Fault-free references, one per driver. The zero-rate schedule must be
  // indistinguishable from a server with no chaos machinery armed.
  gnnone::ServingReport clean[2];
  bool fault_free_clean = true;
  for (int p = 0; p < 2; ++p) {
    gnnone::ServeOptions o = base;
    o.pipeline = p == 1;
    const gnnone::InferenceServer server(ds, dev, o);
    clean[p] = server.serve(trace);
    fault_free_clean =
        fault_free_clean && clean[p].fault_events == 0 &&
        clean[p].backoff_cycles == 0 &&
        clean[p].served_requests() == clean[p].num_requests &&
        server.device_memory().in_use() == server.cache().device_bytes();
    for (const auto& o2 : clean[p].outcomes) {
      fault_free_clean = fault_free_clean &&
                         o2.status == gnnone::serve::Status::kOk &&
                         o2.trace.empty();
    }
  }
  fault_free_clean =
      fault_free_clean && clean[0].predictions == clean[1].predictions;
  h.expect("chaos.fault_free_clean", fault_free_clean,
           "zero-rate schedules must serve every request with clean "
           "outcomes, no backoff, and no resident bytes beyond the cache");

  std::printf("%-12s %5s %-9s  %6s %5s %5s %6s %12s\n", "site", "rate",
              "mode", "avail", "degr", "fail", "faults", "total-cyc");

  bool no_leaks = true, contained = true, books_balance = true;
  bool backoff_attributed = true, mode_invariant = true;
  bool floor_ok = true;
  double worst_avail_floor_rate = 1.0;

  for (const FaultSite& site : kSites) {
    for (const double rate : rates) {
      gnnone::ServingReport by_mode[2];
      for (int p = 0; p < 2; ++p) {
        gnnone::ServeOptions o = base;
        o.pipeline = p == 1;
        site.arm(o.chaos, rate);
        const gnnone::InferenceServer server(ds, dev, o);
        const gnnone::ServingReport rep = server.serve(trace);
        by_mode[p] = rep;

        no_leaks = no_leaks && server.device_memory().in_use() ==
                                   server.cache().device_bytes();
        contained = contained && outcomes_contained(rep, clean[p]);
        books_balance =
            books_balance &&
            gnnone::serve::check_invariants(rep, server).empty() &&
            rep.ledger.by_tag("backoff") == rep.backoff_cycles;
        // Any contained fault walks the retry rung first, so recovery
        // always leaves a backoff trail in the ledger.
        backoff_attributed = backoff_attributed &&
                             (rep.fault_events == 0) ==
                                 (rep.backoff_cycles == 0);
        if (rate == kFloorRate) {
          worst_avail_floor_rate =
              std::min(worst_avail_floor_rate, rep.availability());
          floor_ok = floor_ok && rep.availability() >= 0.95;
        }

        const std::string cfg = chaos_config(site.name, rate, o.pipeline);
        h.add_cycles("G4", "chaos_total", base.feature_dim_override,
                     rep.total_cycles, cfg);
        h.add_cycles("G4", "chaos_backoff", base.feature_dim_override,
                     rep.backoff_cycles, cfg);

        std::printf("%-12s %5.2f %-9s  %5.1f%% %5d %5d %6d %12llu\n",
                    site.name, rate, o.pipeline ? "pipelined" : "serial",
                    100.0 * rep.availability(), rep.degraded_requests(),
                    rep.failed_requests(), rep.fault_events,
                    (unsigned long long)rep.total_cycles);
      }

      // The schedule keys on trace position, never on the driver: both
      // modes must agree on every prediction, outcome, and charge.
      mode_invariant = mode_invariant &&
                       by_mode[0].predictions == by_mode[1].predictions &&
                       by_mode[0].ledger.total() == by_mode[1].ledger.total() &&
                       by_mode[0].backoff_cycles == by_mode[1].backoff_cycles;
      for (std::size_t r = 0; r < by_mode[0].outcomes.size(); ++r) {
        mode_invariant = mode_invariant && by_mode[0].outcomes[r].status ==
                                               by_mode[1].outcomes[r].status;
      }
    }
  }

  h.expect("chaos.no_leaked_allocations", no_leaks,
           "after every chaotic serve exactly the pinned cache bytes remain "
           "in use");
  h.expect("chaos.unaffected_bit_identity", contained,
           "every full-fidelity request bit-identical to the fault-free "
           "run; every degraded/failed request carries its full trace");
  h.expect("chaos.backoff_attributed", backoff_attributed,
           "faulted runs (and only those) charge backoff to the ledger");
  h.expect("chaos.books_balance_under_recovery", books_balance,
           "Sigma exposed == makespan and Sigma batch cycles == ledger "
           "total on every chaotic run");
  h.expect("chaos.serial_pipelined_invariant", mode_invariant,
           "fault fates key on trace position: both drivers agree on every "
           "outcome, prediction, and charge");
  char detail[96];
  std::snprintf(detail, sizeof detail,
                "worst availability at rate %.2f = %.3f (floor 0.95)",
                kFloorRate, worst_avail_floor_rate);
  h.expect("chaos.availability_floor", floor_ok, detail);
  h.metric("chaos_worst_availability_rate0.1", worst_avail_floor_rate);

  std::printf("\nworst availability @ rate %.2f across sites/modes: %.3f\n",
              kFloorRate, worst_avail_floor_rate);
  return 0;
}
