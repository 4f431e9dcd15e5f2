// Multi-tenant SLO-aware serving: scheduler policies, queue/service
// accounting, tenant reports, and the mode-invariance of per-request
// observables (docs/SERVING.md §8).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "gen/datasets.h"
#include "gen/requests.h"
#include "gpusim/launch.h"
#include "serve/scheduler.h"
#include "serve/server.h"
#include "util/stats.h"

namespace gnnone {
namespace {

using serve::BatchCostEstimator;
using serve::SchedulerOptions;
using serve::SchedulerPolicy;
using serve::TenantScheduler;
using serve::TenantSpec;

gpusim::DeviceSpec test_device() { return gpusim::DeviceSpec{}; }

/// Two tenants with a tight and a loose deadline, same model family.
std::vector<TenantSpec> two_tenants(std::uint64_t tight, std::uint64_t loose) {
  TenantSpec interactive;
  interactive.name = "interactive";
  interactive.model_kind = "gcn";
  interactive.fanouts = {4, 3};
  interactive.slo_cycles = tight;
  TenantSpec batchy;
  batchy.name = "batchy";
  batchy.model_kind = "gat";
  batchy.fanouts = {6, 4};
  batchy.slo_cycles = loose;
  return {interactive, batchy};
}

/// Deterministic open-loop trace over the dataset for the two tenants.
std::vector<SeedRequest> two_tenant_trace(const Dataset& ds, int n0, int n1,
                                          double mean0, double mean1) {
  TenantWorkload w0;
  w0.requests.num_requests = n0;
  w0.requests.max_seeds = 2;
  w0.requests.seed = 11;
  w0.arrivals.mean_interarrival_cycles = mean0;
  w0.arrivals.seed = 5;
  TenantWorkload w1 = w0;
  w1.requests.num_requests = n1;
  w1.requests.seed = 12;
  w1.arrivals.mean_interarrival_cycles = mean1;
  return make_open_loop_trace(ds.coo, {w0, w1});
}

ServeOptions scheduled_opts(const std::vector<TenantSpec>& tenants,
                            SchedulerPolicy policy) {
  ServeOptions opts;
  opts.batch_size = 4;
  opts.cache_alpha = 0.25;
  opts.feature_dim_override = 16;
  opts.seed = 3;
  opts.tenants = tenants;
  opts.scheduler.policy = policy;
  return opts;
}

// --- TenantScheduler unit behavior -----------------------------------------

TEST(TenantScheduler, RejectsBadConstruction) {
  SchedulerOptions so;
  EXPECT_THROW(TenantScheduler({}, so, 4), std::invalid_argument);
  EXPECT_THROW(TenantScheduler(two_tenants(10, 20), so, 0),
               std::invalid_argument);
  so.estimator_ewma = 0.0;
  EXPECT_THROW(TenantScheduler(two_tenants(10, 20), so, 4),
               std::invalid_argument);
  so.estimator_ewma = 1.5;
  EXPECT_THROW(TenantScheduler(two_tenants(10, 20), so, 4),
               std::invalid_argument);
}

TEST(TenantScheduler, RejectsOutOfOrderAndOutOfRangeEnqueue) {
  TenantScheduler sched(two_tenants(10, 20), SchedulerOptions{}, 4);
  sched.enqueue(0, 0, 100);
  EXPECT_THROW(sched.enqueue(1, 0, 50), std::invalid_argument);
  EXPECT_THROW(sched.enqueue(2, 2, 200), std::invalid_argument);
  EXPECT_THROW(sched.enqueue(3, -1, 200), std::invalid_argument);
}

TEST(TenantScheduler, FifoWaitsToFillThenCutsOnTimeout) {
  SchedulerOptions so;
  so.policy = SchedulerPolicy::kFifoAggregate;
  so.max_wait_cycles = 1000;
  TenantScheduler sched(two_tenants(10000, 10000), so, 3);
  // Three arrivals inside the wait window fill the batch at the third.
  sched.enqueue(0, 0, 100);
  sched.enqueue(1, 0, 200);
  sched.enqueue(2, 0, 300);
  // A fourth far outside the window is cut alone at its timeout.
  sched.enqueue(3, 0, 9000);

  auto p1 = sched.next_batch(0);
  ASSERT_TRUE(p1.has_value());
  EXPECT_EQ(p1->tenant, 0);
  EXPECT_EQ(p1->cut_cycle, 300u);  // batch filled before the 1100 timeout
  EXPECT_EQ(p1->members, (std::vector<std::size_t>{0, 1, 2}));

  auto p2 = sched.next_batch(p1->cut_cycle);
  ASSERT_TRUE(p2.has_value());
  EXPECT_EQ(p2->cut_cycle, 10000u);  // 9000 + max_wait, never filled
  EXPECT_EQ(p2->members, (std::vector<std::size_t>{3}));
  EXPECT_TRUE(sched.empty());
  EXPECT_FALSE(sched.next_batch(0).has_value());
}

TEST(TenantScheduler, FifoTakesLateArrivalsTheWaitExposed) {
  // The timeout wait itself admits requests that arrive during it.
  SchedulerOptions so;
  so.policy = SchedulerPolicy::kFifoAggregate;
  so.max_wait_cycles = 1000;
  TenantScheduler sched(two_tenants(10000, 10000), so, 8);
  sched.enqueue(0, 0, 100);
  sched.enqueue(1, 0, 900);
  auto p = sched.next_batch(0);
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(p->cut_cycle, 1100u);  // 100 + max_wait; batch of 8 never fills
  EXPECT_EQ(p->members, (std::vector<std::size_t>{0, 1}));
}

TEST(TenantScheduler, EdfServesEarliestDeadlineAmongArrived) {
  // Tenant 0 tight (slo 50), tenant 1 loose (slo 100000). Tenant 1 arrives
  // first, but once both have arrived, tenant 0's deadline is earlier.
  SchedulerOptions so;
  so.policy = SchedulerPolicy::kEdf;
  TenantScheduler sched(two_tenants(50, 100000), so, 4);
  sched.enqueue(0, 1, 100);  // deadline 100100
  sched.enqueue(1, 0, 200);  // deadline 250
  auto p1 = sched.next_batch(150);
  ASSERT_TRUE(p1.has_value());
  // At cycle 150 only tenant 1 has arrived — EDF is non-clairvoyant and
  // serves what exists rather than waiting for an unseen tighter request.
  EXPECT_EQ(p1->tenant, 1);
  EXPECT_EQ(p1->cut_cycle, 150u);
  auto p2 = sched.next_batch(400);
  ASSERT_TRUE(p2.has_value());
  EXPECT_EQ(p2->tenant, 0);
  EXPECT_EQ(p2->cut_cycle, 400u);  // EDF never waits
}

TEST(TenantScheduler, EdfPrefersTightTenantWhenBothArrived) {
  SchedulerOptions so;
  so.policy = SchedulerPolicy::kEdf;
  TenantScheduler sched(two_tenants(50, 100000), so, 4);
  sched.enqueue(0, 1, 100);
  sched.enqueue(1, 0, 200);
  auto p = sched.next_batch(300);
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(p->tenant, 0);  // deadline 250 < 100100
}

TEST(TenantScheduler, SlackUnseededBehavesLikeEdf) {
  SchedulerOptions so;
  so.policy = SchedulerPolicy::kSlack;
  TenantScheduler sched(two_tenants(50, 100000), so, 4);
  sched.enqueue(0, 0, 100);
  sched.enqueue(1, 0, 5000);
  auto p = sched.next_batch(100);
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(p->cut_cycle, 100u);  // no estimate -> no waiting
  EXPECT_EQ(p->members, (std::vector<std::size_t>{0}));
}

TEST(TenantScheduler, SlackWaitsWhileDeadlineAllows) {
  SchedulerOptions so;
  so.policy = SchedulerPolicy::kSlack;
  TenantScheduler sched(two_tenants(10000, 100000), so, 4);
  // Teach the estimator: a batch costs ~100 cycles regardless of size.
  sched.observe(0, 1, 100);
  sched.observe(0, 2, 100);
  sched.enqueue(0, 0, 100);   // deadline 10100
  sched.enqueue(1, 0, 500);   // arrives well before the head's deadline
  sched.enqueue(2, 0, 50000); // far beyond it
  auto p = sched.next_batch(100);
  ASSERT_TRUE(p.has_value());
  // Waited for request 1 (500 + est 100 <= 10100) but not request 2.
  EXPECT_EQ(p->cut_cycle, 500u);
  EXPECT_EQ(p->members, (std::vector<std::size_t>{0, 1}));
}

TEST(BatchCostEstimator, LearnsAffineCostAndClampsNonnegative) {
  BatchCostEstimator est(1, 0.5);
  EXPECT_EQ(est.estimate(0, 4), 0u);  // unseeded
  EXPECT_FALSE(est.seeded(0));
  est.observe(0, 2, 300);
  est.observe(0, 4, 500);
  EXPECT_TRUE(est.seeded(0));
  // Underlying model: 100/request + 100 fixed. The EWMA fit lands close.
  const std::uint64_t e6 = est.estimate(0, 6);
  EXPECT_GT(e6, 500u);
  EXPECT_LT(e6, 900u);
  // Estimates are monotone in batch size (slope clamped >= 0).
  EXPECT_LE(est.estimate(0, 1), est.estimate(0, 8));
  // Out-of-range tenant estimates 0 instead of crashing.
  EXPECT_EQ(est.estimate(5, 4), 0u);
}

// --- TenantReport aggregation ----------------------------------------------

TEST(TenantReport, AggregatesCountsPercentilesAndAttainment) {
  const std::vector<TenantSpec> tenants = two_tenants(150, 1000);
  std::vector<int> tenant_of;
  std::vector<serve::RequestOutcome> outcomes;
  // Tenant 0: latencies 100, 120, 200 (one SLO miss at 200), one rejection.
  for (std::uint64_t lat : {100u, 120u, 200u}) {
    serve::RequestOutcome o;
    o.status = serve::Status::kOk;
    o.queue_cycles = lat / 2;
    o.service_cycles = lat - lat / 2;
    outcomes.push_back(o);
    tenant_of.push_back(0);
  }
  {
    serve::RequestOutcome o;
    o.status = serve::Status::kRejected;
    outcomes.push_back(o);
    tenant_of.push_back(0);
  }
  // Tenant 1: one degraded hit, one hard failure.
  {
    serve::RequestOutcome o;
    o.status = serve::Status::kDegraded;
    o.queue_cycles = 300;
    o.service_cycles = 400;
    outcomes.push_back(o);
    tenant_of.push_back(1);
    o.status = serve::Status::kOom;
    o.queue_cycles = 10;
    o.service_cycles = 10;
    outcomes.push_back(o);
    tenant_of.push_back(1);
  }

  const auto reports = serve::make_tenant_reports(tenants, tenant_of, outcomes);
  ASSERT_EQ(reports.size(), 2u);
  EXPECT_EQ(reports[0].requests, 4);
  EXPECT_EQ(reports[0].served, 3);
  EXPECT_EQ(reports[0].rejected, 1);
  EXPECT_EQ(reports[0].failed, 0);
  EXPECT_EQ(reports[0].p50_latency_cycles, 120u);  // nearest-rank over {100,120,200}
  EXPECT_EQ(reports[0].p99_latency_cycles, 200u);
  EXPECT_EQ(reports[0].max_latency_cycles, 200u);
  // 2 of 3 admitted within the 150-cycle SLO.
  EXPECT_NEAR(reports[0].attainment, 2.0 / 3.0, 1e-12);

  EXPECT_EQ(reports[1].requests, 2);
  EXPECT_EQ(reports[1].served, 1);
  EXPECT_EQ(reports[1].degraded, 1);
  EXPECT_EQ(reports[1].failed, 1);
  // The degraded request made its 1000-cycle SLO; the failure counts as a
  // miss: 1 of 2 admitted.
  EXPECT_NEAR(reports[1].attainment, 0.5, 1e-12);
}

TEST(TenantReport, EmptyTenantReportsPerfectAttainment) {
  const auto reports =
      serve::make_tenant_reports(two_tenants(10, 10), {}, {});
  ASSERT_EQ(reports.size(), 2u);
  EXPECT_EQ(reports[0].requests, 0);
  EXPECT_EQ(reports[0].attainment, 1.0);
  EXPECT_EQ(reports[0].p99_latency_cycles, 0u);
}

// --- scheduled serving: invariants -----------------------------------------

TEST(ScheduledServing, OptionsValidationCoversTenantsAndScheduler) {
  const Dataset ds = make_dataset("G4");
  ServeOptions opts = scheduled_opts(two_tenants(10, 20),
                                     SchedulerPolicy::kFifoAggregate);
  opts.tenants[0].slo_cycles = 0;
  EXPECT_THROW(InferenceServer(ds, test_device(), opts),
               std::invalid_argument);
  opts = scheduled_opts(two_tenants(10, 20), SchedulerPolicy::kEdf);
  opts.tenants[1].model_kind = "mlp";
  EXPECT_THROW(InferenceServer(ds, test_device(), opts),
               std::invalid_argument);
  opts = scheduled_opts(two_tenants(10, 20), SchedulerPolicy::kEdf);
  opts.tenants[0].fanouts = {4, 0};
  EXPECT_THROW(InferenceServer(ds, test_device(), opts),
               std::invalid_argument);
  opts = scheduled_opts(two_tenants(10, 20), SchedulerPolicy::kSlack);
  opts.scheduler.estimator_ewma = 2.0;
  EXPECT_THROW(InferenceServer(ds, test_device(), opts),
               std::invalid_argument);
}

TEST(ScheduledServing, OutOfRangeTenantIsRejectedAtTheBoundary) {
  const Dataset ds = make_dataset("G4");
  const InferenceServer server(
      ds, test_device(),
      scheduled_opts(two_tenants(1u << 30, 1u << 30),
                     SchedulerPolicy::kFifoAggregate));
  std::vector<SeedRequest> reqs(2);
  reqs[0].seeds = {1, 2};
  reqs[0].tenant = 0;
  reqs[1].seeds = {3};
  reqs[1].tenant = 7;  // no such tenant
  const ServingReport rep = server.serve(reqs);
  EXPECT_EQ(rep.outcomes[0].status, serve::Status::kOk);
  EXPECT_EQ(rep.outcomes[1].status, serve::Status::kRejected);
  EXPECT_NE(rep.outcomes[1].error.find("tenant"), std::string::npos);
  EXPECT_EQ(rep.outcomes[1].queue_cycles, 0u);
  EXPECT_EQ(rep.outcomes[1].service_cycles, 0u);
}

/// The load-bearing accounting invariants of the scheduled serial path:
///  * every batch is single-tenant and released at its cut cycle;
///  * per-request arrival + queue + service tiles the decision clock, whose
///    final value is the timeline makespan;
///  * Sigma exposed + idle == makespan (releases open real idle);
///  * Sigma batch cycles == ledger total.
TEST(ScheduledServing, QueueServiceAttributionTilesTheMakespan) {
  const Dataset ds = make_dataset("G4");
  const auto trace = two_tenant_trace(ds, 10, 8, 40000.0, 90000.0);
  const InferenceServer server(
      ds, test_device(),
      scheduled_opts(two_tenants(1u << 28, 1u << 29),
                     SchedulerPolicy::kFifoAggregate));
  const ServingReport rep = server.serve(trace);

  EXPECT_EQ(rep.num_requests, int(trace.size()));
  ASSERT_GT(rep.num_batches, 1);

  std::uint64_t batch_cycles = 0;
  for (const BatchStats& b : rep.batches) {
    EXPECT_TRUE(b.tenant == 0 || b.tenant == 1);
    batch_cycles += b.cycles;
  }
  EXPECT_EQ(batch_cycles, rep.ledger.total());
  EXPECT_EQ(rep.serial_cycles, rep.ledger.total());

  // Exposed + idle tiles the makespan exactly.
  std::uint64_t exposed = 0;
  for (const StageSpan& s : rep.timeline) exposed += s.exposed;
  EXPECT_EQ(exposed + rep.idle_cycles, rep.total_cycles);

  // Request completion times: every request completes by the makespan and
  // the last one completes exactly at it.
  std::uint64_t last_end = 0;
  int served = 0;
  for (std::size_t r = 0; r < trace.size(); ++r) {
    const serve::RequestOutcome& o = rep.outcomes[r];
    if (!serve::is_served(o.status)) continue;
    ++served;
    const std::uint64_t end =
        trace[r].arrival_cycle + o.queue_cycles + o.service_cycles;
    EXPECT_LE(end, rep.total_cycles) << "request " << r;
    last_end = std::max(last_end, end);
  }
  EXPECT_EQ(served, int(trace.size()));
  EXPECT_EQ(last_end, rep.total_cycles);

  // Tenant reports cover every request and agree with the outcomes.
  ASSERT_EQ(rep.tenants.size(), 2u);
  EXPECT_EQ(rep.tenants[0].requests + rep.tenants[1].requests,
            rep.num_requests);
  for (const serve::TenantReport& tr : rep.tenants) {
    EXPECT_EQ(tr.served, tr.requests - tr.rejected - tr.failed);
    EXPECT_GE(tr.p99_latency_cycles, tr.p50_latency_cycles);
    EXPECT_GE(tr.max_latency_cycles, tr.p99_latency_cycles);
  }
}

/// Predictions under a tenant whose (model, fanouts) equal an untenanted
/// server's options are bit-identical to that server's — scheduling decides
/// *when*, never *what* (GCN/GAT; GIN is batch-coupled by design).
TEST(ScheduledServing, PredictionsBitIdenticalToUntenantedServing) {
  const Dataset ds = make_dataset("G4");
  const auto trace = two_tenant_trace(ds, 9, 7, 50000.0, 80000.0);

  const std::vector<TenantSpec> tenants = two_tenants(1u << 28, 1u << 29);
  const InferenceServer scheduled(
      ds, test_device(), scheduled_opts(tenants, SchedulerPolicy::kEdf));
  const ServingReport srep = scheduled.serve(trace);

  for (int t = 0; t < 2; ++t) {
    ServeOptions flat;
    flat.model_kind = tenants[std::size_t(t)].model_kind;
    flat.fanouts = tenants[std::size_t(t)].fanouts;
    flat.batch_size = 4;
    flat.cache_alpha = 0.25;
    flat.feature_dim_override = 16;
    flat.seed = 3;
    const InferenceServer plain(ds, test_device(), flat);
    // The tenant's requests, closed-loop, stripped of tenancy.
    std::vector<SeedRequest> own;
    std::vector<std::size_t> original;
    for (std::size_t r = 0; r < trace.size(); ++r) {
      if (trace[r].tenant != t) continue;
      own.push_back(SeedRequest{trace[r].seeds, 0, 0});
      original.push_back(r);
    }
    const ServingReport frep = plain.serve(own);
    for (std::size_t i = 0; i < own.size(); ++i) {
      EXPECT_EQ(srep.predictions[original[i]], frep.predictions[i])
          << "tenant " << t << " request " << original[i];
    }
  }
}

/// Serial, pipelined, and chaos-recovered scheduled runs agree on every
/// per-request observable and on the tenant reports: the batch sequence is
/// committed on the decision clock, pipelining only changes placement (and
/// here not even that), and the chaos schedule keys on trace indices alone.
TEST(ScheduledServing, SerialPipelinedAndChaosOutcomesMatchPerTenant) {
  const Dataset ds = make_dataset("G4");
  const auto trace = two_tenant_trace(ds, 12, 9, 30000.0, 70000.0);
  const std::vector<TenantSpec> tenants = two_tenants(1u << 28, 1u << 29);

  ServeOptions serial = scheduled_opts(tenants, SchedulerPolicy::kSlack);
  ServeOptions piped = serial;
  piped.pipeline = true;

  const ServingReport a = InferenceServer(ds, test_device(), serial).serve(trace);
  const ServingReport b = InferenceServer(ds, test_device(), piped).serve(trace);

  ASSERT_EQ(a.outcomes.size(), b.outcomes.size());
  for (std::size_t r = 0; r < a.outcomes.size(); ++r) {
    EXPECT_EQ(a.outcomes[r].status, b.outcomes[r].status) << r;
    EXPECT_EQ(a.outcomes[r].queue_cycles, b.outcomes[r].queue_cycles) << r;
    EXPECT_EQ(a.outcomes[r].service_cycles, b.outcomes[r].service_cycles) << r;
    EXPECT_EQ(a.predictions[r], b.predictions[r]) << r;
  }
  EXPECT_EQ(a.ledger.total(), b.ledger.total());
  // Each batch is released at its serial decision-clock start, after the
  // previous batch completes, so no two batches overlap: under a scheduler
  // pipelining changes no modeled number (server.h).
  EXPECT_EQ(b.total_cycles, a.total_cycles);
  ASSERT_EQ(a.timeline.size(), b.timeline.size());
  for (std::size_t i = 0; i < a.timeline.size(); ++i) {
    EXPECT_EQ(a.timeline[i].start, b.timeline[i].start) << "span " << i;
    EXPECT_EQ(a.timeline[i].end, b.timeline[i].end) << "span " << i;
    EXPECT_EQ(a.timeline[i].exposed, b.timeline[i].exposed) << "span " << i;
  }
  ASSERT_EQ(a.tenants.size(), b.tenants.size());
  for (std::size_t t = 0; t < a.tenants.size(); ++t) {
    EXPECT_EQ(a.tenants[t].p99_latency_cycles, b.tenants[t].p99_latency_cycles);
    EXPECT_EQ(a.tenants[t].attainment, b.tenants[t].attainment);
  }

  // Chaos: faults extend service deterministically; serial == pipelined
  // still, and both runs remain internally consistent.
  ServeOptions chaos_serial = serial;
  chaos_serial.chaos.fetch_rate = 0.3;
  chaos_serial.chaos.kernel_rate = 0.15;
  chaos_serial.chaos.seed = 9;
  ServeOptions chaos_piped = chaos_serial;
  chaos_piped.pipeline = true;
  const ServingReport ca =
      InferenceServer(ds, test_device(), chaos_serial).serve(trace);
  const ServingReport cb =
      InferenceServer(ds, test_device(), chaos_piped).serve(trace);
  EXPECT_GT(ca.fault_events, 0);
  for (std::size_t r = 0; r < ca.outcomes.size(); ++r) {
    EXPECT_EQ(ca.outcomes[r].status, cb.outcomes[r].status) << r;
    EXPECT_EQ(ca.outcomes[r].queue_cycles, cb.outcomes[r].queue_cycles) << r;
    EXPECT_EQ(ca.outcomes[r].service_cycles, cb.outcomes[r].service_cycles)
        << r;
    EXPECT_EQ(ca.outcomes[r].trace.size(), cb.outcomes[r].trace.size()) << r;
  }
  EXPECT_EQ(ca.ledger.total(), cb.ledger.total());
}

/// A saturating hot tenant must not starve the cold tenant under the
/// deadline-driven policies: the cold tenant's queue waits stay bounded by
/// the FIFO baseline's, and everything is still served.
TEST(ScheduledServing, DeadlinePoliciesDoNotStarveTheColdTenant) {
  const Dataset ds = make_dataset("G4");
  // Tenant 0 floods (tiny interarrival), tenant 1 trickles.
  const auto trace = two_tenant_trace(ds, 24, 6, 1000.0, 500000.0);
  // Tight SLO for the cold tenant so deadline policies prioritize it.
  std::vector<TenantSpec> tenants = two_tenants(1u << 29, 1u << 22);

  auto run = [&](SchedulerPolicy p) {
    return InferenceServer(ds, test_device(), scheduled_opts(tenants, p))
        .serve(trace);
  };
  const ServingReport fifo = run(SchedulerPolicy::kFifoAggregate);
  const ServingReport edf = run(SchedulerPolicy::kEdf);
  const ServingReport slack = run(SchedulerPolicy::kSlack);

  for (const ServingReport* rep : {&fifo, &edf, &slack}) {
    EXPECT_EQ(rep->served_requests(), int(trace.size()));
    ASSERT_EQ(rep->tenants.size(), 2u);
  }
  // Under chaos too: a degraded hot batch delays, but never starves, the
  // cold tenant (every request still served).
  ServeOptions chaos_opts = scheduled_opts(tenants, SchedulerPolicy::kEdf);
  chaos_opts.chaos.fetch_rate = 0.4;
  chaos_opts.chaos.seed = 13;
  const ServingReport chaos_rep =
      InferenceServer(ds, test_device(), chaos_opts).serve(trace);
  EXPECT_EQ(chaos_rep.tenants[1].served, chaos_rep.tenants[1].requests);

  // The deadline policies keep the cold (tight-SLO) tenant's tail at or
  // below the FIFO baseline's.
  EXPECT_LE(edf.tenants[1].p99_latency_cycles,
            fifo.tenants[1].p99_latency_cycles);
  EXPECT_LE(slack.tenants[1].p99_latency_cycles,
            fifo.tenants[1].p99_latency_cycles);
  EXPECT_GE(edf.tenants[1].attainment, fifo.tenants[1].attainment);
}

/// Scheduled serving is bit-identical across host thread counts, like every
/// other layer of the stack.
TEST(ScheduledServing, DeterministicAcrossHostThreads) {
  const Dataset ds = make_dataset("G4");
  const auto trace = two_tenant_trace(ds, 10, 6, 40000.0, 90000.0);
  auto run = [&](int threads) {
    gpusim::set_host_threads(threads);
    struct Restore {
      ~Restore() { gpusim::set_host_threads(0); }
    } restore;
    return InferenceServer(
               ds, test_device(),
               scheduled_opts(two_tenants(1u << 28, 1u << 29),
                              SchedulerPolicy::kSlack))
        .serve(trace);
  };
  const ServingReport one = run(1);
  const ServingReport four = run(4);
  EXPECT_EQ(one.total_cycles, four.total_cycles);
  EXPECT_EQ(one.ledger.total(), four.ledger.total());
  ASSERT_EQ(one.outcomes.size(), four.outcomes.size());
  for (std::size_t r = 0; r < one.outcomes.size(); ++r) {
    EXPECT_EQ(one.outcomes[r].status, four.outcomes[r].status) << r;
    EXPECT_EQ(one.outcomes[r].queue_cycles, four.outcomes[r].queue_cycles)
        << r;
    EXPECT_EQ(one.outcomes[r].service_cycles, four.outcomes[r].service_cycles)
        << r;
    EXPECT_EQ(one.predictions[r], four.predictions[r]) << r;
  }
  for (std::size_t t = 0; t < one.tenants.size(); ++t) {
    EXPECT_EQ(one.tenants[t].p99_latency_cycles,
              four.tenants[t].p99_latency_cycles);
  }
}

// --- admission control (SchedulerOptions::max_queue_depth / -------------
// --- shed_unmeetable) ----------------------------------------------------

/// Tail drop at the scheduler level: with depth 2 and six simultaneous
/// arrivals, the first two are admitted and the other four shed in arrival
/// order, before any batch is cut.
TEST(ScheduledServingAdmission, SchedulerTailDropsBeyondMaxDepth) {
  SchedulerOptions so;
  so.max_queue_depth = 2;
  TenantScheduler sched(two_tenants(1u << 20, 1u << 20), so, 2);
  for (std::size_t r = 0; r < 6; ++r) sched.enqueue(r, 0, 0);

  const auto plan = sched.next_batch(0);
  ASSERT_TRUE(plan.has_value());
  EXPECT_EQ(plan->members, (std::vector<std::size_t>{0, 1}));
  EXPECT_FALSE(sched.next_batch(plan->cut_cycle).has_value());

  EXPECT_EQ(sched.peak_queue_depth(), 2u);
  ASSERT_EQ(sched.shed_events().size(), 4u);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(sched.shed_events()[i].index, i + 2);
    EXPECT_EQ(sched.shed_events()[i].tenant, 0);
    EXPECT_FALSE(sched.shed_events()[i].unmeetable);
  }
}

/// Unmeetable shedding: once the estimator prices a solo batch above the
/// tenant's SLO, arrivals are shed at admission without occupying a slot.
/// Without an observation the estimator is unseeded and nothing is shed.
TEST(ScheduledServingAdmission, SchedulerShedsUnmeetableOnceSeeded) {
  SchedulerOptions so;
  so.shed_unmeetable = true;
  TenantScheduler sched(two_tenants(10, 1u << 30), so, 2);
  sched.observe(0, 1, 1'000'000);  // solo service far above tenant 0's SLO
  sched.enqueue(0, 0, 0);
  sched.enqueue(1, 0, 0);
  sched.enqueue(2, 1, 0);  // the loose tenant is unaffected

  const auto plan = sched.next_batch(0);
  ASSERT_TRUE(plan.has_value());
  EXPECT_EQ(plan->tenant, 1);
  EXPECT_EQ(plan->members, (std::vector<std::size_t>{2}));
  EXPECT_FALSE(sched.next_batch(plan->cut_cycle).has_value());

  ASSERT_EQ(sched.shed_events().size(), 2u);
  EXPECT_TRUE(sched.shed_events()[0].unmeetable);
  EXPECT_TRUE(sched.shed_events()[1].unmeetable);
  EXPECT_EQ(sched.peak_queue_depth(), 1u);  // only the loose tenant queued

  // Unseeded estimator: the same arrivals are all admitted.
  TenantScheduler fresh(two_tenants(10, 1u << 30), so, 2);
  fresh.enqueue(0, 0, 0);
  fresh.enqueue(1, 0, 0);
  ASSERT_TRUE(fresh.next_batch(0).has_value());
  EXPECT_TRUE(fresh.shed_events().empty());
}

/// One overloaded tenant end to end: a bounded queue keeps the backlog at
/// the cap, sheds the overflow as kRejected, and the per-tenant accounting
/// tiles — requests == served + failed + rejected.
TEST(ScheduledServingAdmission, BoundedQueueShedsAndAccountingTiles) {
  const Dataset ds = make_dataset("G4");
  TenantSpec t;
  t.name = "overloaded";
  t.model_kind = "gcn";
  t.fanouts = {6, 3};
  t.slo_cycles = 40'000'000;

  TenantWorkload w;
  w.requests.num_requests = 48;
  w.requests.max_seeds = 2;
  w.requests.seed = 31;
  w.arrivals.mean_interarrival_cycles = 100.0;  // far faster than service
  w.arrivals.seed = 5;
  const auto trace = make_open_loop_trace(ds.coo, {w});

  ServeOptions opts = scheduled_opts({t}, SchedulerPolicy::kFifoAggregate);
  const ServingReport open =
      InferenceServer(ds, test_device(), opts).serve(trace);

  constexpr std::size_t kDepth = 6;
  opts.scheduler.max_queue_depth = kDepth;
  const ServingReport bounded =
      InferenceServer(ds, test_device(), opts).serve(trace);

  EXPECT_GT(open.peak_queue_depth, kDepth);  // genuinely overloaded
  EXPECT_LE(bounded.peak_queue_depth, kDepth);
  ASSERT_EQ(bounded.tenants.size(), 1u);
  const serve::TenantReport& rep = bounded.tenants[0];
  EXPECT_GT(rep.rejected, 0);
  EXPECT_GT(rep.served, 0);
  EXPECT_EQ(rep.requests, rep.served + rep.failed + rep.rejected);

  for (std::size_t r = 0; r < trace.size(); ++r) {
    const serve::RequestOutcome& oc = bounded.outcomes[r];
    if (oc.status != serve::Status::kRejected) continue;
    EXPECT_NE(oc.error.find("max_queue_depth"), std::string::npos) << r;
    EXPECT_TRUE(bounded.predictions[r].empty()) << r;
    EXPECT_EQ(oc.queue_cycles, 0u) << r;
    EXPECT_EQ(oc.service_cycles, 0u) << r;
  }
}

/// Admission defaults are inert: depth 0 (unbounded) and a cap the backlog
/// never reaches produce bit-identical runs, and the peak-depth gauge is
/// tracked either way.
TEST(ScheduledServingAdmission, DefaultsAndSlackCapsAreBitIdentical) {
  const Dataset ds = make_dataset("G4");
  const auto trace = two_tenant_trace(ds, 10, 6, 40000.0, 90000.0);
  ServeOptions opts =
      scheduled_opts(two_tenants(1u << 28, 1u << 29), SchedulerPolicy::kSlack);
  const ServingReport def = InferenceServer(ds, test_device(), opts).serve(trace);

  opts.scheduler.max_queue_depth = 1u << 20;  // never reached
  const ServingReport capped =
      InferenceServer(ds, test_device(), opts).serve(trace);

  EXPECT_GT(def.peak_queue_depth, 0u);
  EXPECT_EQ(capped.peak_queue_depth, def.peak_queue_depth);
  EXPECT_EQ(capped.total_cycles, def.total_cycles);
  EXPECT_EQ(capped.ledger.total(), def.ledger.total());
  EXPECT_EQ(capped.predictions, def.predictions);
  ASSERT_EQ(capped.outcomes.size(), def.outcomes.size());
  for (std::size_t r = 0; r < def.outcomes.size(); ++r) {
    EXPECT_EQ(capped.outcomes[r].status, def.outcomes[r].status) << r;
    EXPECT_EQ(capped.outcomes[r].queue_cycles, def.outcomes[r].queue_cycles)
        << r;
  }
  for (const serve::RequestOutcome& oc : def.outcomes) {
    EXPECT_NE(oc.status, serve::Status::kRejected);
  }
}

}  // namespace
}  // namespace gnnone
