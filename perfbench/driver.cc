// End-to-end benchmark driver: runs one workload through the public API and
// prints one JSON document of raw measurements (run.py turns it into
// metrics; per-layer metrics of layers that do not run are left out).
//
//   perfbench_driver --workload serve_closed --seed 3 --seconds 10 --trace 0
//                    [--spans FILE]
//
// Two clocks: host time and memory (steady_clock, getrusage), and modeled
// cycles (deterministic for a given seed). --trace 1 replaces the
// end-to-end measurement with the traced run: an untraced and a traced loop
// (their gap is the tracing overhead) and the stage-by-stage replay
// (replay.h), whose spans are written to --spans as Chrome/Perfetto JSON.
//
// Exit code 0 when every correctness check passed, 3 when one failed (the
// document still prints), 2 on bad arguments.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>
#include <stdexcept>
#include <thread>

#include "bench.h"
#include "gpusim/launch.h"
#include "graph/convert.h"
#include "replay.h"
#include "util/stats.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

using gnnone::util::Json;

// Set-up is repeated this many times per run; run.py reports the median.
constexpr int kSetupReps = 9;
// A timed loop makes at least this many calls, whatever --seconds says.
constexpr int kMinCalls = 3;
// Epochs per train_model call in train_full's timed loop.
constexpr int kEpochsPerCall = 2;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  int threads = 1;        // the workload's host threads, capped at nproc
  int other_threads = 1;  // the count the modeled-identity check runs at
  std::string spans;
};

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + k);
    const std::string v = argv[++i];
    if (k == "--workload") {
      a.workload = v;
    } else if (k == "--seed") {
      a.seed = std::stoull(v);
    } else if (k == "--seconds") {
      a.seconds = std::stod(v);
    } else if (k == "--trace") {
      a.trace = std::stoi(v) != 0;
    } else if (k == "--spans") {
      a.spans = v;
    } else {
      throw std::invalid_argument("unknown argument " + k);
    }
  }
  if (a.workload.empty()) throw std::invalid_argument("--workload is required");
  if (!(a.seconds > 0.0)) throw std::invalid_argument("--seconds must be > 0");
  return a;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return double(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB on Linux
}

double ratio(double num, double den) { return den != 0.0 ? num / den : 0.0; }

Json doubles(const std::vector<double>& v) {
  Json a = Json::array();
  for (double x : v) a.push_back(x);
  return a;
}

/// Host seconds of each call of `body` until `seconds` have passed (at
/// least kMinCalls calls, and at least `inputs`: call k serves input
/// k % inputs, so every input is timed at least once).
template <typename Body>
std::vector<double> timed_loop(double seconds, std::size_t inputs,
                               Body&& body) {
  std::vector<double> calls;
  const std::size_t min_calls = std::max(inputs, std::size_t(kMinCalls));
  const Clock::time_point start = Clock::now();
  while (calls.size() < min_calls ||
         seconds_between(start, Clock::now()) < seconds) {
    const Clock::time_point t0 = Clock::now();
    body(calls.size());
    calls.push_back(seconds_between(t0, Clock::now()));
  }
  return calls;
}

struct Checks {
  Json json = Json::object();
  int failed = 0;
  void add(const std::string& name, bool ok) {
    json.set(name, ok);
    if (!ok) {
      ++failed;
      std::fprintf(stderr, "perfbench: check failed: %s\n", name.c_str());
    }
  }
};

// --- serving --------------------------------------------------------------

/// Deterministic modeled metrics of one pass over the trace, served the way
/// the timed loop serves it: reps[k] is the report of the call on inputs[k].
Json modeled_serve(const gnnone::ServeOptions& opts,
                   const std::vector<std::vector<gnnone::SeedRequest>>& inputs,
                   const std::vector<gnnone::ServingReport>& reps) {
  Json m = Json::object();
  long requests = 0, served = 0, batches = 0;
  std::uint64_t ledger = 0, makespan = 0, hits = 0, misses = 0, window = 0;
  // Per-request latency, per tenant (one implicit tenant on closed loops):
  // a closed-loop request's batch critical path, an open-loop request's
  // queue + service.
  const std::size_t nt = std::max<std::size_t>(opts.tenants.size(), 1);
  std::vector<std::vector<std::uint64_t>> lat(nt);
  std::vector<long> admitted(nt, 0);
  for (std::size_t k = 0; k < reps.size(); ++k) {
    const gnnone::ServingReport& rep = reps[k];
    requests += rep.num_requests;
    served += rep.served_requests();
    batches += rep.num_batches;
    ledger += rep.ledger.total();
    makespan += rep.total_cycles;
    hits += rep.cache_hits;
    misses += rep.cache_misses;
    window += inputs[k].back().arrival_cycle;
    for (std::size_t r = 0; r < rep.outcomes.size(); ++r) {
      const gnnone::serve::RequestOutcome& o = rep.outcomes[r];
      const std::size_t t = std::size_t(inputs[k][r].tenant);
      if (o.status == gnnone::serve::Status::kRejected) continue;
      ++admitted[t];
      if (!gnnone::serve::is_served(o.status)) continue;
      lat[t].push_back(opts.tenants.empty() ? o.service_cycles
                                            : o.queue_cycles + o.service_cycles);
    }
  }
  // The worst tenant: the one whose p99 sits closest to (or furthest past)
  // its SLO. A continuous pick: attainments near 1 would flip it by seed.
  Json tenants = Json::array();
  double worst_att = 0.0, worst_ratio = -1.0;
  std::uint64_t worst_p50 = 0, worst_p99 = 0;
  for (std::size_t t = 0; t < nt; ++t) {
    const std::uint64_t slo = opts.tenants.empty()
                                  ? kTightSloCycles
                                  : opts.tenants[t].slo_cycles;
    long within = 0;
    for (std::uint64_t l : lat[t]) within += l <= slo ? 1 : 0;
    const double att = ratio(double(within), double(admitted[t]));
    const std::uint64_t p50 =
        lat[t].empty() ? 0 : gnnone::util::percentile(lat[t], 50.0);
    const std::uint64_t p99 =
        lat[t].empty() ? 0 : gnnone::util::percentile(lat[t], 99.0);
    if (ratio(double(p99), double(slo)) > worst_ratio) {
      worst_ratio = ratio(double(p99), double(slo));
      worst_att = att;
      worst_p50 = p50;
      worst_p99 = p99;
    }
    Json tj = Json::object();
    tj.set("attainment", att);
    tj.set("p50_latency_cycles", p50);
    tj.set("p99_latency_cycles", p99);
    tenants.push_back(tj);
  }
  m.set("tenants", tenants);
  m.set("latency_p50_cycles", worst_p50);
  m.set("latency_p99_cycles", worst_p99);
  m.set("slo_attainment_min", worst_att);
  if (window > 0) {
    // Offered load: modeled work per cycle of the arrival windows.
    m.set("offered_load", ratio(double(ledger), double(window)));
  }
  m.set("requests", requests);
  m.set("served", served);
  m.set("batches", batches);
  m.set("ledger_total_cycles", ledger);
  m.set("work_cycles_per_req", ratio(double(ledger), double(served)));
  m.set("makespan_cycles", makespan);
  m.set("cache_hits", hits);
  m.set("cache_misses", misses);
  return m;
}

/// Whether two serves of one trace agree on everything modeled.
bool same_modeled(const gnnone::ServingReport& a,
                  const gnnone::ServingReport& b) {
  if (a.ledger.entries() != b.ledger.entries() ||
      a.predictions != b.predictions || a.total_cycles != b.total_cycles ||
      a.cache_hits != b.cache_hits || a.cache_misses != b.cache_misses ||
      a.batches.size() != b.batches.size()) {
    return false;
  }
  for (std::size_t i = 0; i < a.batches.size(); ++i) {
    if (a.batches[i].cycles != b.batches[i].cycles ||
        a.batches[i].latency_cycles != b.batches[i].latency_cycles) {
      return false;
    }
  }
  return true;
}

/// Predictions of `rep` for the requests `idx` equal `ref`'s for `ref_idx`.
bool same_predictions(const gnnone::ServingReport& rep,
                      const std::vector<std::size_t>& idx,
                      const gnnone::ServingReport& ref) {
  for (std::size_t i = 0; i < idx.size(); ++i) {
    if (rep.predictions[idx[i]] != ref.predictions[i] ||
        ref.predictions[i].empty()) {
      return false;
    }
  }
  return true;
}

/// The kernels.* and gpusim.* metrics of recorded launches `k` and their
/// re-issue `rs`; `match_frac` of the re-issued launches had a recorded
/// twin of equal modeled cycles.
void set_kernel_metrics(const LaunchTotals& k, const ReissueStats& rs,
                        double match_frac, Json* m) {
  const double n = double(k.launches);
  const double kernel_s = rs.spmm_s + rs.sddmm_s;
  m->set("kernels.spmm.us_per_launch", ratio(rs.spmm_s * 1e6, rs.spmm_launches));
  m->set("kernels.sddmm.us_per_launch",
         ratio(rs.sddmm_s * 1e6, rs.sddmm_launches));
  m->set("kernels.spmm.modeled_cycles_per_launch",
         ratio(double(k.spmm_cycles), double(k.spmm)));
  m->set("kernels.sddmm.modeled_cycles_per_launch",
         ratio(double(k.sddmm_cycles), double(k.sddmm)));
  m->set("kernels.reissue_match_frac", match_frac);
  m->set("gpusim.ctas_per_launch", ratio(double(k.ctas), n));
  m->set("gpusim.warp_instrs_per_launch", ratio(double(k.instrs), n));
  m->set("gpusim.ns_per_warp_instr",
         ratio(kernel_s * 1e9, double(rs.warp_instrs)));
  m->set("gpusim.bytes_moved_per_launch", ratio(double(k.bytes_moved), n));
  m->set("gpusim.dram_bound_frac", ratio(double(k.dram_bound), n));
}

Json layer_metrics_serve(const gnnone::ServingReport& rep,
                         const ReplayTotals& t, std::size_t plan_batches,
                         double untraced_s_per_batch) {
  const double nb = double(rep.num_batches);
  const double pb = double(t.batches);  // batches of the timing passes
  const double pr = double(t.requests);
  Json m = Json::object();
  m.set("sample.us_per_req", ratio(t.sample_s * 1e6, pr));
  m.set("sample.edges_per_req", ratio(double(t.sampled_edges), rep.num_requests));
  m.set("sample.modeled_cycles_per_batch", ratio(double(rep.sample_cycles), nb));
  m.set("serve.gather.us_per_batch", ratio((t.dedup_s + t.gather_s) * 1e6, pb));
  m.set("serve.gather.unique_per_batch",
        ratio(double(t.unique_vertices), double(plan_batches)));
  m.set("serve.gather.modeled_cycles_per_batch",
        ratio(double(rep.gather_cycles), nb));
  m.set("serve.cache.hit_rate", rep.cache_hit_rate());
  m.set("serve.cache.evictions_per_batch",
        ratio(double(rep.cache_evictions), nb));
  const double stage_s = t.sample_s + t.dedup_s + t.gather_s + t.engine_s +
                         t.model_s + t.forward_s;
  m.set("serve.driver.us_per_batch",
        (untraced_s_per_batch - ratio(stage_s, pb)) * 1e6);

  std::vector<std::uint64_t> queue;
  for (const gnnone::serve::RequestOutcome& o : rep.outcomes) {
    if (gnnone::serve::is_served(o.status)) queue.push_back(o.queue_cycles);
  }
  m.set("serve.sched.queue_cycles_p99",
        queue.empty() ? 0.0 : double(gnnone::util::percentile(queue, 99.0)));
  m.set("serve.sched.batch_size_mean", ratio(rep.served_requests(), nb));
  m.set("serve.sched.peak_queue_depth", double(rep.peak_queue_depth));
  const std::uint64_t overlapped = rep.sample_split.overlapped +
                                   rep.gather_split.overlapped +
                                   rep.forward_split.overlapped;
  const std::uint64_t staged = rep.sample_split.cycles +
                               rep.gather_split.cycles +
                               rep.forward_split.cycles;
  m.set("serve.pipeline.overlap_frac", ratio(double(overlapped), double(staged)));
  m.set("serve.pipeline.idle_frac",
        ratio(double(rep.idle_cycles), double(rep.total_cycles)));

  const double all_rows = double(rep.cache_hits + rep.cache_misses +
                                 rep.remote_hits + rep.remote_misses);
  m.set("serve.shard.remote_hit_frac", ratio(double(rep.remote_hits), all_rows));
  m.set("serve.shard.handoff_bytes_per_batch",
        ratio(double(rep.handoff_bytes), nb));
  double max_mk = 0.0, sum_mk = 0.0;
  for (const gnnone::serve::DeviceShardReport& d : rep.devices) {
    max_mk = std::max(max_mk, double(d.makespan));
    sum_mk += double(d.makespan);
  }
  m.set("serve.shard.makespan_imbalance",
        rep.devices.empty() ? 0.0
                            : ratio(max_mk, sum_mk / double(rep.devices.size())));

  const double kernel_s = t.reissued.spmm_s + t.reissued.sddmm_s;
  m.set("gnn.engine.us_per_batch", ratio(t.engine_s * 1e6, pb));
  m.set("gnn.model.us_per_batch", ratio(t.model_s * 1e6, pb));
  // Forward self time: the timing passes' forward span minus the first
  // pass's re-issued kernel time, both per batch.
  m.set("gnn.forward.us_per_batch",
        (ratio(t.forward_s, pb) - ratio(kernel_s, double(plan_batches))) * 1e6);
  m.set("tensor.dense.modeled_cycles_per_batch",
        ratio(double(rep.ledger.by_tag("dense") + rep.ledger.by_tag("edge_elem")),
              nb));
  m.set("kernels.launches_per_batch",
        ratio(double(t.kernels.launches), double(plan_batches)));
  set_kernel_metrics(t.kernels, t.reissued,
                     ratio(double(t.reissue_matched), double(t.reissue_count)),
                     &m);
  return m;
}

Json run_serve(const Args& args, const Workload& w, const gpusim::DeviceSpec& dev,
               SpanLog* log, Checks* checks) {
  const gnnone::ServeOptions opts = serve_options(w);
  Json out = Json::object();

  // Set-up: dataset generation and server construction, kSetupReps times.
  std::vector<double> setup_s;
  std::optional<gnnone::Dataset> ds;
  std::unique_ptr<gnnone::InferenceServer> server;
  for (int k = 0; k < kSetupReps; ++k) {
    server.reset();
    ds.reset();
    const Clock::time_point t0 = Clock::now();
    ds.emplace(gnnone::make_dataset(w.dataset));
    server = std::make_unique<gnnone::InferenceServer>(*ds, dev, opts);
    setup_s.push_back(seconds_between(t0, Clock::now()));
  }
  out.set("setup_s", doubles(setup_s));

  const std::vector<gnnone::SeedRequest> trace =
      make_trace(w, ds->coo, args.seed);

  // One serve of the whole trace (the reference of the checks and the
  // replay), then one pass over the calls the timed loop makes: the modeled
  // metrics, and the warm-up of the host allocator and the CTA thread pool
  // before anything is timed.
  const gnnone::ServingReport full = server->serve(trace);
  const std::vector<std::vector<gnnone::SeedRequest>> inputs =
      split_calls(w, trace);
  {
    std::vector<gnnone::ServingReport> pass;
    for (const std::vector<gnnone::SeedRequest>& in : inputs) {
      pass.push_back(server->serve(in));
    }
    out.set("modeled", modeled_serve(opts, inputs, pass));
  }
  long served = 0, attempted = 0;
  const auto serve_call = [&](std::size_t i) {
    const gnnone::ServingReport rep = server->serve(inputs[i % inputs.size()]);
    served += rep.served_requests();
    attempted += rep.num_requests;
  };

  out.set("inputs", inputs.size());
  if (!args.trace) {
    const std::vector<double> calls =
        timed_loop(args.seconds, inputs.size(), serve_call);
    out.set("call_s", doubles(calls));
    out.set("peak_rss_mb", peak_rss_mb());
  } else {
    // Untraced and traced loops of equal length, then the replay.
    const double third = args.seconds / 3.0;
    const std::vector<double> plain =
        timed_loop(third, inputs.size(), serve_call);
    double plain_s = 0.0;
    for (double c : plain) plain_s += c;
    const double plain_rps = ratio(double(served), plain_s);
    const long served_before = served;
    double traced_s = 0.0;
    {
      gpusim::Trace kernels;
      timed_loop(third, inputs.size(), [&](std::size_t i) {
        const double t0 = log->now_us();
        serve_call(i);
        const double t1 = log->now_us();
        log->add("serve", kServeCallTrack, t0, t1, -1, -1);
        traced_s += (t1 - t0) * 1e-6;
        kernels.clear();
      });
    }
    const double traced_rps = ratio(double(served - served_before), traced_s);

    // Each replay pass follows an untraced serve() of the same trace, so the
    // driver's share of a batch compares like with like.
    ServeReplay replay(*ds, *server, opts, dev, trace, full);
    replay.build_plan(log);
    double whole_s = 0.0;
    long whole_batches = 0;
    const Clock::time_point r0 = Clock::now();
    do {
      const double t0 = log->now_us();
      whole_batches += server->serve(trace).num_batches;
      const double t1 = log->now_us();
      log->add("serve (untraced)", kServeCallTrack, t0, t1, -1, -1);
      whole_s += (t1 - t0) * 1e-6;
      replay.pass(log);
    } while (replay.totals().passes < 2 ||
             seconds_between(r0, Clock::now()) < third);
    const double s_per_batch = ratio(whole_s, double(whole_batches));
    const ReplayTotals& t = replay.totals();
    // The sample cost and a sharded gather's transfer cost are the server's
    // model, not a public call's result: their cycles are not replayed.
    std::uint64_t colocation = 0;
    for (const gnnone::BatchStats& bs : full.batches) {
      colocation += bs.colocation_forward_cycles;
    }
    checks->add("replay_plan_matches_report", t.plan_matches);
    checks->add("replay_sample_blocks", t.block_mismatches == 0);
    if (!server->sharded()) {
      checks->add("replay_gather_cycles", t.gather_cycles == full.gather_cycles);
    }
    checks->add("replay_forward_cycles",
                t.forward_cycles + colocation == full.forward_cycles);
    checks->add("replay_cache_hits", t.hits == full.cache_hits &&
                                         t.remote_hits == full.remote_hits);
    checks->add("replay_cache_misses", t.misses == full.cache_misses &&
                                           t.remote_misses == full.remote_misses);
    checks->add("replay_predictions", t.predictions_match);

    Json layers =
        layer_metrics_serve(full, t, replay.num_batches(), s_per_batch);
    layers.set("trace.overhead_frac", ratio(plain_rps, traced_rps) - 1.0);
    out.set("layers", layers);
    out.set("peak_rss_mb", peak_rss_mb());
  }
  out.set("served", double(served));
  out.set("attempted", double(attempted));

  // Modeled results are identical at one host thread and at nproc.
  {
    gpusim::set_host_threads(args.other_threads);
    const gnnone::ServingReport other = server->serve(trace);
    gpusim::set_host_threads(args.threads);
    checks->add("modeled_identical_at_1_and_nproc_threads",
                same_modeled(full, other));
  }
  if (w.kind == Kind::kServeSharded) {
    gnnone::ServeOptions o = opts;
    o.shard = {};
    const gnnone::InferenceServer unsharded(*ds, dev, o);
    const gnnone::ServingReport ref = unsharded.serve(trace);
    checks->add("sharded_predictions_equal_unsharded",
                ref.predictions == full.predictions && full.served_requests() ==
                                                           full.num_requests);
  }
  if (w.kind == Kind::kServeOpenMix) {
    // Each tenant's requests, served closed-loop by a single-tenant server
    // with that tenant's config.
    bool ok = full.served_requests() == full.num_requests;
    for (std::size_t tn = 0; tn < opts.tenants.size(); ++tn) {
      gnnone::ServeOptions o;
      o.model_kind = opts.tenants[tn].model_kind;
      o.fanouts = opts.tenants[tn].fanouts;
      std::vector<std::size_t> idx;
      std::vector<gnnone::SeedRequest> reqs;
      for (std::size_t r = 0; r < trace.size(); ++r) {
        if (trace[r].tenant != int(tn)) continue;
        idx.push_back(r);
        reqs.push_back({trace[r].seeds, 0, 0});
      }
      const gnnone::InferenceServer closed(*ds, dev, o);
      ok = ok && same_predictions(full, idx, closed.serve(reqs));
    }
    checks->add("open_mix_predictions_equal_closed_loop", ok);
  }
  return out;
}

// --- training -------------------------------------------------------------

/// Training inputs (features, labels, split, dropout) come from `seed`.
gnnone::TrainOptions train_options(int epochs, std::uint64_t seed) {
  gnnone::TrainOptions o;
  o.measured_epochs = epochs;
  o.eval_accuracy = false;
  o.seed = seed;
  return o;
}

Json run_train(const Args& args, const Workload& w, const gpusim::DeviceSpec& dev,
               SpanLog* log, Checks* checks) {
  const gnnone::Backend backend = gnnone::Backend::kGnnOne;
  const std::string kind = "gat";
  Json out = Json::object();

  // Set-up: dataset generation plus train_model at 0 measured epochs (the
  // engine, model, features and optimizer), kSetupReps times.
  std::vector<double> setup_s, train_setup_s;
  std::optional<gnnone::Dataset> ds;
  for (int k = 0; k < kSetupReps; ++k) {
    ds.reset();
    const Clock::time_point t0 = Clock::now();
    ds.emplace(gnnone::make_dataset(w.dataset));
    const Clock::time_point t1 = Clock::now();
    const gnnone::TrainResult r =
        gnnone::train_model(backend, *ds, kind, dev, train_options(0, args.seed));
    const Clock::time_point t2 = Clock::now();
    setup_s.push_back(seconds_between(t0, t2));
    train_setup_s.push_back(seconds_between(t1, t2));
    checks->add("train_setup_ran", r.ran);
  }
  out.set("setup_s", doubles(setup_s));
  out.set("train_setup_s", doubles(train_setup_s));
  out.set("epochs_per_call", kEpochsPerCall);

  // One measured epoch: the modeled metrics, and the warm-up.
  const gnnone::TrainResult ref =
      gnnone::train_model(backend, *ds, kind, dev, train_options(1, args.seed));
  checks->add("train_loss_finite", ref.ran && ref.fail_reason.empty());
  Json m = Json::object();
  m.set("epoch_cycles", ref.cycles_per_epoch);
  m.set("spmm_cycles", ref.spmm_cycles);
  m.set("sddmm_cycles", ref.sddmm_cycles);
  m.set("dense_cycles", ref.dense_cycles);
  out.set("modeled", m);

  long runs = 0, ran = 0;
  const auto train_call = [&](std::size_t) {
    const gnnone::TrainResult r = gnnone::train_model(
        backend, *ds, kind, dev, train_options(kEpochsPerCall, args.seed));
    ++runs;
    ran += r.ran ? 1 : 0;
  };
  out.set("inputs", 1);
  if (!args.trace) {
    out.set("call_s", doubles(timed_loop(args.seconds, 1, train_call)));
    out.set("peak_rss_mb", peak_rss_mb());
  } else {
    const double third = args.seconds / 3.0;
    double plain_s = 0.0;
    for (double c : timed_loop(third, 1, train_call)) plain_s += c;
    double traced_s = 0.0;
    long traced_calls = 0;
    std::vector<gpusim::TraceEvent> epoch_events;
    {
      gpusim::Trace kernels;
      timed_loop(third, 1, [&](std::size_t i) {
        const double t0 = log->now_us();
        train_call(i);
        const double t1 = log->now_us();
        const int call = log->add("train_model", kServeCallTrack, t0, t1, -1, -1);
        traced_s += (t1 - t0) * 1e-6;
        ++traced_calls;
        if (epoch_events.empty()) {
          // The first epoch's launches, on the modeled clock.
          const double us_per_cycle = 1.0 / (dev.sm_clock_ghz * 1e3);
          const auto& evs = kernels.events();
          const std::size_t per_epoch = evs.size() / std::size_t(kEpochsPerCall);
          epoch_events.assign(evs.begin(), evs.begin() + long(per_epoch));
          const int ep = log->add(
              "epoch", kModeledTrack, 0.0,
              double(ref.cycles_per_epoch) * us_per_cycle, call, -1);
          for (const gpusim::TraceEvent& e : epoch_events) {
            const double s = double(e.start_cycle) * us_per_cycle;
            log->add(e.stats.label, kModeledTrack, s,
                     s + double(e.stats.cycles) * us_per_cycle, ep, -1);
          }
        }
        kernels.clear();
      });
    }
    const double train_setup = [&] {
      std::vector<double> v = train_setup_s;
      std::sort(v.begin(), v.end());
      return v[v.size() / 2];
    }();
    const double plain_epoch_s =
        ratio(plain_s - double(runs - traced_calls) * train_setup,
              double((runs - traced_calls) * kEpochsPerCall));
    const double traced_epoch_s =
        ratio(traced_s - double(traced_calls) * train_setup,
              double(traced_calls * kEpochsPerCall));

    // Re-issue the epoch's sparse shapes on the training graph.
    const gnnone::ModelConfig cfg = gnnone::model_config_for(
        kind, ds->input_feat_len, ds->num_classes);
    const gnnone::Coo coo_t = gnnone::coo_transpose(ds->coo).first;
    ReissueStats rs;
    const double r0 = log->now_us();
    reissue(gnnone::Context(dev), ds->coo, coo_t,
            model_launch_shapes(kind, cfg, true), &rs);
    log->add("reissue", kReplayTrack, r0, log->now_us(), -1, -1);

    LaunchTotals k;
    std::vector<std::uint64_t> recorded;
    for (const gpusim::TraceEvent& e : epoch_events) {
      k.add(e.stats);
      recorded.push_back(e.stats.cycles);
    }
    const double epoch_c = double(ref.cycles_per_epoch);
    Json l = Json::object();
    l.set("tensor.dense.modeled_cycles_per_batch", double(ref.dense_cycles));
    l.set("kernels.launches_per_epoch", double(k.launches));
    set_kernel_metrics(k, rs,
                       ratio(matching_cycles(recorded, rs.cycles),
                             double(rs.cycles.size())),
                       &l);
    l.set("train.spmm_frac", ratio(double(ref.spmm_cycles), epoch_c));
    l.set("train.sddmm_frac", ratio(double(ref.sddmm_cycles), epoch_c));
    l.set("train.dense_frac", ratio(double(ref.dense_cycles), epoch_c));
    l.set("trace.overhead_frac", ratio(traced_epoch_s, plain_epoch_s) - 1.0);
    out.set("layers", l);
    out.set("peak_rss_mb", peak_rss_mb());
  }
  out.set("served", double(ran));
  out.set("attempted", double(runs));

  {
    gpusim::set_host_threads(args.other_threads);
    const gnnone::TrainResult one =
        gnnone::train_model(backend, *ds, kind, dev, train_options(1, args.seed));
    gpusim::set_host_threads(args.threads);
    checks->add("modeled_identical_at_1_and_nproc_threads",
                one.cycles_per_epoch == ref.cycles_per_epoch &&
                    one.spmm_cycles == ref.spmm_cycles &&
                    one.sddmm_cycles == ref.sddmm_cycles &&
                    one.dense_cycles == ref.dense_cycles);
  }
  {
    // Accuracy needs labels, which the training graph lacks: the same model
    // and backend on the labeled Cora stand-in must beat chance.
    const gnnone::Dataset cora = gnnone::make_dataset("G0");
    gnnone::TrainOptions o;
    o.measured_epochs = 30;
    const gnnone::TrainResult r =
        gnnone::train_model(backend, cora, kind, dev, o);
    out.set("probe_accuracy", r.final_accuracy);
    checks->add("train_accuracy_above_chance",
                r.ran && r.final_accuracy > 1.0 / double(cora.num_classes));
  }
  return out;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args args;
  Workload w;
  try {
    args = parse_args(argc, argv);
    w = workload_by_name(args.workload);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_driver: %s\n", e.what());
    return 2;
  }
  const int hw = int(std::max(1u, std::thread::hardware_concurrency()));
  args.threads = std::min(w.host_threads, hw);
  args.other_threads = args.threads == 1 ? hw : 1;
  gpusim::set_host_threads(args.threads);
  const gpusim::DeviceSpec dev = gpusim::default_device();

  SpanLog log;
  Checks checks;
  Json out = w.kind == Kind::kTrainFull
                 ? run_train(args, w, dev, &log, &checks)
                 : run_serve(args, w, dev, &log, &checks);
  out.set("workload", w.name);
  out.set("seed", args.seed);
  out.set("trace", args.trace);
  out.set("build_type", PERFBENCH_BUILD_TYPE);
  out.set("host_threads", args.threads);
  out.set("checks", checks.json);
  out.set("checks_failed", checks.failed);

  if (args.trace && !args.spans.empty()) {
    Json meta = Json::object();
    meta.set("workload", w.name);
    meta.set("seed", args.seed);
    meta.set("build_type", PERFBENCH_BUILD_TYPE);
    meta.set("host_threads", args.threads);
    std::ofstream f(args.spans);
    f << log.chrome_json(meta).dump() << "\n";
    if (!f) {
      std::fprintf(stderr, "perfbench_driver: cannot write %s\n",
                   args.spans.c_str());
      return 2;
    }
  }
  std::cout << out.dump() << std::endl;
  return checks.failed == 0 ? 0 : 3;
}
