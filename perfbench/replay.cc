#include "replay.h"

#include <algorithm>
#include <deque>
#include <map>
#include <unordered_map>

#include "graph/convert.h"

namespace perfbench {

using gnnone::vid_t;

struct ServeReplay::Block {
  std::vector<vid_t> vertices;  // block row -> global id
  std::vector<std::vector<vid_t>> seed_rows;
  gnnone::Coo coo;
  long sampled_edges = 0;
};

ServeReplay::ServeReplay(const gnnone::Dataset& ds,
                         const gnnone::InferenceServer& server,
                         const gnnone::ServeOptions& opts,
                         const gpusim::DeviceSpec& dev,
                         std::span<const gnnone::SeedRequest> trace,
                         const gnnone::ServingReport& report)
    : ds_(ds),
      server_(server),
      opts_(opts),
      dev_(dev),
      trace_(trace),
      report_(report),
      csr_(gnnone::coo_to_csr(ds.coo)),
      // The server's feature table: same generator, same seed.
      features_(gnnone::make_features(
          ds.coo.num_rows, ds.input_feat_len,
          ds.labeled ? ds.labels : std::vector<int>{}, opts.seed)),
      in_dim_(ds.input_feat_len),
      ctx_(dev) {}

void ServeReplay::build_plan(SpanLog* log) {
  // Each batch of the report names the queue it drew from and how many
  // requests it took: the one queue in trace order (closed loop), its
  // tenant's FIFO queue in arrival order (open mix), or its sampler device's
  // queue of the requests routed to it by their first seed's owner (sharded).
  const double t0 = log->now_us();
  plan_.clear();
  std::vector<std::size_t> order(trace_.size());
  for (std::size_t r = 0; r < order.size(); ++r) order[r] = r;
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return trace_[a].arrival_cycle < trace_[b].arrival_cycle;
                   });
  std::map<int, std::deque<std::size_t>> queues;
  for (std::size_t r : order) {
    const int q = server_.sharded()
                      ? server_.shard_map().owner(trace_[r].seeds[0])
                      : trace_[r].tenant;
    queues[q].push_back(r);
  }
  for (const gnnone::BatchStats& bs : report_.batches) {
    std::deque<std::size_t>& q =
        queues[server_.sharded() ? bs.sampler_device : bs.tenant];
    const std::size_t n = std::size_t(bs.num_requests);
    if (q.size() < n) {
      totals_.plan_matches = false;
      break;
    }
    ReplayBatch rb;
    rb.tenant = bs.tenant;
    rb.sampler = bs.sampler_device;
    rb.members.assign(q.begin(), q.begin() + long(n));
    q.erase(q.begin(), q.begin() + long(n));
    plan_.push_back(std::move(rb));
  }
  for (const auto& [id, rest] : queues) {
    if (!rest.empty()) totals_.plan_matches = false;
  }
  log->add("plan", kReplayTrack, t0, log->now_us(), -1, -1);
}

ServeReplay::Block ServeReplay::sample(const ReplayBatch& rb) {
  gnnone::SampleOptions so;
  so.fanouts = opts_.tenants.empty()
                   ? opts_.fanouts
                   : opts_.tenants[std::size_t(rb.tenant)].fanouts;
  so.seed = opts_.seed;
  Block blk;
  for (std::size_t idx : rb.members) {
    const gnnone::SampledSubgraph sub =
        gnnone::sample_khop(csr_, trace_[idx].seeds, so, &scratch_);
    const vid_t base = vid_t(blk.vertices.size());
    std::vector<vid_t> rows;
    for (std::size_t j = 0; j < trace_[idx].seeds.size(); ++j) {
      rows.push_back(base + vid_t(j));
    }
    blk.seed_rows.push_back(std::move(rows));
    blk.vertices.insert(blk.vertices.end(), sub.vertices.begin(),
                        sub.vertices.end());
    for (vid_t v : sub.coo.row) blk.coo.row.push_back(base + v);
    for (vid_t v : sub.coo.col) blk.coo.col.push_back(base + v);
    blk.sampled_edges += long(sub.sampled_edges);
  }
  blk.coo.num_rows = blk.coo.num_cols = vid_t(blk.vertices.size());
  return blk;
}

gnnone::GatherStats ServeReplay::gather(const ReplayBatch& rb,
                                        std::span<const vid_t> unique,
                                        std::size_t b,
                                        gnnone::FeatureCache::ClockTxn* txn,
                                        gnnone::CycleLedger* ledger) {
  if (rb.sampler < 0) {
    gnnone::FeatureCache::ClockGatherCtx clock;
    if (txn != nullptr) clock = {txn, std::int64_t(b), true};
    return server_.cache().gather(unique, ledger, nullptr, {}, false, clock);
  }
  // Sharded: the sampler device's partition gathers the rows it owns; a
  // peer-owned row is a remote hit when its owner pins it. Only the counts
  // are replayed: the transfer cost of remote rows is the server's model.
  const gnnone::FeatureCache& fc = server_.shard_cache(rb.sampler);
  gnnone::GatherStats gst;
  std::vector<vid_t> local;
  for (vid_t v : unique) {
    const int owner = server_.shard_map().owner(v);
    if (owner == rb.sampler) {
      local.push_back(v);
    } else if (server_.shard_cache(owner).cached(v)) {
      ++gst.remote_hits;
    } else {
      ++gst.remote_misses;
    }
  }
  if (!local.empty()) {
    const gnnone::GatherStats loc = fc.gather(local, ledger, nullptr);
    gst.hits = loc.hits;
    gst.misses = loc.misses;
  }
  return gst;
}

const gnnone::StageSpan* ServeReplay::modeled_forward_span(
    std::size_t b) const {
  for (const gnnone::StageSpan& s : report_.timeline) {
    if (s.batch == int(b) && s.stream == gnnone::kForwardStream) return &s;
  }
  return nullptr;
}

void ServeReplay::pass(SpanLog* run_log) {
  // The first pass is the checked one: spans, kernel launches (a
  // gpusim::Trace) and their re-issue. Later passes only time the stages,
  // untraced and without re-issued kernels between them evicting caches,
  // as serve() runs them.
  const bool first = totals_.passes == 0;
  SpanLog later;
  SpanLog* log = first ? run_log : &later;
  std::optional<gnnone::FeatureCache::ClockTxn> txn;
  if (server_.cache_policy() == gnnone::serve::CachePolicy::kClock &&
      !server_.sharded()) {
    txn.emplace(server_.cache());
  }
  std::map<std::string, gnnone::ModelConfig> cfgs;

  for (std::size_t b = 0; b < plan_.size(); ++b) {
    const ReplayBatch& rb = plan_[b];
    const std::string& kind =
        opts_.tenants.empty()
            ? opts_.model_kind
            : opts_.tenants[std::size_t(rb.tenant)].model_kind;
    if (!cfgs.count(kind)) {
      cfgs[kind] = gnnone::model_config_for(kind, in_dim_, ds_.num_classes);
    }
    const gnnone::ModelConfig& cfg = cfgs[kind];
    const int bi = int(b);
    const double tb = log->now_us();
    const int batch_span = log->add("batch", kReplayTrack, tb, tb, -1, bi);
    // The first pass records the batch's kernel launches; the Trace ends
    // before their re-issue, which must not be counted as the batch's.
    std::optional<gpusim::Trace> trace;
    if (first) trace.emplace();

    // Sample.
    Block blk = sample(rb);
    const double t1 = log->now_us();
    log->add("sample", kReplayTrack, tb, t1, batch_span, bi);

    // Gather: the batch's vertex dedup (an O(1)-lookup map built per batch,
    // as the server does), then the cache gather.
    std::unordered_map<vid_t, vid_t> slot;
    slot.reserve(blk.vertices.size());
    std::vector<vid_t> unique;
    unique.reserve(blk.vertices.size());
    for (vid_t g : blk.vertices) {
      if (slot.try_emplace(g, vid_t(unique.size())).second) {
        unique.push_back(g);
      }
    }
    const double t2 = log->now_us();
    gnnone::CycleLedger gather_ledger;
    const gnnone::GatherStats gst =
        gather(rb, unique, b, txn ? &*txn : nullptr, &gather_ledger);
    const double t3 = log->now_us();
    const int gather_span =
        log->add("gather", kReplayTrack, t1, t3, batch_span, bi);
    log->add("dedup", kReplayTrack, t1, t2, gather_span, bi);
    log->add("cache_gather", kReplayTrack, t2, t3, gather_span, bi);

    // Engine, model, forward.
    gnnone::SparseEngine engine(opts_.backend, blk.coo, dev_);
    engine.set_tuning_cache(opts_.tuning_cache);
    engine.set_online_tune(opts_.online_tune);
    const double t4 = log->now_us();
    log->add("engine", kReplayTrack, t3, t4, batch_span, bi);
    const auto model = gnnone::make_model(kind, engine, cfg);
    const double t5 = log->now_us();
    log->add("model", kReplayTrack, t4, t5, batch_span, bi);

    gnnone::CycleLedger fwd_ledger;
    gnnone::OpContext octx;
    octx.dev = &dev_;
    octx.ledger = &fwd_ledger;
    octx.training = false;
    const vid_t n = blk.coo.num_rows;
    const std::size_t f = std::size_t(in_dim_);
    std::vector<float> x_data(std::size_t(n) * f);
    for (std::size_t lv = 0; lv < std::size_t(n); ++lv) {
      std::copy_n(features_.begin() + long(std::size_t(blk.vertices[lv]) * f),
                  in_dim_, x_data.begin() + long(lv * f));
    }
    const gnnone::VarPtr x =
        gnnone::make_var(gnnone::Tensor::from(n, in_dim_, std::move(x_data)));
    const gnnone::VarPtr logp = model->forward(octx, engine, x, opts_.seed);
    std::vector<std::vector<int>> preds;
    for (const std::vector<vid_t>& rows : blk.seed_rows) {
      std::vector<int> out;
      for (vid_t lv : rows) {
        int best = 0;
        for (std::int64_t c = 1; c < logp->value.cols(); ++c) {
          if (logp->value.at(lv, c) > logp->value.at(lv, best)) best = int(c);
        }
        out.push_back(best);
      }
      preds.push_back(std::move(out));
    }
    const double t6 = log->now_us();
    const int fwd_span =
        log->add("forward", kReplayTrack, t5, t6, batch_span, bi);

    if (first) {
      // The forward's kernel launches, then their re-issue through Context.
      const std::vector<gpusim::TraceEvent> evs = trace->events();
      trace.reset();
      std::vector<std::uint64_t> recorded;
      for (const gpusim::TraceEvent& e : evs) recorded.push_back(e.stats.cycles);
      const gnnone::StageSpan* fs = modeled_forward_span(b);
      const double us_per_cycle = 1.0 / (dev_.sm_clock_ghz * 1e3);
      const double base = fs != nullptr ? double(fs->start) * us_per_cycle : 0.0;
      const int mspan = log->add(
          "forward", kModeledTrack, base,
          fs != nullptr ? double(fs->end) * us_per_cycle : base, fwd_span, bi);
      for (const gpusim::TraceEvent& e : evs) {
        const gpusim::KernelStats& ks = e.stats;
        const double s = base + double(e.start_cycle) * us_per_cycle;
        log->add(ks.label, kModeledTrack, s,
                 s + double(ks.cycles) * us_per_cycle, mspan, bi);
        totals_.kernels.add(ks);
      }
      const std::size_t reissued_before = totals_.reissued.cycles.size();
      reissue(ctx_, blk.coo, blk.coo, model_launch_shapes(kind, cfg, false),
              &totals_.reissued);
      const std::vector<std::uint64_t> reissued(
          totals_.reissued.cycles.begin() + long(reissued_before),
          totals_.reissued.cycles.end());
      totals_.reissue_matched += matching_cycles(recorded, reissued);
      totals_.reissue_count += long(reissued.size());
      const double t7 = log->now_us();
      log->add("reissue", kReplayTrack, t6, t7, batch_span, bi);
      log->set_end(batch_span, t7);

      const gnnone::BatchStats& bs = report_.batches[b];
      if (bs.num_vertices != blk.coo.num_rows ||
          bs.num_edges != blk.coo.nnz() ||
          std::size_t(bs.num_unique_vertices) != unique.size()) {
        ++totals_.block_mismatches;
      }
      totals_.sampled_edges += blk.sampled_edges;
      totals_.unique_vertices += long(unique.size());
      totals_.gather_cycles += gst.cycles;
      totals_.forward_cycles += fwd_ledger.total();
      totals_.hits += gst.hits;
      totals_.misses += gst.misses;
      totals_.remote_hits += gst.remote_hits;
      totals_.remote_misses += gst.remote_misses;
      for (std::size_t m = 0; m < rb.members.size(); ++m) {
        if (report_.predictions[rb.members[m]] != preds[m]) {
          totals_.predictions_match = false;
        }
      }
      continue;
    }
    log->set_end(batch_span, t6);

    totals_.sample_s += (t1 - tb) * 1e-6;
    totals_.dedup_s += (t2 - t1) * 1e-6;
    totals_.gather_s += (t3 - t2) * 1e-6;
    totals_.engine_s += (t4 - t3) * 1e-6;
    totals_.model_s += (t5 - t4) * 1e-6;
    totals_.forward_s += (t6 - t5) * 1e-6;
    totals_.batches += 1;
    totals_.requests += long(rb.members.size());
  }
  totals_.passes += 1;
}

}  // namespace perfbench
