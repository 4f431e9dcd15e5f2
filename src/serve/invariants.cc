#include "serve/invariants.h"

#include <algorithm>
#include <cstdint>

namespace gnnone::serve {

namespace {

std::string num(std::uint64_t v) { return std::to_string(v); }

void check_timeline(const ServingReport& rep, const InferenceServer& server,
                    std::vector<std::string>* out) {
  std::uint64_t exposed = 0, span_end = 0;
  for (const StageSpan& s : rep.timeline) {
    if (s.exposed + s.overlapped != s.cycles()) {
      out->push_back("timeline: span of batch " + std::to_string(s.batch) +
                     " stream " + std::to_string(s.stream) +
                     " exposed + overlapped != its cycles");
    }
    exposed += s.exposed;
    span_end = std::max(span_end, s.end);
  }
  if (rep.devices.size() != std::size_t(server.shard_devices())) {
    out->push_back("timeline: " + std::to_string(rep.devices.size()) +
                   " device reports for " +
                   std::to_string(server.shard_devices()) + " shard devices");
  }
  if (rep.devices.empty()) {
    if (exposed + rep.idle_cycles != rep.total_cycles) {
      out->push_back("timeline: exposed " + num(exposed) + " + idle " +
                     num(rep.idle_cycles) + " != makespan " +
                     num(rep.total_cycles));
    }
  } else {
    std::uint64_t slowest = 0, idle = 0, device_exposed = 0;
    for (const DeviceShardReport& d : rep.devices) {
      if (d.exposed_cycles + d.idle_cycles != d.makespan) {
        out->push_back("timeline: device " + std::to_string(d.device) +
                       " exposed " + num(d.exposed_cycles) + " + idle " +
                       num(d.idle_cycles) + " != makespan " +
                       num(d.makespan));
      }
      slowest = std::max(slowest, d.makespan);
      idle += d.idle_cycles;
      device_exposed += d.exposed_cycles;
    }
    if (rep.total_cycles != slowest) {
      out->push_back("timeline: total_cycles " + num(rep.total_cycles) +
                     " != slowest device makespan " + num(slowest));
    }
    if (idle != rep.idle_cycles || device_exposed != exposed) {
      out->push_back("timeline: device reports disagree with the spans");
    }
  }
  if (span_end != rep.total_cycles) {
    out->push_back("timeline: last span ends at " + num(span_end) +
                   ", total_cycles is " + num(rep.total_cycles));
  }
}

void check_bytes(const ServingReport& rep, const InferenceServer& server,
                 std::vector<std::string>* out) {
  std::size_t unique = 0;
  for (const BatchStats& b : rep.batches) {
    unique += std::size_t(b.num_unique_vertices);
  }
  const std::size_t expect = unique * server.cache().row_bytes();
  const std::size_t got = rep.cache_hit_bytes + rep.cache_miss_bytes +
                          rep.remote_hit_bytes + rep.remote_miss_bytes;
  if (got != expect) {
    out->push_back("gather: hit + miss + remote bytes " + num(got) +
                   " != unique vertices x row bytes " + num(expect));
  }
}

void check_cycles(const ServingReport& rep, std::vector<std::string>* out) {
  std::uint64_t sum = 0;
  for (std::size_t i = 0; i < rep.batches.size(); ++i) {
    const BatchStats& b = rep.batches[i];
    if (b.cycles != b.sample_cycles + b.gather.cycles + b.forward_cycles +
                        b.backoff_cycles + b.handoff_cycles) {
      out->push_back("cycles: batch " + std::to_string(i) +
                     " cycles != its stages + backoff + handoff");
    }
    sum += b.cycles;
  }
  if (sum != rep.ledger.total() || rep.serial_cycles != rep.ledger.total()) {
    out->push_back("cycles: batch sum " + num(sum) + ", ledger " +
                   num(rep.ledger.total()) + ", serial_cycles " +
                   num(rep.serial_cycles) + " differ");
  }
}

void check_outcomes(const ServingReport& rep, std::vector<std::string>* out) {
  int ok = 0, degraded = 0, failed = 0, rejected = 0;
  for (std::size_t r = 0; r < rep.outcomes.size(); ++r) {
    const Status s = rep.outcomes[r].status;
    ok += s == Status::kOk ? 1 : 0;
    degraded += s == Status::kDegraded ? 1 : 0;
    rejected += s == Status::kRejected ? 1 : 0;
    failed += !is_served(s) && s != Status::kRejected ? 1 : 0;
    if (r < rep.predictions.size() &&
        rep.predictions[r].empty() == is_served(s)) {
      out->push_back("outcomes: request " + std::to_string(r) +
                     " predictions disagree with its status");
    }
  }
  if (ok + degraded + failed + rejected != rep.num_requests ||
      rep.predictions.size() != rep.outcomes.size()) {
    out->push_back("outcomes: " + std::to_string(rep.outcomes.size()) +
                   " outcomes do not tile " +
                   std::to_string(rep.num_requests) + " requests");
  }
  if (rep.tenants.empty()) return;
  // Per tenant: served (degraded included) + failed + rejected tiles its
  // requests, and the tenants together account for every served, degraded
  // and failed request; only out-of-table rejections belong to no tenant.
  int served = 0, t_degraded = 0, t_failed = 0, t_rejected = 0, requests = 0;
  for (const TenantReport& t : rep.tenants) {
    if (t.served + t.failed + t.rejected != t.requests ||
        t.degraded > t.served) {
      out->push_back("outcomes: tenant " + std::to_string(t.tenant) +
                     " counts do not tile its requests");
    }
    served += t.served;
    t_degraded += t.degraded;
    t_failed += t.failed;
    t_rejected += t.rejected;
    requests += t.requests;
  }
  if (served != ok + degraded || t_degraded != degraded ||
      t_failed != failed || t_rejected > rejected ||
      requests + (rejected - t_rejected) != rep.num_requests) {
    out->push_back("outcomes: tenant reports do not cover every request");
  }
}

}  // namespace

std::vector<std::string> check_invariants(const ServingReport& rep,
                                          const InferenceServer& server) {
  std::vector<std::string> out;
  check_timeline(rep, server, &out);
  check_bytes(rep, server, &out);
  check_cycles(rep, &out);
  check_outcomes(rep, &out);
  return out;
}

}  // namespace gnnone::serve
