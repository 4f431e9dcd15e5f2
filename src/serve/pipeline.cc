#include "serve/pipeline.h"

#include <algorithm>
#include <limits>

namespace gnnone {

std::size_t StreamTimeline::place(int stream, int batch, std::uint64_t ready,
                                  std::uint64_t cycles) {
  const std::uint64_t start =
      std::max(ready, stream_free_[std::size_t(stream)]);
  StageSpan s;
  s.batch = batch;
  s.stream = stream;
  s.start = start;
  s.end = start + cycles;
  stream_free_[std::size_t(stream)] = s.end;
  spans_.push_back(s);
  return spans_.size() - 1;
}

std::uint64_t StreamTimeline::makespan() const {
  std::uint64_t m = 0;
  for (const StageSpan& s : spans_) m = std::max(m, s.end);
  return m;
}

void StreamTimeline::attribute() {
  // Sweep the elementary intervals between span boundaries. Every span
  // covers a whole number of elementary intervals, so within one interval
  // the active set is constant; the active span on the highest-numbered
  // stream is the exposed occupant, everything else active is overlapped.
  std::vector<std::uint64_t> bounds;
  bounds.reserve(2 * spans_.size() + 1);
  bounds.push_back(0);  // idle before the first span counts toward idle too
  for (StageSpan& s : spans_) {
    s.exposed = 0;
    s.overlapped = 0;
    if (s.start < s.end) {
      bounds.push_back(s.start);
      bounds.push_back(s.end);
    }
  }
  std::sort(bounds.begin(), bounds.end());
  bounds.erase(std::unique(bounds.begin(), bounds.end()), bounds.end());

  idle_cycles_ = 0;
  for (std::size_t i = 0; i + 1 < bounds.size(); ++i) {
    const std::uint64_t lo = bounds[i], hi = bounds[i + 1];
    StageSpan* winner = nullptr;
    for (StageSpan& s : spans_) {
      if (s.start <= lo && s.end >= hi && s.start < s.end) {
        if (winner == nullptr || s.stream > winner->stream) winner = &s;
      }
    }
    if (winner == nullptr) {
      // Idle gap: attributed to nobody, accounted exactly — open-loop
      // schedules wait for arrivals, and the tiling invariant is
      // Sigma exposed + idle == makespan.
      idle_cycles_ += hi - lo;
      continue;
    }
    for (StageSpan& s : spans_) {
      if (s.start <= lo && s.end >= hi && s.start < s.end) {
        (&s == winner ? s.exposed : s.overlapped) += hi - lo;
      }
    }
  }
}

std::vector<StreamTimeline> place_batches(
    std::span<const BatchStageCycles> batches, int num_devices,
    bool pipelined) {
  const std::size_t nd = std::size_t(num_devices), nb = batches.size();
  std::vector<StreamTimeline> tls(nd, StreamTimeline(kNumServeStreams));
  // Per device: its batches in sampling order (ascending id) with the next
  // one to prepare, and the prepared batches whose forward is list-scheduled
  // here.
  std::vector<std::vector<std::size_t>> preps(nd), waiting(nd);
  std::vector<std::size_t> next_prep(nd, 0);
  std::vector<std::uint64_t> prep_end(nb, 0), retired(nb, 0);
  std::vector<char> forwarded(nb, 0);
  for (std::size_t b = 0; b < nb; ++b) {
    preps[std::size_t(batches[b].sampler_device)].push_back(b);
  }

  // When `stream` of device d can next start work: a serial device runs one
  // stage at a time.
  const auto free_at = [&](std::size_t d, int stream) {
    const StreamTimeline& tl = tls[d];
    if (pipelined) return tl.stream_free(stream);
    return std::max({tl.stream_free(kSampleStream),
                     tl.stream_free(kGatherStream),
                     tl.stream_free(kForwardStream)});
  };
  const auto place_forward = [&](std::size_t b, std::uint64_t ready) {
    StreamTimeline& tl = tls[std::size_t(batches[b].forward_device)];
    retired[b] =
        tl.span(tl.place(kForwardStream, int(b), ready, batches[b].forward))
            .end;
    forwarded[b] = 1;
  };

  for (std::size_t left = nb; left > 0;) {
    std::uint64_t best_start = std::numeric_limits<std::uint64_t>::max();
    std::size_t best = 0, best_dev = 0;
    bool best_is_prep = false;
    const auto consider = [&](std::uint64_t start, std::size_t b,
                              std::size_t d, bool is_prep) {
      if (start < best_start || (start == best_start && b < best)) {
        best_start = start;
        best = b;
        best_dev = d;
        best_is_prep = is_prep;
      }
    };
    for (std::size_t d = 0; d < nd; ++d) {
      const std::size_t k = next_prep[d];
      if (k < preps[d].size()) {
        // Pipelined: the slot batch k reuses frees when batch k-2 retires.
        const std::size_t b = preps[d][k];
        if (!pipelined || k < 2 || forwarded[preps[d][k - 2]]) {
          std::uint64_t start =
              std::max(batches[b].release, free_at(d, kSampleStream));
          if (pipelined && k >= 2) {
            start = std::max(start, retired[preps[d][k - 2]]);
          }
          consider(start, b, d, true);
        }
      }
      for (std::size_t b : waiting[d]) {
        consider(std::max(prep_end[b], free_at(d, kForwardStream)), b, d,
                 false);
      }
    }

    const std::size_t b = best;
    const BatchStageCycles& c = batches[b];
    if (!best_is_prep) {
      std::vector<std::size_t>& w = waiting[best_dev];
      w.erase(std::find(w.begin(), w.end(), b));
      place_forward(b, best_start);
      --left;
      continue;
    }
    StreamTimeline& tl = tls[best_dev];
    const std::size_t is =
        tl.place(kSampleStream, int(b), best_start, c.sample);
    const std::size_t ig =
        tl.place(kGatherStream, int(b), tl.span(is).end, c.gather);
    prep_end[b] = tl.span(ig).end;
    ++next_prep[best_dev];
    if (pipelined && c.forward_device == c.sampler_device) {
      place_forward(b, prep_end[b]);
      --left;
    } else {
      waiting[std::size_t(c.forward_device)].push_back(b);
    }
  }
  for (StreamTimeline& tl : tls) tl.attribute();
  return tls;
}

StreamTimeline serve_timeline(std::span<const BatchStageCycles> batches,
                              bool pipelined) {
  return std::move(place_batches(batches, 1, pipelined).front());
}

}  // namespace gnnone
