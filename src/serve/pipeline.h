// Per-stream cycle timeline for pipelined serving.
//
// The serving driver's three stages — CPU-side sampling, the feature-gather
// copy, and the device forward pass — map onto three streams, the way a real
// GNN inference server overlaps host sampling and H2D transfers with the
// previous batch's kernels (gSuite's inference characterization; GPGPU-Sim's
// stream-level concurrency model). Each stage of each batch occupies one
// StageSpan [start, end) on its stream; the schedule is built from the
// per-batch stage cycles the serial cost model already produces, so
// pipelining changes *when* modeled work runs, never how much.
//
// Attribution: after the schedule is built, every span's cycles are split
// into `exposed` (this span is the attributed occupant of the wall-clock
// interval) and `overlapped` (hidden behind a concurrent span on a
// higher-priority stream — forward > gather > sample). Every busy instant of
// the timeline is attributed to exactly one span, and the pipeline
// recurrences leave no idle gaps before the makespan, so
//
//   sum over spans of exposed == makespan,
//   exposed + overlapped     == span cycles   (per span),
//
// which is what lets a report quote total_cycles = makespan while still
// accounting for every stage cycle. (Open-loop schedules with per-batch
// release cycles are the one extension: waiting for traffic opens idle gaps
// no span occupies, tracked exactly by idle_cycles(), and the tiling becomes
// Sigma exposed + idle == makespan — still exact, with idle == 0 for every
// closed-loop schedule.)
#pragma once

#include <cstdint>
#include <span>
#include <vector>

namespace gnnone {

/// Streams of the serving pipeline, in attribution-priority order: a cycle
/// where several streams are busy is exposed on the highest-numbered one.
inline constexpr int kSampleStream = 0;
inline constexpr int kGatherStream = 1;
inline constexpr int kForwardStream = 2;
inline constexpr int kNumServeStreams = 3;

/// One stage occupancy of one stream.
struct StageSpan {
  int batch = 0;
  int stream = 0;
  std::uint64_t start = 0;
  std::uint64_t end = 0;  // start + stage cycles
  /// Filled by StreamTimeline::attribute().
  std::uint64_t exposed = 0;
  std::uint64_t overlapped = 0;

  std::uint64_t cycles() const { return end - start; }
};

/// An append-only schedule of stage spans over a fixed set of streams. A
/// stream runs its spans in placement order and never overlaps with itself;
/// spans on different streams may overlap freely.
class StreamTimeline {
 public:
  explicit StreamTimeline(int num_streams)
      : stream_free_(std::size_t(num_streams), 0) {}

  /// Places `cycles` on `stream`, starting no earlier than `ready` and no
  /// earlier than the stream's previous span's end. Zero-cycle stages get a
  /// zero-length span so indexing stays uniform. Returns the span index.
  std::size_t place(int stream, int batch, std::uint64_t ready,
                    std::uint64_t cycles);

  /// When the stream's last placed span ends (0 if none).
  std::uint64_t stream_free(int stream) const {
    return stream_free_[std::size_t(stream)];
  }

  const StageSpan& span(std::size_t i) const { return spans_[i]; }
  const std::vector<StageSpan>& spans() const { return spans_; }

  /// Latest span end across all streams (0 for an empty timeline).
  std::uint64_t makespan() const;

  /// Cycles before the makespan during which *no* stream is busy — the
  /// server idling for the next arrival in an open-loop schedule. Valid
  /// after attribute(): makespan == Sigma exposed + idle_cycles exactly.
  std::uint64_t idle_cycles() const { return idle_cycles_; }

  /// Splits every span's cycles into exposed vs overlapped (header comment).
  /// Idempotent; call after the schedule is complete.
  void attribute();

 private:
  std::vector<std::uint64_t> stream_free_;
  std::vector<StageSpan> spans_;
  std::uint64_t idle_cycles_ = 0;
};

/// Per-batch stage costs, as the serial cost model measures them, and the
/// devices the stages run on.
struct BatchStageCycles {
  std::uint64_t sample = 0;
  std::uint64_t gather = 0;
  std::uint64_t forward = 0;
  /// Earliest cycle the batch may start (open-loop serving: the scheduler's
  /// cut cycle, which is >= every member's arrival). 0 — the closed-loop
  /// default — reproduces the pre-tenant schedule exactly. A positive
  /// release can open genuine idle gaps in the timeline (the server waiting
  /// for traffic); attribute() leaves those unattributed, so with releases
  /// the tiling invariant becomes Sigma exposed + idle == makespan
  /// (StreamTimeline::idle_cycles), with idle == 0 whenever every release
  /// is 0.
  std::uint64_t release = 0;
  /// Device running the sample + gather stages, and device running the
  /// forward (indices into place_batches' timelines; 0 on one device).
  int sampler_device = 0;
  int forward_device = 0;
};

/// Places every batch's stage spans on one StreamTimeline per device
/// (kNumServeStreams streams each) and attributes them. A batch is two work
/// items: PREP (sample then gather, on its sampler device) and FWD (the
/// forward, on its forward device, once PREP is done). Items commit in
/// globally nondecreasing start order, ties to the lower batch id, and a
/// device's spans are laid out in commit order.
///
/// Serial mode: a device runs one stage at a time, so every item waits for
/// the device's previous span. One device chains every stage behind the
/// previous one (makespan == sum of all stage cycles); several devices run
/// concurrently, each a serial list schedule over its own items.
///
/// Pipelined mode: a device's three streams run concurrently, staging its
/// batches through a three-slot software pipeline — one slot sampling, one
/// gathering (or gathered, waiting), one forwarding — so sample/gather of
/// batch b+1 overlap with forward of batch b:
///
///   sample[b]  starts when the sample stream is free and the device's
///              batch two before b has retired (its slot is the one batch b
///              reuses);
///   gather[b]  starts when sample[b] is done and the gather stream is free;
///   forward[b] starts when gather[b] is done and the forward stream is free.
///
/// A batch forwarded on its own sampler device takes its forward slot right
/// behind its gather, so each such device runs exactly the single-device
/// pipeline over its own batches, batch-major. The schedule is
/// work-conserving, so on those devices the pipelined makespan never exceeds
/// the serial one and the saving is bounded by the sample+gather cycles
/// available to hide (attribute() proves both per run; the bench
/// expectations pin them). A handed-off batch's forward joins its forward
/// device's stream as a list-scheduled item.
///
/// In both modes a batch's sample span starts no earlier than its `release`
/// cycle (0 for closed-loop batches): an open-loop server cannot work on
/// requests that have not arrived.
std::vector<StreamTimeline> place_batches(
    std::span<const BatchStageCycles> batches, int num_devices,
    bool pipelined);

/// place_batches on one device: span index 3 * batch + stream, batch-major.
StreamTimeline serve_timeline(std::span<const BatchStageCycles> batches,
                              bool pipelined);

}  // namespace gnnone
