// Simulated device memory: allocation tracking with out-of-memory behaviour.
//
// Buffers live in ordinary host memory (the simulator runs in-process) but
// every allocation is registered with a DeviceMemory tracker so that the
// paper's OOM experiments (Fig. 6/7: DGL's dual-format storage exhausting the
// 40 GB card while GNNOne's single COO format fits) reproduce as real
// allocation failures rather than hard-coded outcomes.
#pragma once

#include <algorithm>
#include <cstddef>
#include <limits>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "gpusim/device.h"
#include "gpusim/sanitizer.h"

namespace gpusim {

/// Thrown when a simulated allocation exceeds the device capacity.
class DeviceOutOfMemory : public std::runtime_error {
 public:
  DeviceOutOfMemory(std::size_t requested, std::size_t in_use,
                    std::size_t capacity)
      : std::runtime_error("device out of memory: requested " +
                           std::to_string(requested) + " B with " +
                           std::to_string(in_use) + "/" +
                           std::to_string(capacity) + " B in use"),
        requested_(requested) {}
  std::size_t requested() const { return requested_; }

 private:
  std::size_t requested_;
};

/// Tracks simulated device-memory usage. Not thread-safe by itself, and it
/// does not need to be: allocation/release happen on the thread driving the
/// simulation (kernel *launch* order), which stays serial even when the
/// functional pass inside a launch fans CTAs out across host threads
/// (gpusim::set_host_threads / GNNONE_HOST_THREADS). Kernels never allocate
/// mid-launch, so the allocation sequence — and therefore fault-injection
/// ordering — is identical at every thread count.
///
/// Fault injection: tests drive the OOM error paths deterministically by
/// arming fail_at_allocation() (the n-th future allocate() throws) or
/// fail_above() (allocations pushing usage past a watermark throw), instead
/// of having to construct workloads that genuinely exhaust the capacity.
class DeviceMemory {
 public:
  explicit DeviceMemory(std::size_t capacity_bytes)
      : capacity_(capacity_bytes) {}

  /// Registers an allocation; throws DeviceOutOfMemory when it does not fit
  /// or an injected fault fires.
  void allocate(std::size_t bytes) {
    ++allocations_;
    const bool injected =
        (fail_at_ != 0 && allocations_ == fail_at_) ||
        in_use_ + bytes > fail_watermark_;
    if (injected || in_use_ + bytes > capacity_) {
      throw DeviceOutOfMemory(bytes, in_use_, capacity_);
    }
    in_use_ += bytes;
    peak_ = in_use_ > peak_ ? in_use_ : peak_;
  }

  /// Releasing more than is in use is an accounting bug (double release).
  /// Under an active Sanitizer it throws SanitizerError; otherwise the
  /// event is counted (release_underflows) and usage clamps to zero so
  /// legacy behaviour is preserved.
  void release(std::size_t bytes) {
    if (bytes > in_use_) {
      ++release_underflows_;
      const std::size_t was = in_use_;
      in_use_ = 0;
      if (Sanitizer* san = Sanitizer::active()) {
        san->on_release_underflow(bytes, was);  // records, then throws
      }
      return;
    }
    in_use_ -= bytes;
  }

  /// Arms a one-shot fault: the n-th allocate() from now (1-based) throws
  /// DeviceOutOfMemory regardless of capacity. n = 0 disarms.
  void fail_at_allocation(std::uint64_t nth) {
    fail_at_ = nth == 0 ? 0 : allocations_ + nth;
  }

  /// Any allocation that would push usage above `watermark_bytes` throws.
  void fail_above(std::size_t watermark_bytes) {
    fail_watermark_ = watermark_bytes;
  }

  /// Disarms all injected faults.
  void clear_faults() {
    fail_at_ = 0;
    fail_watermark_ = std::numeric_limits<std::size_t>::max();
  }

  std::size_t in_use() const { return in_use_; }
  std::size_t peak() const { return peak_; }
  /// Restarts the high-water mark at the current usage, so peak() reports
  /// the highest usage since this call (e.g. one serve's own peak).
  void reset_peak() { peak_ = in_use_; }
  std::size_t capacity() const { return capacity_; }
  /// Total allocate() calls observed (successful or not).
  std::uint64_t allocation_count() const { return allocations_; }
  /// Times release() was called with more bytes than were in use.
  std::uint64_t release_underflows() const { return release_underflows_; }

 private:
  std::size_t capacity_;
  std::size_t in_use_ = 0;
  std::size_t peak_ = 0;
  std::uint64_t allocations_ = 0;
  std::uint64_t release_underflows_ = 0;
  std::uint64_t fail_at_ = 0;
  std::size_t fail_watermark_ = std::numeric_limits<std::size_t>::max();
};

/// RAII registration of `bytes` against a tracker without owning storage —
/// for accounting workloads whose data lives elsewhere (e.g. the training
/// harness charging each of its allocation sites so injected OOM faults
/// unwind with no leaked bytes).
class DeviceAllocation {
 public:
  DeviceAllocation() = default;
  DeviceAllocation(DeviceMemory& mem, std::size_t bytes)
      : mem_(&mem), bytes_(bytes) {
    mem.allocate(bytes);
  }

  DeviceAllocation(const DeviceAllocation&) = delete;
  DeviceAllocation& operator=(const DeviceAllocation&) = delete;

  DeviceAllocation(DeviceAllocation&& other) noexcept
      : mem_(other.mem_), bytes_(other.bytes_) {
    other.mem_ = nullptr;
  }
  DeviceAllocation& operator=(DeviceAllocation&& other) noexcept {
    if (this != &other) {
      release();
      mem_ = other.mem_;
      bytes_ = other.bytes_;
      other.mem_ = nullptr;
    }
    return *this;
  }

  ~DeviceAllocation() { release(); }

  void release() {
    if (mem_ != nullptr) {
      mem_->release(bytes_);
      mem_ = nullptr;
    }
  }

  std::size_t bytes() const { return mem_ != nullptr ? bytes_ : 0; }

 private:
  DeviceMemory* mem_ = nullptr;
  std::size_t bytes_ = 0;
};

/// A typed device buffer. Owns host storage and a registration with a
/// DeviceMemory tracker (optional: a null tracker means "untracked scratch").
template <typename T>
class Buffer {
 public:
  Buffer() = default;

  explicit Buffer(std::size_t n, DeviceMemory* tracker = nullptr)
      : data_(n), tracker_(tracker) {
    if (tracker_ != nullptr) tracker_->allocate(bytes());
    if (Sanitizer* san = Sanitizer::active()) {
      san->track(data_.data(), bytes(), "Buffer");
    }
  }

  Buffer(const Buffer&) = delete;
  Buffer& operator=(const Buffer&) = delete;

  Buffer(Buffer&& other) noexcept { *this = std::move(other); }
  Buffer& operator=(Buffer&& other) noexcept {
    if (this != &other) {
      unregister();
      data_ = std::move(other.data_);
      tracker_ = other.tracker_;
      other.tracker_ = nullptr;
      other.data_.clear();
    }
    return *this;
  }

  ~Buffer() { unregister(); }

  std::size_t size() const { return data_.size(); }
  std::size_t bytes() const { return data_.size() * sizeof(T); }
  bool empty() const { return data_.empty(); }

  T* data() { return data_.data(); }
  const T* data() const { return data_.data(); }

  T& operator[](std::size_t i) { return data_[i]; }
  const T& operator[](std::size_t i) const { return data_[i]; }

  std::span<T> span() { return {data_.data(), data_.size()}; }
  std::span<const T> span() const { return {data_.data(), data_.size()}; }

  void fill(const T& v) { std::fill(data_.begin(), data_.end(), v); }

 private:
  void unregister() {
    if (Sanitizer* san = Sanitizer::active()) san->untrack(data_.data());
    if (tracker_ != nullptr) {
      // Swallow accounting errors here: the violation is already recorded
      // in the sanitizer report, and destructors must not throw.
      try {
        tracker_->release(bytes());
      } catch (const SanitizerError&) {
      }
      tracker_ = nullptr;
    }
  }

  std::vector<T> data_;
  DeviceMemory* tracker_ = nullptr;
};

}  // namespace gpusim
