#include "serve/shard.h"

#include <cmath>
#include <stdexcept>
#include <string>

namespace gnnone::serve {

const char* shard_role_name(ShardRole r) {
  switch (r) {
    case ShardRole::kSymmetric: return "symmetric";
    case ShardRole::kSampler:   return "sampler";
    case ShardRole::kForward:   return "forward";
  }
  return "unknown";
}

void ShardOptions::Validate() const {
  if (num_devices < 0) {
    throw std::invalid_argument(
        "ShardOptions: num_devices must be >= 0, got " +
        std::to_string(num_devices));
  }
  if (!enabled()) return;
  if (!roles.empty() && int(roles.size()) != num_devices) {
    throw std::invalid_argument(
        "ShardOptions: roles must be empty or list exactly num_devices "
        "entries (" +
        std::to_string(roles.size()) + " roles for " +
        std::to_string(num_devices) + " devices)");
  }
  bool any_sampler = false, any_forward = false;
  for (int d = 0; d < num_devices; ++d) {
    any_sampler = any_sampler || samples(d);
    any_forward = any_forward || forwards(d);
  }
  if (!any_sampler) {
    throw std::invalid_argument(
        "ShardOptions: at least one device must be sampler-capable "
        "(kSampler or kSymmetric) — someone has to own the graph");
  }
  if (!any_forward) {
    throw std::invalid_argument(
        "ShardOptions: at least one device must be forward-capable "
        "(kForward or kSymmetric) — someone has to run the model");
  }
  if (!std::isfinite(colocation_dilation) || colocation_dilation < 1.0) {
    throw std::invalid_argument(
        "ShardOptions: colocation_dilation must be finite and >= 1, got " +
        std::to_string(colocation_dilation));
  }
}

ShardMap::ShardMap(std::span<const vid_t> order,
                   std::span<const int> owner_devices) {
  if (order.empty()) {
    throw std::invalid_argument("ShardMap: vertex order must not be empty");
  }
  if (owner_devices.empty()) {
    throw std::invalid_argument("ShardMap: owner device list must not be "
                                "empty");
  }
  owners_.assign(owner_devices.begin(), owner_devices.end());
  const std::size_t n = order.size();
  const std::size_t k = owners_.size();
  owner_of_.assign(n, -1);
  counts_.assign(k, 0);
  // Near-equal contiguous slices of the ranking; the first n % k owners
  // take one extra vertex, so sizes differ by at most one and the split is
  // a pure function of (n, k).
  const std::size_t base = n / k, rem = n % k;
  std::size_t pos = 0;
  for (std::size_t s = 0; s < k; ++s) {
    const std::size_t take = base + (s < rem ? 1 : 0);
    for (std::size_t i = 0; i < take; ++i, ++pos) {
      const std::size_t v = std::size_t(order[pos]);
      if (v >= n || owner_of_[v] != -1) {
        throw std::invalid_argument(
            "ShardMap: order must rank every vertex exactly once");
      }
      owner_of_[v] = owners_[s];
    }
    counts_[s] = vid_t(take);
  }
}

vid_t ShardMap::owned_count(int device) const {
  for (std::size_t s = 0; s < owners_.size(); ++s) {
    if (owners_[s] == device) return counts_[s];
  }
  return 0;
}

}  // namespace gnnone::serve
