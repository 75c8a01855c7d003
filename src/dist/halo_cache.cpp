#include "dist/halo_cache.h"

#include <algorithm>

#include "common/check.h"

namespace ripple {

HaloCache::HaloCache(std::vector<std::size_t> widths)
    : widths_(std::move(widths)) {
  data_.resize(widths_.size());
  version_.resize(widths_.size());
}

std::uint32_t HaloCache::ensure(VertexId v) {
  const auto it = slot_of_.find(v);
  if (it != slot_of_.end()) return it->second;
  std::uint32_t slot;
  if (!free_.empty()) {
    slot = free_.back();
    free_.pop_back();
    for (std::size_t l = 0; l < widths_.size(); ++l) {
      std::fill_n(data_[l].begin() + slot * widths_[l], widths_[l], 0.0f);
      version_[l][slot] = 0;
    }
  } else {
    slot = static_cast<std::uint32_t>(num_slots_++);
    for (std::size_t l = 0; l < widths_.size(); ++l) {
      data_[l].resize(num_slots_ * widths_[l], 0.0f);
      version_[l].resize(num_slots_, 0);
    }
  }
  slot_of_.emplace(v, slot);
  return slot;
}

void HaloCache::erase(VertexId v) {
  const auto it = slot_of_.find(v);
  if (it == slot_of_.end()) return;
  // Keep free_ sorted descending: ensure() pops from the back, so the
  // SMALLEST retired slot is reused first and high slots stay free long
  // enough for the trailing trim below to release them.
  const auto pos = std::lower_bound(free_.begin(), free_.end(), it->second,
                                    std::greater<std::uint32_t>());
  free_.insert(pos, it->second);
  slot_of_.erase(it);
  // A run of free slots at the tail holds no live row: dropping it moves
  // nothing, so a shrinking halo (cut-edge deletes) actually releases
  // storage instead of pinning its high-water forever.
  while (!free_.empty() && free_.front() == num_slots_ - 1) {
    free_.erase(free_.begin());
    --num_slots_;
    for (std::size_t l = 0; l < widths_.size(); ++l) {
      data_[l].resize(num_slots_ * widths_[l]);
      version_[l].resize(num_slots_);
    }
  }
}

std::span<float> HaloCache::row(VertexId v, std::size_t layer) {
  const auto it = slot_of_.find(v);
  RIPPLE_CHECK_MSG(it != slot_of_.end(), "halo miss for vertex " << v);
  return std::span<float>(data_[layer].data() + it->second * widths_[layer],
                          widths_[layer]);
}

std::span<const float> HaloCache::row(VertexId v, std::size_t layer) const {
  const auto it = slot_of_.find(v);
  RIPPLE_CHECK_MSG(it != slot_of_.end(), "halo miss for vertex " << v);
  return std::span<const float>(
      data_[layer].data() + it->second * widths_[layer], widths_[layer]);
}

bool HaloCache::write_through(VertexId v, std::size_t layer,
                              std::span<const float> data,
                              std::uint64_t version) {
  const auto it = slot_of_.find(v);
  RIPPLE_CHECK_MSG(it != slot_of_.end(), "halo miss for vertex " << v);
  RIPPLE_CHECK(data.size() == widths_[layer]);
  std::uint64_t& stamp = version_[layer][it->second];
  if (version <= stamp) return false;
  stamp = version;
  std::copy(data.begin(), data.end(),
            data_[layer].begin() + it->second * widths_[layer]);
  return true;
}

std::uint64_t HaloCache::version(VertexId v, std::size_t layer) const {
  const auto it = slot_of_.find(v);
  RIPPLE_CHECK_MSG(it != slot_of_.end(), "halo miss for vertex " << v);
  return version_[layer][it->second];
}

std::size_t HaloCache::bytes() const {
  // Live storage (size, matching Matrix::bytes()): the trailing trim in
  // erase() shrinks these vectors, and the footprint metric must see it.
  std::size_t total = free_.size() * sizeof(std::uint32_t);
  for (const auto& layer : data_) total += layer.size() * sizeof(float);
  for (const auto& layer : version_) {
    total += layer.size() * sizeof(std::uint64_t);
  }
  // unordered_map node estimate: key + value + hash-node overhead, plus the
  // bucket array.
  total += slot_of_.size() * (sizeof(VertexId) + sizeof(std::uint32_t) +
                              2 * sizeof(void*));
  total += slot_of_.bucket_count() * sizeof(void*);
  return total;
}

}  // namespace ripple
