#include "core/mailbox.h"

#include <bit>

#include "common/check.h"

namespace ripple {

namespace {

constexpr std::size_t kWordBits = 64;

std::size_t word_of(VertexId v) { return v / kWordBits; }
std::uint64_t bit_of(VertexId v) { return std::uint64_t{1} << (v % kWordBits); }

// Calls emit(v) for each set bit of bitmap word w, lowest id first.
template <typename Emit>
void emit_set_bits(std::uint64_t bits, std::size_t w, const Emit& emit) {
  while (bits != 0) {
    emit(static_cast<VertexId>(w * kWordBits + std::countr_zero(bits)));
    bits &= bits - 1;
  }
}

}  // namespace

Mailbox::Mailbox(std::size_t dim, std::size_t num_vertices,
                 std::size_t num_shards)
    : dim_(dim), slots_(num_vertices, kNoSlot) {
  RIPPLE_CHECK_MSG(num_shards >= 1, "mailbox needs at least one shard");
  shards_.resize(num_shards);
  const std::size_t words = (num_vertices + kWordBits - 1) / kWordBits;
  for (Shard& shard : shards_) shard.present.assign(words, 0);
}

std::size_t Mailbox::size() const {
  std::size_t total = 0;
  for (const Shard& shard : shards_) total += shard.size();
  return total;
}

bool Mailbox::empty() const {
  for (const Shard& shard : shards_) {
    if (!shard.vertices.empty()) return false;
  }
  return true;
}

Mailbox::Shard& Mailbox::mutable_shard(VertexId v) {
  RIPPLE_CHECK_MSG(v < slots_.size(), "vertex " << v
                                                << " outside the mailbox range "
                                                << slots_.size());
  return shards_[shard_of(v)];
}

std::uint32_t Mailbox::slot_of(Shard& shard, VertexId v) {
  std::uint32_t& slot = slots_[v];
  if (slot == kNoSlot) {
    slot = static_cast<std::uint32_t>(shard.size());
    shard.vertices.push_back(v);
    shard.deltas.resize(shard.deltas.size() + dim_, 0.0f);
    shard.touched.push_back(0);
    shard.self.push_back(0);
    shard.present[word_of(v)] |= bit_of(v);
  }
  return slot;
}

void Mailbox::accumulate(VertexId v, float alpha,
                         std::span<const float> h_new,
                         std::span<const float> h_old) {
  Shard& shard = mutable_shard(v);
  const std::uint32_t slot = slot_of(shard, v);
  shard.touched[slot] = 1;
  const std::span<float> delta(shard.deltas.data() + slot * dim_, dim_);
  if (!h_new.empty()) {
    RIPPLE_CHECK(h_new.size() == dim_);
    vec_axpy(delta, alpha, h_new);
  }
  if (!h_old.empty()) {
    RIPPLE_CHECK(h_old.size() == dim_);
    vec_axpy(delta, -alpha, h_old);
  }
}

void Mailbox::mark_self_changed(VertexId v) {
  Shard& shard = mutable_shard(v);
  shard.self[slot_of(shard, v)] = 1;
}

void Mailbox::adopt(VertexId v, std::span<const float> delta, bool touched,
                    bool self) {
  RIPPLE_CHECK(delta.size() == dim_);
  Shard& shard = mutable_shard(v);
  const std::uint32_t slot = slot_of(shard, v);
  vec_copy(delta, std::span<float>(shard.deltas.data() + slot * dim_, dim_));
  if (touched) shard.touched[slot] = 1;
  if (self) shard.self[slot] = 1;
}

bool Mailbox::contains(VertexId v) const {
  return v < slots_.size() && slots_[v] != kNoSlot;
}

std::optional<Mailbox::CellView> Mailbox::find(VertexId v) const {
  if (!contains(v)) return std::nullopt;
  const Shard& shard = shards_[shard_of(v)];
  const std::uint32_t slot = slots_[v];
  return CellView{
      .delta_agg = std::span<const float>(shard.deltas.data() + slot * dim_,
                                          dim_),
      .touched_agg = shard.touched[slot] != 0,
      .self_changed = shard.self[slot] != 0,
  };
}

Mailbox::EntryView Mailbox::entry(VertexId v) {
  Shard& shard = mutable_shard(v);
  const std::uint32_t slot = slot_of(shard, v);
  return EntryView{
      .delta_agg = std::span<float>(shard.deltas.data() + slot * dim_, dim_),
      .touched_agg = shard.touched[slot] != 0,
      .self_changed = shard.self[slot] != 0,
  };
}

std::vector<std::size_t> Mailbox::shard_sizes() const {
  std::vector<std::size_t> sizes(shards_.size());
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    sizes[s] = shards_[s].size();
  }
  return sizes;
}

void Mailbox::sorted_vertices(std::vector<VertexId>& out) const {
  out.clear();
  const std::size_t total = size();
  out.reserve(total);
  const std::size_t words = shards_[0].present.size();
  // Stops at the last cell instead of scanning the rest of the range.
  for (std::size_t w = 0; w < words && out.size() < total; ++w) {
    std::uint64_t bits = 0;
    for (const Shard& shard : shards_) bits |= shard.present[w];
    emit_set_bits(bits, w, [&](VertexId v) { out.push_back(v); });
  }
}

void Mailbox::sorted_slots(std::size_t s,
                           std::vector<std::uint32_t>& out) const {
  const Shard& shard = shards_[s];
  out.clear();
  out.reserve(shard.size());
  for (std::size_t w = 0; w < shard.present.size() && out.size() < shard.size();
       ++w) {
    emit_set_bits(shard.present[w], w,
                  [&](VertexId v) { out.push_back(slots_[v]); });
  }
}

void Mailbox::clear() {
  for (Shard& shard : shards_) {
    for (const VertexId v : shard.vertices) {
      slots_[v] = kNoSlot;
      shard.present[word_of(v)] = 0;
    }
    shard.vertices.clear();
    shard.deltas.clear();
    shard.touched.clear();
    shard.self.clear();
  }
}

std::size_t Mailbox::bytes() const {
  std::size_t total = sizeof(Shard) * shards_.size();
  total += slots_.capacity() * sizeof(std::uint32_t);
  for (const Shard& shard : shards_) {
    // Capacity, not size: the memory is resident.
    total += shard.present.capacity() * sizeof(std::uint64_t);
    total += shard.vertices.capacity() * sizeof(VertexId);
    total += shard.deltas.capacity() * sizeof(float);
    total += shard.touched.capacity() + shard.self.capacity();
  }
  return total;
}

}  // namespace ripple
