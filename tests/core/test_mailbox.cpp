#include "core/mailbox.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

namespace ripple {
namespace {

// Vertex-id range of the mailboxes below (the dense index size).
constexpr std::size_t kVertices = 1000;

TEST(Mailbox, EntryCreatedLazily) {
  Mailbox box(3, kVertices);
  EXPECT_TRUE(box.empty());
  box.entry(5);
  EXPECT_EQ(box.size(), 1u);
  EXPECT_EQ(box.entry(5).delta_agg.size(), 3u);
}

TEST(Mailbox, AccumulateNewMinusOld) {
  Mailbox box(2, kVertices);
  const std::vector<float> h_new = {3.0f, 4.0f};
  const std::vector<float> h_old = {1.0f, 1.0f};
  box.accumulate(0, 1.0f, h_new, h_old);
  const auto& entry = box.entry(0);
  EXPECT_TRUE(entry.touched_agg);
  EXPECT_FLOAT_EQ(entry.delta_agg[0], 2.0f);
  EXPECT_FLOAT_EQ(entry.delta_agg[1], 3.0f);
}

TEST(Mailbox, EdgeAddOnlyNewContribution) {
  Mailbox box(2, kVertices);
  const std::vector<float> h_new = {5.0f, -1.0f};
  box.accumulate(1, 2.0f, h_new, {});
  EXPECT_FLOAT_EQ(box.entry(1).delta_agg[0], 10.0f);
  EXPECT_FLOAT_EQ(box.entry(1).delta_agg[1], -2.0f);
}

TEST(Mailbox, EdgeDeleteOnlyOldRetraction) {
  Mailbox box(2, kVertices);
  const std::vector<float> h_old = {5.0f, -1.0f};
  box.accumulate(1, 1.0f, {}, h_old);
  EXPECT_FLOAT_EQ(box.entry(1).delta_agg[0], -5.0f);
  EXPECT_FLOAT_EQ(box.entry(1).delta_agg[1], 1.0f);
}

TEST(Mailbox, MessagesCommute) {
  // Accumulation must be order-invariant (permutation invariance, §4.3.1).
  const std::vector<float> a_new = {1.0f, 2.0f};
  const std::vector<float> a_old = {0.5f, 0.5f};
  const std::vector<float> b_new = {-3.0f, 4.0f};
  const std::vector<float> b_old = {1.0f, 0.0f};
  Mailbox ab(2, kVertices);
  ab.accumulate(0, 1.0f, a_new, a_old);
  ab.accumulate(0, 2.0f, b_new, b_old);
  Mailbox ba(2, kVertices);
  ba.accumulate(0, 2.0f, b_new, b_old);
  ba.accumulate(0, 1.0f, a_new, a_old);
  for (std::size_t j = 0; j < 2; ++j) {
    EXPECT_NEAR(ab.entry(0).delta_agg[j], ba.entry(0).delta_agg[j], 1e-6f);
  }
}

TEST(Mailbox, SelfChannelIndependentOfAgg) {
  Mailbox box(2, kVertices);
  box.mark_self_changed(3);
  const auto& entry = box.entry(3);
  EXPECT_TRUE(entry.self_changed);
  EXPECT_FALSE(entry.touched_agg);
  EXPECT_FLOAT_EQ(entry.delta_agg[0], 0.0f);
}

TEST(Mailbox, ClearEmptiesEntries) {
  Mailbox box(1, kVertices);
  box.accumulate(0, 1.0f, std::vector<float>{1.0f}, {});
  box.accumulate(9, 1.0f, std::vector<float>{2.0f}, {});
  EXPECT_EQ(box.size(), 2u);
  box.clear();
  EXPECT_TRUE(box.empty());
}

TEST(Mailbox, DimMismatchThrows) {
  Mailbox box(3, kVertices);
  const std::vector<float> wrong = {1.0f, 2.0f};
  EXPECT_THROW(box.accumulate(0, 1.0f, wrong, {}), check_error);
}

TEST(Mailbox, BytesGrowWithEntries) {
  Mailbox box(8, kVertices);
  const auto empty_bytes = box.bytes();
  box.entry(1);
  box.entry(2);
  EXPECT_GT(box.bytes(), empty_bytes);
}

TEST(Mailbox, BytesCountDenseIndex) {
  // bytes() must cover the cells' dense payload (delta floats + vertex ids
  // + flags) AND the dense index: one slot entry per vertex in the range
  // plus one presence bitmap per shard.
  constexpr std::size_t kShards = 4;
  Mailbox box(16, kVertices, kShards);
  const std::size_t index =
      kVertices * sizeof(std::uint32_t) +
      kShards * ((kVertices + 63) / 64) * sizeof(std::uint64_t);
  EXPECT_GE(box.bytes(), index);
  for (VertexId v = 0; v < 64; ++v) box.entry(v);
  const std::size_t dense_payload =
      64 * (16 * sizeof(float) + sizeof(VertexId) + 2);
  EXPECT_GE(box.bytes(), dense_payload + index);
}

TEST(Mailbox, ShardOfIsStableAndInRange) {
  Mailbox box(2, kVertices, 8);
  EXPECT_EQ(box.num_shards(), 8u);
  for (VertexId v = 0; v < 1000; ++v) {
    const auto s = box.shard_of(v);
    EXPECT_LT(s, 8u);
    EXPECT_EQ(s, box.shard_of(v));  // pure function of (v, num_shards)
  }
}

TEST(Mailbox, ShardSizesSumToTotal) {
  Mailbox box(2, kVertices, 4);
  const std::vector<float> h = {1.0f, 2.0f};
  for (VertexId v = 0; v < 100; ++v) box.accumulate(v, 1.0f, h, {});
  std::size_t total = 0;
  for (std::size_t s = 0; s < box.num_shards(); ++s) {
    total += box.shard(s).size();
    for (const VertexId v : box.shard(s).vertices) {
      EXPECT_EQ(box.shard_of(v), s);
    }
  }
  EXPECT_EQ(total, box.size());
  EXPECT_EQ(total, 100u);
}

TEST(Mailbox, ShardedAccumulationMatchesFlat) {
  // The same message sequence must produce bit-identical cells for any
  // shard count (sharding only changes placement, never values).
  Mailbox flat(3, kVertices, 1);
  Mailbox sharded(3, kVertices, 8);
  for (int i = 0; i < 200; ++i) {
    const auto v = static_cast<VertexId>((i * 37) % 50);
    const float alpha = 0.5f + 0.01f * static_cast<float>(i % 7);
    const std::vector<float> h_new = {1.1f * i, -0.3f * i, 2.0f};
    const std::vector<float> h_old = {0.2f * i, 0.0f, -1.0f};
    flat.accumulate(v, alpha, h_new, h_old);
    sharded.accumulate(v, alpha, h_new, h_old);
  }
  ASSERT_EQ(flat.size(), sharded.size());
  std::vector<VertexId> order;
  flat.sorted_vertices(order);
  for (const VertexId v : order) {
    ASSERT_TRUE(sharded.contains(v));
    const auto a = flat.entry(v);
    const auto b = sharded.entry(v);
    for (std::size_t j = 0; j < 3; ++j) {
      EXPECT_EQ(a.delta_agg[j], b.delta_agg[j]) << "v=" << v << " j=" << j;
    }
  }
}

TEST(Mailbox, SortedVerticesAscendingAndComplete) {
  Mailbox box(1, kVertices, 8);
  const std::vector<VertexId> inserted = {90, 3, 41, 7, 500, 12, 0};
  for (const VertexId v : inserted) {
    box.accumulate(v, 1.0f, std::vector<float>{1.0f}, {});
  }
  std::vector<VertexId> order;
  box.sorted_vertices(order);
  ASSERT_EQ(order.size(), inserted.size());
  EXPECT_TRUE(std::is_sorted(order.begin(), order.end()));
  for (const VertexId v : inserted) {
    EXPECT_TRUE(std::binary_search(order.begin(), order.end(), v));
  }
}

TEST(Mailbox, SortedSlotsOrderShardByVertexId) {
  Mailbox box(1, kVertices, 2);
  for (const VertexId v : {44, 2, 17, 100, 5}) {
    box.mark_self_changed(v);
  }
  std::vector<std::uint32_t> slots;
  for (std::size_t s = 0; s < box.num_shards(); ++s) {
    const auto& shard = box.shard(s);
    box.sorted_slots(s, slots);
    ASSERT_EQ(slots.size(), shard.size());
    for (std::size_t i = 1; i < slots.size(); ++i) {
      EXPECT_LT(shard.vertices[slots[i - 1]], shard.vertices[slots[i]]);
    }
  }
}

TEST(Mailbox, ClearRetainsShardStructure) {
  Mailbox box(2, kVertices, 4);
  box.accumulate(1, 1.0f, std::vector<float>{1.0f, 2.0f}, {});
  box.clear();
  EXPECT_TRUE(box.empty());
  EXPECT_EQ(box.num_shards(), 4u);
  // Usable again after clear.
  box.accumulate(9, 1.0f, std::vector<float>{3.0f, 4.0f}, {});
  EXPECT_EQ(box.size(), 1u);
  EXPECT_FLOAT_EQ(box.entry(9).delta_agg[1], 4.0f);
}

TEST(Mailbox, OutOfRangeVertexThrows) {
  // The dense arrays cover [0, num_vertices) only: every writer must reject
  // an id outside it instead of writing past them, and readers report it
  // absent.
  Mailbox box(2, 100, 4);
  const std::vector<float> h = {1.0f, 2.0f};
  for (const VertexId v : {VertexId{100}, VertexId{4096}, kInvalidVertex}) {
    EXPECT_THROW(box.accumulate(v, 1.0f, h, {}), check_error) << v;
    EXPECT_THROW(box.mark_self_changed(v), check_error) << v;
    EXPECT_THROW(box.adopt(v, h, true, true), check_error) << v;
    EXPECT_THROW(box.entry(v), check_error) << v;
    EXPECT_FALSE(box.contains(v)) << v;
    EXPECT_FALSE(box.find(v).has_value()) << v;
  }
  EXPECT_TRUE(box.empty());
  box.accumulate(99, 1.0f, h, {});  // the last id in range is fine
  EXPECT_TRUE(box.contains(99));
}

TEST(Mailbox, OrdersAscendingAcrossBitmapWordBoundaries) {
  // Ids on both sides of 64-bit bitmap word boundaries plus the last id of
  // the range, inserted out of order.
  constexpr std::size_t kN = 200;
  const std::vector<VertexId> inserted = {128, kN - 1, 63, 0, 127, 64};
  for (const std::size_t shards : {std::size_t{1}, std::size_t{8}}) {
    SCOPED_TRACE(shards);
    Mailbox box(1, kN, shards);
    for (const VertexId v : inserted) {
      box.accumulate(v, 1.0f, std::vector<float>{1.0f}, {});
    }
    std::vector<VertexId> order;
    box.sorted_vertices(order);
    std::vector<VertexId> expected = inserted;
    std::sort(expected.begin(), expected.end());
    EXPECT_EQ(order, expected);

    std::size_t drained = 0;
    std::vector<std::uint32_t> slots;
    for (std::size_t s = 0; s < box.num_shards(); ++s) {
      const Mailbox::Shard& shard = box.shard(s);
      box.sorted_slots(s, slots);
      ASSERT_EQ(slots.size(), shard.size());
      std::vector<VertexId> drain;
      for (const std::uint32_t slot : slots) {
        drain.push_back(shard.vertices[slot]);
      }
      std::vector<VertexId> mine = shard.vertices;
      std::sort(mine.begin(), mine.end());
      EXPECT_EQ(drain, mine) << "shard " << s;
      drained += drain.size();
    }
    EXPECT_EQ(drained, inserted.size());
  }
}

TEST(Mailbox, ClearThenReinsertStartsFromZeroCell) {
  // A vertex reused after clear() must get a fresh zero cell: no stale
  // slot, delta, flag or presence bit from the previous hop.
  Mailbox box(2, 200, 4);
  const std::vector<float> h = {5.0f, -3.0f};
  for (const VertexId v : {VertexId{7}, VertexId{64}, VertexId{150}}) {
    box.accumulate(v, 2.0f, h, {});
    box.mark_self_changed(v);
  }
  box.clear();
  EXPECT_TRUE(box.empty());
  EXPECT_FALSE(box.contains(64));
  std::vector<VertexId> order;
  box.sorted_vertices(order);
  EXPECT_TRUE(order.empty());

  box.accumulate(64, 1.0f, std::vector<float>{1.0f, 1.0f}, {});
  EXPECT_EQ(box.size(), 1u);
  const auto cell = box.find(64);
  ASSERT_TRUE(cell.has_value());
  EXPECT_EQ(cell->delta_agg[0], 1.0f);
  EXPECT_EQ(cell->delta_agg[1], 1.0f);
  EXPECT_TRUE(cell->touched_agg);
  EXPECT_FALSE(cell->self_changed);
  box.sorted_vertices(order);
  EXPECT_EQ(order, std::vector<VertexId>{64});
  const std::size_t s = box.shard_of(64);
  std::vector<std::uint32_t> slots;
  box.sorted_slots(s, slots);
  ASSERT_EQ(slots.size(), 1u);
  EXPECT_EQ(box.shard(s).vertices[slots[0]], 64u);
}

}  // namespace
}  // namespace ripple
