// Per-hop mailboxes (§4.3): each vertex accumulates incremental messages
// from its impacted in-neighbors at the previous hop.
//
// A message carries the delta needed to nullify a sender's old contribution
// and include its new one: Δagg = Σ α(u,v)·(h_u_new − h_u_old). Because the
// aggregation functions are commutative, messages accumulate in any order
// (tested by the batch-order invariance property tests). The self channel
// flags that the vertex's own previous-layer embedding changed, which forces
// re-evaluation of Update functions with a self term (SAGE, GIN) even when
// no in-neighbor message arrived.
//
// Dense, sharded layout. Vertex ids form a fixed range [0, num_vertices)
// for an engine's lifetime (updates never add vertices), so cells are
// found through one dense vertex → slot array instead of a hash map. The
// mailbox is split into N shards keyed by a vertex-id hash; each shard owns
// dense slot-major buffers (a delta buffer of slot · dim floats, per-slot
// touched/self flags, slot → vertex) plus a presence bitmap over the vertex
// range. The vertex → slot array is shared by all shards, but a vertex
// belongs to exactly one shard, so each element still has a single writer.
// The layout serves the shard-parallel propagation core
// (core/ripple_engine.cpp):
//   * the seed/update phase accumulates into shards without any global
//     structure growing a hot lock;
//   * the compute phase scatters messages owner-computes style — the worker
//     that owns target shard s is the only writer of shard s (its buffers,
//     its bitmap and its vertices' slot entries), so no locks are needed;
//   * the apply phase drains shards in deterministic order: slots in
//     ascending vertex id within each shard (a scan of the shard's bitmap),
//     shards in index order, giving reproducible float accumulation for any
//     shard/thread count. sorted_vertices() ORs the shard bitmaps, so both
//     orders come out ascending by construction, with no sort.
// clear() resets only the slot entries and bitmap words the hop touched,
// so it costs O(cells), not O(num_vertices).
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "graph/types.h"
#include "tensor/ops.h"

namespace ripple {

class Mailbox {
 public:
  // One hash shard: dense slot-major storage plus its presence bitmap.
  struct Shard {
    std::vector<VertexId> vertices;     // slot → vertex (insertion order)
    std::vector<float> deltas;          // slot-major, dim floats per slot
    std::vector<std::uint8_t> touched;  // any aggregate-changing message
    std::vector<std::uint8_t> self;     // own h^{l-1} changed (self channel)
    std::vector<std::uint64_t> present;  // bit v set iff v has a slot here

    std::size_t size() const { return vertices.size(); }
  };

  // Read/write view of one vertex's accumulator cell (test hook; the engine
  // works on whole shards).
  struct EntryView {
    std::span<float> delta_agg;  // Σ of incoming Δ contributions
    bool touched_agg = false;    // any aggregate-changing message arrived
    bool self_changed = false;   // own h^{l-1} changed (self channel)
  };

  // Read-only view of an existing cell (see find()).
  struct CellView {
    std::span<const float> delta_agg;
    bool touched_agg = false;
    bool self_changed = false;
  };

  // dim: width of the previous-layer embeddings this hop aggregates.
  // num_vertices: size of the vertex-id range [0, num_vertices) the dense
  // index covers; every cell's vertex must lie inside it.
  // num_shards: hash shards; 1 reproduces a single flat mailbox.
  Mailbox(std::size_t dim, std::size_t num_vertices,
          std::size_t num_shards = 1);

  std::size_t dim() const { return dim_; }
  std::size_t num_shards() const { return shards_.size(); }
  std::size_t size() const;
  bool empty() const;

  // Owning shard of v: pure function of (v, num_shards), independent of
  // insertion history — the owner-computes contract of the compute phase.
  std::size_t shard_of(VertexId v) const {
    if (shards_.size() == 1) return 0;
    return fib_spread(v, shards_.size());
  }

  // Accumulates alpha * (h_new - h_old) into v's cell. h_old may be empty
  // (edge addition: no prior contribution); h_new may be empty (deletion).
  // Thread-safety: safe to call concurrently for vertices of DIFFERENT
  // shards (single writer per shard); never for the same shard.
  // Throws check_error when v lies outside [0, num_vertices).
  void accumulate(VertexId v, float alpha, std::span<const float> h_new,
                  std::span<const float> h_old);

  // Marks the self channel without touching the aggregate. Same shard-owner
  // thread-safety contract and range check as accumulate().
  void mark_self_changed(VertexId v);

  // Copies another cell's accumulated state into v's cell BIT-EXACTLY:
  // delta is copied, not added (0.0f + x would lose the sign of a negative
  // zero), and the flags are ORed in. The async engine uses this to relocate
  // a vertex's batch-seed cell into the per-wave apply box so the wave's
  // accumulation continues from exactly the bits the BSP schedule would
  // have. Same shard-owner thread-safety contract and range check as
  // accumulate().
  void adopt(VertexId v, std::span<const float> delta, bool touched,
             bool self);

  // False for vertices without a cell, including out-of-range ids.
  bool contains(VertexId v) const;

  // v's cell, or nullopt when v has none (or lies out of range).
  std::optional<CellView> find(VertexId v) const;

  // Creates v's cell if absent and returns a view of it.
  EntryView entry(VertexId v);

  const Shard& shard(std::size_t s) const { return shards_[s]; }

  // Per-shard pending-slot counts — the cost vector that guides the
  // work-stealing scheduler's LPT seeding of apply tasks (a shard's drain
  // cost is proportional to its affected-vertex count).
  std::vector<std::size_t> shard_sizes() const;

  // Fills `out` with all mailbox vertices in ascending id order — the
  // canonical sender enumeration the propagation core uses so that float
  // accumulation order is identical for every shard/thread count. `out` is
  // caller-owned so its capacity carries over from hop to hop.
  void sorted_vertices(std::vector<VertexId>& out) const;

  // Fills `out` with shard s's slots in ascending vertex id order — the
  // deterministic drain order.
  void sorted_slots(std::size_t s, std::vector<std::uint32_t>& out) const;

  // Drops all cells; retains shard capacity for the next hop.
  void clear();

  // Resident bytes: the dense index (vertex → slot array and the shard
  // bitmaps) plus every shard's slot-major buffers, by capacity.
  std::size_t bytes() const;

 private:
  static constexpr std::uint32_t kNoSlot = ~std::uint32_t{0};

  // Owning shard of v after the range check every writer goes through.
  Shard& mutable_shard(VertexId v);
  std::uint32_t slot_of(Shard& shard, VertexId v);

  std::size_t dim_;
  std::vector<std::uint32_t> slots_;  // vertex → slot in its shard, or kNoSlot
  std::vector<Shard> shards_;
};

}  // namespace ripple
