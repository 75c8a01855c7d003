// Graph partitioning for distributed execution (§5.1).
//
// The paper uses METIS to balance vertex counts while minimizing edge cut.
// METIS is not available offline, so we provide (a) a hash partitioner
// (baseline, high cut), (b) an LDG-style linear deterministic greedy
// streaming partitioner in BFS order, and (c) a boundary refinement pass —
// together these reach the same qualitative regime (balanced parts,
// substantially reduced cut). The Partition type also accepts any external
// vertex→part assignment, so a real METIS output can be loaded.
#pragma once

#include <cstdint>
#include <vector>

#include "graph/dynamic_graph.h"

namespace ripple {

class Partition {
 public:
  Partition() = default;
  Partition(std::size_t num_parts, std::vector<std::uint32_t> part_of);

  std::size_t num_parts() const { return num_parts_; }
  std::size_t num_vertices() const { return part_of_.size(); }

  // Owning part of v. Vertices that join the stream after partitioning
  // (v >= num_vertices()) fall back to a deterministic hash assignment —
  // the same Fibonacci spreading rule the sharded mailbox uses — so every
  // replica of the partition routes them identically without a repartition.
  std::uint32_t part_of(VertexId v) const {
    if (v < part_of_.size()) return part_of_[v];
    if (num_parts_ <= 1) return 0;
    return static_cast<std::uint32_t>(fib_spread(v, num_parts_));
  }

  const std::vector<VertexId>& vertices_of(std::size_t part) const {
    return vertices_of_[part];
  }
  std::size_t part_size(std::size_t part) const {
    return vertices_of_[part].size();
  }

  // Number of directed edges whose endpoints live in different parts.
  // Vertices beyond the assignment table use the fallback rule, so the cut
  // of a stream-grown graph is well-defined.
  std::size_t edge_cut(const DynamicGraph& graph) const;

  // max part size / ideal part size (1.0 = perfectly balanced).
  double balance() const;

 private:
  void rebuild_index();

  std::size_t num_parts_ = 0;
  std::vector<std::uint32_t> part_of_;
  std::vector<std::vector<VertexId>> vertices_of_;
};

// Round-robin by vertex id: balanced but cut-oblivious.
Partition hash_partition(std::size_t num_vertices, std::size_t num_parts);

// Linear deterministic greedy (Stanton & Kliot): stream vertices in BFS
// order, assign each to the part with most already-placed neighbors,
// weighted by remaining capacity. capacity_slack > 1 loosens balance.
Partition ldg_partition(const DynamicGraph& graph, std::size_t num_parts,
                        double capacity_slack = 1.05);

// Greedy boundary refinement: moves a vertex to the neighboring part with
// the largest cut gain when balance allows. Returns the number of moves.
std::size_t refine_partition(const DynamicGraph& graph, Partition& partition,
                             std::size_t max_passes = 2,
                             double capacity_slack = 1.05);

// Boundary/halo structure of a partition over a concrete topology (§5.1):
// the vertex sets an owner-computes runtime replicates across machines.
// All lists are in ascending vertex id order and duplicate-free.
struct HaloIndex {
  // boundary[p]: vertices owned by p with at least one cut edge (either
  // direction) — the vertices whose Δh may have to leave the machine.
  std::vector<std::vector<VertexId>> boundary;
  // halo_in[p]: remote vertices with an edge INTO p's owned set — the stub
  // cells p materializes so remote deltas land in a local mailbox.
  std::vector<std::vector<VertexId>> halo_in;

  std::size_t total_boundary() const;
  std::size_t total_halo() const;
};

HaloIndex build_halo_index(const DynamicGraph& graph,
                           const Partition& partition);

// Stable global→local row addressing for per-rank state. Each partition's
// owned vertices get dense local row ids 0..part_size-1 assigned in
// ascending global id order, so a rank can store only its owned embedding/
// cache rows. The map is stable under growth: extend() assigns fresh local
// ids to newly arrived vertices (using the partition's fallback routing for
// post-partition ids) without renumbering any existing row — live matrix
// rows never move.
class LocalRowMap {
 public:
  LocalRowMap() = default;
  LocalRowMap(const Partition& partition, std::size_t num_vertices);

  // Appends local ids for vertices [num_vertices(), new_num_vertices).
  void extend(const Partition& partition, std::size_t new_num_vertices);

  std::size_t num_vertices() const { return local_of_.size(); }
  std::size_t num_parts() const { return owned_.size(); }

  // Local row id of v within its owning partition's state.
  std::uint32_t local_of(VertexId v) const { return local_of_[v]; }

  // Raw global→local table (indexed by global vertex id) for kernels that
  // remap rows in a tight loop (core/hop_kernel.h's local_row parameter).
  const std::uint32_t* local_rows() const { return local_of_.data(); }

  // Owned vertices of `part`, position == local row id: dense and in
  // ascending global id order (extend() appends arrivals, whose ids exceed
  // every present one).
  const std::vector<VertexId>& owned(std::size_t part) const {
    return owned_[part];
  }
  std::size_t part_size(std::size_t part) const {
    return owned_[part].size();
  }

  std::size_t bytes() const;

 private:
  std::vector<std::uint32_t> local_of_;     // index: global vertex id
  std::vector<std::vector<VertexId>> owned_;  // per part, local id -> global
};

}  // namespace ripple
