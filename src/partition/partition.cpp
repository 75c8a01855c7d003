#include "partition/partition.h"

#include <algorithm>
#include <queue>

#include "common/check.h"

namespace ripple {

Partition::Partition(std::size_t num_parts,
                     std::vector<std::uint32_t> part_of)
    : num_parts_(num_parts), part_of_(std::move(part_of)) {
  RIPPLE_CHECK(num_parts_ >= 1);
  for (const auto part : part_of_) {
    RIPPLE_CHECK_MSG(part < num_parts_, "part id " << part << " out of range");
  }
  rebuild_index();
}

void Partition::rebuild_index() {
  vertices_of_.assign(num_parts_, {});
  for (VertexId v = 0; v < part_of_.size(); ++v) {
    vertices_of_[part_of_[v]].push_back(v);
  }
}

std::size_t Partition::edge_cut(const DynamicGraph& graph) const {
  std::size_t cut = 0;
  for (VertexId u = 0; u < graph.num_vertices(); ++u) {
    const std::uint32_t pu = part_of(u);
    for (const Neighbor& nb : graph.out_neighbors(u)) {
      if (pu != part_of(nb.vertex)) ++cut;
    }
  }
  return cut;
}

double Partition::balance() const {
  if (part_of_.empty()) return 1.0;
  std::size_t largest = 0;
  for (const auto& part : vertices_of_) {
    largest = std::max(largest, part.size());
  }
  const double ideal = static_cast<double>(part_of_.size()) /
                       static_cast<double>(num_parts_);
  return static_cast<double>(largest) / ideal;
}

Partition hash_partition(std::size_t num_vertices, std::size_t num_parts) {
  std::vector<std::uint32_t> part_of(num_vertices);
  for (std::size_t v = 0; v < num_vertices; ++v) {
    part_of[v] = static_cast<std::uint32_t>(v % num_parts);
  }
  return Partition(num_parts, std::move(part_of));
}

Partition ldg_partition(const DynamicGraph& graph, std::size_t num_parts,
                        double capacity_slack) {
  const std::size_t n = graph.num_vertices();
  RIPPLE_CHECK(num_parts >= 1);
  const double capacity = capacity_slack * static_cast<double>(n) /
                          static_cast<double>(num_parts);
  std::vector<std::uint32_t> part_of(n, UINT32_MAX);
  std::vector<std::size_t> sizes(num_parts, 0);

  // BFS order over the union (in ∪ out) neighborhood so placed neighbors
  // are visible when a vertex streams in; restart from unvisited vertices.
  std::vector<std::uint8_t> visited(n, 0);
  std::vector<std::size_t> score(num_parts);
  std::queue<VertexId> queue;
  auto place = [&](VertexId v) {
    std::fill(score.begin(), score.end(), 0);
    for (const Neighbor& nb : graph.in_neighbors(v)) {
      if (part_of[nb.vertex] != UINT32_MAX) ++score[part_of[nb.vertex]];
    }
    for (const Neighbor& nb : graph.out_neighbors(v)) {
      if (part_of[nb.vertex] != UINT32_MAX) ++score[part_of[nb.vertex]];
    }
    // LDG objective: neighbors(p) * (1 - size(p)/capacity).
    double best = -1.0;
    std::size_t best_part = 0;
    for (std::size_t p = 0; p < num_parts; ++p) {
      const double remaining =
          1.0 - static_cast<double>(sizes[p]) / capacity;
      if (remaining <= 0) continue;
      const double value =
          (static_cast<double>(score[p]) + 1e-3) * remaining;
      if (value > best) {
        best = value;
        best_part = p;
      }
    }
    if (best < 0) {
      // All parts at capacity (possible with tight slack): take smallest.
      best_part = static_cast<std::size_t>(
          std::min_element(sizes.begin(), sizes.end()) - sizes.begin());
    }
    part_of[v] = static_cast<std::uint32_t>(best_part);
    ++sizes[best_part];
  };

  for (VertexId seed = 0; seed < n; ++seed) {
    if (visited[seed]) continue;
    visited[seed] = 1;
    queue.push(seed);
    while (!queue.empty()) {
      const VertexId v = queue.front();
      queue.pop();
      place(v);
      for (const Neighbor& nb : graph.out_neighbors(v)) {
        if (!visited[nb.vertex]) {
          visited[nb.vertex] = 1;
          queue.push(nb.vertex);
        }
      }
      for (const Neighbor& nb : graph.in_neighbors(v)) {
        if (!visited[nb.vertex]) {
          visited[nb.vertex] = 1;
          queue.push(nb.vertex);
        }
      }
    }
  }
  return Partition(num_parts, std::move(part_of));
}

std::size_t refine_partition(const DynamicGraph& graph, Partition& partition,
                             std::size_t max_passes, double capacity_slack) {
  const std::size_t n = graph.num_vertices();
  const std::size_t k = partition.num_parts();
  RIPPLE_CHECK(n == partition.num_vertices());
  const double capacity = capacity_slack * static_cast<double>(n) /
                          static_cast<double>(k);
  std::vector<std::uint32_t> part_of(n);
  std::vector<std::size_t> sizes(k, 0);
  for (VertexId v = 0; v < n; ++v) {
    part_of[v] = partition.part_of(v);
    ++sizes[part_of[v]];
  }

  std::size_t total_moves = 0;
  std::vector<std::size_t> gain(k);
  for (std::size_t pass = 0; pass < max_passes; ++pass) {
    std::size_t moves = 0;
    for (VertexId v = 0; v < n; ++v) {
      std::fill(gain.begin(), gain.end(), 0);
      for (const Neighbor& nb : graph.in_neighbors(v)) {
        ++gain[part_of[nb.vertex]];
      }
      for (const Neighbor& nb : graph.out_neighbors(v)) {
        ++gain[part_of[nb.vertex]];
      }
      const std::uint32_t current = part_of[v];
      std::uint32_t best = current;
      for (std::uint32_t p = 0; p < k; ++p) {
        if (p == current) continue;
        if (static_cast<double>(sizes[p]) + 1 > capacity) continue;
        if (gain[p] > gain[best]) best = p;
      }
      if (best != current && gain[best] > gain[current]) {
        part_of[v] = best;
        --sizes[current];
        ++sizes[best];
        ++moves;
      }
    }
    total_moves += moves;
    if (moves == 0) break;
  }
  partition = Partition(k, std::move(part_of));
  return total_moves;
}

std::size_t HaloIndex::total_boundary() const {
  std::size_t total = 0;
  for (const auto& part : boundary) total += part.size();
  return total;
}

std::size_t HaloIndex::total_halo() const {
  std::size_t total = 0;
  for (const auto& part : halo_in) total += part.size();
  return total;
}

LocalRowMap::LocalRowMap(const Partition& partition,
                         std::size_t num_vertices) {
  owned_.resize(partition.num_parts());
  extend(partition, num_vertices);
}

void LocalRowMap::extend(const Partition& partition,
                         std::size_t new_num_vertices) {
  RIPPLE_CHECK(partition.num_parts() == owned_.size());
  RIPPLE_CHECK(new_num_vertices >= local_of_.size());
  for (VertexId v = local_of_.size(); v < new_num_vertices; ++v) {
    const std::uint32_t p = partition.part_of(v);
    local_of_.push_back(static_cast<std::uint32_t>(owned_[p].size()));
    owned_[p].push_back(v);
  }
}

std::size_t LocalRowMap::bytes() const {
  std::size_t total = local_of_.capacity() * sizeof(std::uint32_t);
  for (const auto& part : owned_) total += part.capacity() * sizeof(VertexId);
  return total;
}

HaloIndex build_halo_index(const DynamicGraph& graph,
                           const Partition& partition) {
  const std::size_t k = partition.num_parts();
  HaloIndex halo;
  halo.boundary.resize(k);
  halo.halo_in.resize(k);
  std::vector<std::uint8_t> is_boundary(graph.num_vertices(), 0);
  // One pass over out-edges classifies both endpoints of every cut edge;
  // ascending-u iteration plus a final sort/unique keeps lists canonical.
  for (VertexId u = 0; u < graph.num_vertices(); ++u) {
    const std::uint32_t pu = partition.part_of(u);
    for (const Neighbor& nb : graph.out_neighbors(u)) {
      const std::uint32_t pv = partition.part_of(nb.vertex);
      if (pu == pv) continue;
      is_boundary[u] = 1;
      is_boundary[nb.vertex] = 1;
      halo.halo_in[pv].push_back(u);
    }
  }
  for (VertexId v = 0; v < graph.num_vertices(); ++v) {
    if (is_boundary[v]) halo.boundary[partition.part_of(v)].push_back(v);
  }
  for (auto& part : halo.halo_in) {
    std::sort(part.begin(), part.end());
    part.erase(std::unique(part.begin(), part.end()), part.end());
  }
  return halo;
}

}  // namespace ripple
