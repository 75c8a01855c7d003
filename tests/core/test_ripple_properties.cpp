// Property-based sweeps over the incremental engine's invariants:
//  1. Exactness: after any valid update sequence, embeddings == full
//     layer-wise recompute (within FP tolerance).
//  2. Batch-order invariance: permuting feature-only updates within a batch
//     changes nothing.
//  3. Batching invariance: one batch of N updates == N batches of 1.
//  4. Benefit model: incremental op count stays far below the recompute
//     op count on high-degree graphs (§4.3.3).
//  5. Determinism: the shard-parallel propagation core produces
//     bit-identical embeddings and identical BatchResult counters for any
//     shard count and any thread count (the sequential 1-shard/no-pool
//     configuration is the reference).
#include <gtest/gtest.h>

#include <thread>
#include <tuple>

#include "../test_util.h"
#include "common/thread_pool.h"
#include "core/ripple_engine.h"
#include "infer/recompute.h"
#include "infer/affected.h"
#include "stream/generator.h"

namespace ripple {
namespace {

using PropertyParam = std::tuple<Workload, std::size_t /*layers*/,
                                 std::uint64_t /*seed*/>;

class RippleExactness : public ::testing::TestWithParam<PropertyParam> {};

TEST_P(RippleExactness, RandomStreamStaysExact) {
  const auto [workload, num_layers, seed] = GetParam();
  const bool weighted = workload == Workload::gc_w;
  auto graph = testing::random_graph(60, 420, seed, weighted);
  const auto features = testing::random_features(60, 8, seed + 1);
  const auto config = workload_config(workload, 8, 4, num_layers, 10);
  const auto model = GnnModel::random(config, seed + 2);

  StreamConfig stream_config;
  stream_config.num_updates = 90;
  stream_config.feat_dim = 8;
  stream_config.seed = seed + 3;
  const auto stream = generate_stream(graph, stream_config);

  RippleEngine engine(model, graph, features);
  auto truth_graph = graph;
  Matrix truth_features = features;
  for (const auto& batch : make_batches(stream, 7)) {
    engine.apply_batch(batch);
    for (const auto& update : batch) {
      switch (update.kind) {
        case UpdateKind::edge_add:
          truth_graph.add_edge(update.u, update.v, update.weight);
          break;
        case UpdateKind::edge_del:
          truth_graph.remove_edge(update.u, update.v);
          break;
        case UpdateKind::vertex_feature:
          vec_copy(update.new_features, truth_features.row(update.u));
          break;
      }
    }
    const auto truth =
        testing::full_inference_truth(model, truth_graph, truth_features);
    ASSERT_LT(testing::max_store_diff(engine.embeddings(), truth), 2e-3f)
        << workload_name(workload) << " L=" << num_layers << " seed=" << seed;
  }
}

std::vector<PropertyParam> exactness_grid() {
  std::vector<PropertyParam> grid;
  for (Workload w : all_workloads()) {
    for (std::size_t layers : {1u, 2u, 3u}) {
      grid.emplace_back(w, layers, 100 + layers);
    }
  }
  // Extra random seeds on the flagship workload.
  for (std::uint64_t seed : {500u, 600u, 700u}) {
    grid.emplace_back(Workload::gc_s, 2, seed);
  }
  return grid;
}

INSTANTIATE_TEST_SUITE_P(
    Grid, RippleExactness, ::testing::ValuesIn(exactness_grid()),
    [](const auto& info) {
      auto name = std::string(workload_name(std::get<0>(info.param))) + "_L" +
                  std::to_string(std::get<1>(info.param)) + "_s" +
                  std::to_string(std::get<2>(info.param));
      for (auto& ch : name) {
        if (ch == '-') ch = '_';
      }
      return name;
    });

TEST(RippleProperties, FeatureUpdateOrderWithinBatchIrrelevant) {
  auto graph = testing::random_graph(30, 180, 41);
  const auto features = testing::random_features(30, 6, 42);
  const auto config = workload_config(Workload::gs_s, 6, 3, 2, 8);
  const auto model = GnnModel::random(config, 43);

  Rng rng(44);
  std::vector<GraphUpdate> batch;
  for (VertexId v = 0; v < 8; ++v) {
    std::vector<float> f(6);
    for (auto& x : f) x = rng.next_float(-1.0f, 1.0f);
    batch.push_back(GraphUpdate::vertex_feature(v, std::move(f)));
  }
  auto reversed = batch;
  std::reverse(reversed.begin(), reversed.end());

  RippleEngine forward(model, graph, features);
  forward.apply_batch(batch);
  RippleEngine backward(model, graph, features);
  backward.apply_batch(reversed);
  EXPECT_LT(testing::max_store_diff(forward.embeddings(),
                                    backward.embeddings()),
            1e-4f);
}

TEST(RippleProperties, OneBatchEqualsManySingletons) {
  auto graph = testing::random_graph(40, 280, 45);
  const auto features = testing::random_features(40, 6, 46);
  const auto config = workload_config(Workload::gc_s, 6, 3, 2, 8);
  const auto model = GnnModel::random(config, 47);

  StreamConfig stream_config;
  stream_config.num_updates = 30;
  stream_config.feat_dim = 6;
  stream_config.seed = 48;
  const auto stream = generate_stream(graph, stream_config);

  RippleEngine bulk(model, graph, features);
  bulk.apply_batch(stream);
  RippleEngine stepwise(model, graph, features);
  for (const auto& batch : make_batches(stream, 1)) {
    stepwise.apply_batch(batch);
  }
  EXPECT_LT(
      testing::max_store_diff(bulk.embeddings(), stepwise.embeddings()),
      1e-3f);
}

TEST(RippleProperties, IncrementalOpsBeatRecomputeOnDenseGraph) {
  // §4.3.3: RC performs k aggregation ops per affected vertex; Ripple 2k'.
  // On a dense graph with singleton updates, k' == 1 while k ≈ avg degree,
  // so Ripple's op count must be dramatically smaller than Σ in-degrees of
  // the affected sets.
  auto graph = testing::random_graph(100, 3000, 49);  // avg in-degree 30
  const auto features = testing::random_features(100, 6, 50);
  const auto config = workload_config(Workload::gc_s, 6, 3, 2, 8);
  const auto model = GnnModel::random(config, 51);
  RippleEngine engine(model, graph, features);
  RecomputeEngine rc(model, graph, features);

  StreamConfig stream_config;
  stream_config.num_updates = 20;
  stream_config.feat_dim = 6;
  stream_config.seed = 52;
  auto working = graph;
  const auto stream = generate_stream(working, stream_config);

  // RC's aggregation cost: every affected vertex at every hop pulls ALL of
  // its in-neighbors (k ops). Ripple's counter tracks its 2k'-style ops.
  std::uint64_t rc_pull_ops = 0;
  for (const auto& batch : make_batches(stream, 1)) {
    engine.apply_batch(batch);
    rc.apply_batch(batch);
    const auto affected =
        compute_affected_sets(rc.graph(), batch, 2, /*uses_self=*/false);
    for (const auto& hop : affected) {
      for (VertexId v : hop) rc_pull_ops += rc.graph().in_degree(v);
    }
  }
  // §4.3.3: k' << k, so Ripple's op count must be well below RC's.
  EXPECT_LT(engine.incremental_ops(), rc_pull_ops / 2);
}

TEST(RippleDeterminism, BitIdenticalForAnySchedulerShardAndThreadCount) {
  // The shard-parallel core fixes float accumulation order (canonical
  // ascending-sender-id message order, single writer per mailbox shard), so
  // embeddings must match the sequential reference EXACTLY — zero
  // tolerance — for every shard count, pooled or not, and the BatchResult
  // counters and the incremental-op tally must be identical too. The
  // scheduler only decides WHICH worker runs a task.
  // Covers a no-self-term workload (GC), a self-term one (SAGE), and the
  // mean aggregator whose apply phase divides by the live in-degree.
  const std::size_t hardware =
      std::max<std::size_t>(2, std::thread::hardware_concurrency());
  ThreadPool pool(std::max<std::size_t>(4, hardware));
  for (const Workload workload :
       {Workload::gc_s, Workload::gs_s, Workload::gc_m}) {
    auto graph = testing::random_graph(80, 600, 910);
    const auto features = testing::random_features(80, 8, 911);
    const auto config = workload_config(workload, 8, 4, 3, 12);
    const auto model = GnnModel::random(config, 912);

    StreamConfig stream_config;
    stream_config.num_updates = 120;
    stream_config.feat_dim = 8;
    stream_config.seed = 913;
    const auto stream = generate_stream(graph, stream_config);

    // Sequential reference: one shard, no pool.
    RippleOptions ref_options;
    ref_options.num_shards = 1;
    RippleEngine reference(model, graph, features, nullptr, ref_options);
    std::vector<BatchResult> ref_results;
    for (const auto& batch : make_batches(stream, 10)) {
      ref_results.push_back(reference.apply_batch(batch));
    }

    for (const std::size_t shards : {std::size_t{1}, std::size_t{2},
                                     std::size_t{8}}) {
      for (ThreadPool* p : {static_cast<ThreadPool*>(nullptr), &pool}) {
        RippleOptions options;
        options.num_shards = shards;
        RippleEngine engine(model, graph, features, p, options);
        EXPECT_EQ(engine.num_shards(), shards);
        std::size_t b = 0;
        for (const auto& batch : make_batches(stream, 10)) {
          const BatchResult result = engine.apply_batch(batch);
          ASSERT_EQ(result.propagation_tree_size,
                    ref_results[b].propagation_tree_size)
              << workload_name(workload) << " shards=" << shards
              << " pooled=" << (p != nullptr) << " batch=" << b;
          ASSERT_EQ(result.affected_final, ref_results[b].affected_final)
              << workload_name(workload) << " shards=" << shards
              << " pooled=" << (p != nullptr) << " batch=" << b;
          ++b;
        }
        EXPECT_EQ(testing::max_store_diff(reference.embeddings(),
                                          engine.embeddings()),
                  0.0f)
            << workload_name(workload) << " shards=" << shards
            << " pooled=" << (p != nullptr);
        EXPECT_EQ(engine.incremental_ops(), reference.incremental_ops())
            << workload_name(workload) << " shards=" << shards
            << " pooled=" << (p != nullptr);
      }
    }
  }
}

TEST(RippleDeterminism, BitIdenticalAcrossKernelModes) {
  // The SIMD kernel tiers (tensor/kernels.h) vectorize across the output
  // axis only and never fuse multiply-add, so --kernels=scalar and
  // --kernels=auto must produce bit-identical embeddings — across shard
  // counts and pool on/off. On a host whose auto dispatch resolves to
  // scalar this degenerates to the determinism test above (still worth
  // running: it exercises the mode toggle).
  const KernelMode saved = kernel_mode();
  ThreadPool pool(4);
  for (const Workload workload :
       {Workload::gc_s, Workload::gs_s, Workload::gi_s}) {
    auto graph = testing::random_graph(70, 520, 940);
    const auto features = testing::random_features(70, 9, 941);  // odd dim
    const auto config = workload_config(workload, 9, 5, 2, 13);
    const auto model = GnnModel::random(config, 942);

    StreamConfig stream_config;
    stream_config.num_updates = 90;
    stream_config.feat_dim = 9;
    stream_config.seed = 943;
    const auto stream = generate_stream(graph, stream_config);

    set_kernel_mode(KernelMode::kScalar);
    RippleOptions ref_options;
    ref_options.num_shards = 1;
    RippleEngine reference(model, graph, features, nullptr, ref_options);
    for (const auto& batch : make_batches(stream, 9)) {
      reference.apply_batch(batch);
    }

    set_kernel_mode(KernelMode::kAuto);
    for (const std::size_t shards : {std::size_t{1}, std::size_t{2},
                                     std::size_t{8}}) {
      for (ThreadPool* p : {static_cast<ThreadPool*>(nullptr), &pool}) {
        RippleOptions options;
        options.num_shards = shards;
        RippleEngine engine(model, graph, features, p, options);
        for (const auto& batch : make_batches(stream, 9)) {
          engine.apply_batch(batch);
        }
        EXPECT_EQ(testing::max_store_diff(reference.embeddings(),
                                          engine.embeddings()),
                  0.0f)
            << workload_name(workload) << " kernels=auto ("
            << kernel_isa_name(active_kernel_isa())
            << ") vs scalar, shards=" << shards << " pooled=" << (p != nullptr);
      }
    }
  }
  set_kernel_mode(saved);
}

TEST(RippleDeterminism, StealSchedulerReportsStealStats) {
  // The batch result must report the scheduler's width and task counts
  // (the imbalance diagnostics parallel_scaling emits), pooled or not.
  ThreadPool pool(2);
  auto graph = testing::random_graph(60, 500, 930);
  const auto features = testing::random_features(60, 8, 931);
  const auto config = workload_config(Workload::gc_s, 8, 4, 2, 8);
  const auto model = GnnModel::random(config, 932);
  RippleOptions options;
  options.num_shards = 8;
  RippleEngine engine(model, graph, features, &pool, options);

  StreamConfig stream_config;
  stream_config.num_updates = 40;
  stream_config.feat_dim = 8;
  stream_config.seed = 933;
  auto working = graph;
  const auto stream = generate_stream(working, stream_config);
  const BatchResult result = engine.apply_batch(stream);
  EXPECT_EQ(result.sched.width, 3u);  // 2 workers + the driver
  EXPECT_GT(result.sched.tasks, 0u);
  EXPECT_GT(result.sched.busy_total_sec, 0.0);
  EXPECT_GE(result.sched.imbalance(), 1.0);
  // A no-pool engine runs the same regions inline on one participant.
  RippleEngine inline_engine(model, graph, features, nullptr, options);
  const BatchResult inline_result = inline_engine.apply_batch(stream);
  EXPECT_EQ(inline_result.sched.width, 1u);
  EXPECT_GT(inline_result.sched.tasks, 0u);
  EXPECT_EQ(inline_result.sched.steals, 0u);
  EXPECT_GT(inline_result.sched.busy_total_sec, 0.0);
  EXPECT_LE(inline_result.sched.busy_total_sec,
            inline_result.propagate_sec + 1e-6);
}

TEST(RippleDeterminism, BatchResultReportsShardAndThreadStats) {
  ThreadPool pool(2);
  auto graph = testing::random_graph(40, 300, 920);
  const auto features = testing::random_features(40, 6, 921);
  const auto config = workload_config(Workload::gc_s, 6, 3, 2, 8);
  const auto model = GnnModel::random(config, 922);

  RippleEngine engine(model, graph, features, &pool);  // num_shards auto
  EXPECT_EQ(engine.num_shards(), 8u);  // auto rule: max(8, pool size)

  StreamConfig stream_config;
  stream_config.num_updates = 20;
  stream_config.feat_dim = 6;
  stream_config.seed = 923;
  auto working = graph;
  const auto stream = generate_stream(working, stream_config);
  const BatchResult result = engine.apply_batch(stream);
  EXPECT_EQ(result.num_shards, 8u);
  EXPECT_EQ(result.num_threads, 2u);
  // Phase timings nest inside the propagate phase.
  EXPECT_GT(result.apply_phase_sec, 0.0);
  EXPECT_LE(result.apply_phase_sec + result.compute_phase_sec,
            result.propagate_sec + 1e-6);
}

TEST(RippleProperties, StressManyBatchesNoDrift) {
  // Long-horizon drift check: 300 updates in batches of 3, then exactness.
  auto graph = testing::random_graph(50, 400, 53);
  const auto features = testing::random_features(50, 8, 54);
  const auto config = workload_config(Workload::gc_m, 8, 4, 2, 8);
  const auto model = GnnModel::random(config, 55);

  StreamConfig stream_config;
  stream_config.num_updates = 300;
  stream_config.feat_dim = 8;
  stream_config.seed = 56;
  auto working = graph;
  const auto stream = generate_stream(working, stream_config);

  RippleEngine engine(model, working, features);
  auto truth_graph = working;
  Matrix truth_features = features;
  for (const auto& batch : make_batches(stream, 3)) {
    engine.apply_batch(batch);
    for (const auto& update : batch) {
      switch (update.kind) {
        case UpdateKind::edge_add:
          truth_graph.add_edge(update.u, update.v, update.weight);
          break;
        case UpdateKind::edge_del:
          truth_graph.remove_edge(update.u, update.v);
          break;
        case UpdateKind::vertex_feature:
          vec_copy(update.new_features, truth_features.row(update.u));
          break;
      }
    }
  }
  const auto truth =
      testing::full_inference_truth(model, truth_graph, truth_features);
  EXPECT_LT(testing::max_store_diff(engine.embeddings(), truth), 5e-3f);
}

}  // namespace
}  // namespace ripple
