// Async-mode tests (src/dist, --mode=async; docs/async.md):
//  1. Fixed-point property: the barrier-free epoch converges to embeddings
//     BIT-IDENTICAL to the single-machine references AND to --mode=bsp, for
//     both engines × num_parts ∈ {1, 2, 4} × delivery skew ∈ {0, 3, 9} ×
//     two skew seeds — every schedule perturbation the sim transport can
//     produce must land on the same bits.
//  2. Scheduler axis: the stealing scheduler inside an async epoch changes
//     neither the bits nor the worklist accounting.
//  3. Result-field sanity: async fills epoch_sec/idle_sec and row/token
//     counters; BSP fills barrier_wait_sec; the modeled async epoch never
//     exceeds the modeled BSP total for the same stream.
#include <gtest/gtest.h>

#include "../test_util.h"
#include "common/thread_pool.h"
#include "core/ripple_engine.h"
#include "dist/dist_engine.h"
#include "dist/transport.h"
#include "infer/recompute.h"
#include "stream/generator.h"

namespace ripple {
namespace {

struct RmatCase {
  DynamicGraph snapshot;
  Matrix features;
  std::vector<GraphUpdate> stream;
};

RmatCase make_rmat_case(std::uint64_t seed) {
  Rng rng(seed);
  RmatCase c;
  c.snapshot = rmat(96, 640, 0.55, 0.2, 0.2, 0.05, rng);
  c.features = testing::random_features(c.snapshot.num_vertices(), 8, seed + 1);
  StreamConfig stream_config;
  stream_config.num_updates = 110;
  stream_config.feat_dim = 8;
  stream_config.seed = seed + 2;
  c.stream = generate_stream(c.snapshot, stream_config);
  return c;
}

TEST(DistAsync, FixedPointBitIdenticalUnderDeliverySkew) {
  // gc_m exercises the self channel (GraphConv+self), gs_s the GraphSAGE
  // concat path — both must hold the bit-exactness contract in async mode.
  for (const Workload workload : {Workload::gs_s, Workload::gc_m}) {
    SCOPED_TRACE(workload_name(workload));
    auto c = make_rmat_case(77);
    const auto config = workload_config(workload, 8, 4, 2, 12);
    const auto model = GnnModel::random(config, 79);
    const auto batches = make_batches(c.stream, 9);

    RippleEngine ripple_ref(model, c.snapshot, c.features);
    RecomputeEngine rc_ref(model, c.snapshot, c.features);
    for (const auto& batch : batches) {
      ripple_ref.apply_batch(batch);
      rc_ref.apply_batch(batch);
    }

    for (const std::size_t num_parts : {1, 2, 4}) {
      auto partition = ldg_partition(c.snapshot, num_parts);
      refine_partition(c.snapshot, partition, 1);
      for (const std::uint64_t skew : {0, 3, 9}) {
        for (const std::uint64_t seed : {1, 7}) {
          SCOPED_TRACE(std::to_string(num_parts) + " parts, skew " +
                       std::to_string(skew) + ", seed " +
                       std::to_string(seed));
          TransportOptions options;
          options.sim_skew = skew;
          options.sim_skew_seed = seed;
          auto dist_ripple = make_dist_engine(
              "ripple", model, c.snapshot, c.features, partition, nullptr,
              options, SchedulerMode::kSteal, ExecMode::kAsync);
          auto dist_rc = make_dist_engine(
              "rc", model, c.snapshot, c.features, partition, nullptr,
              options, SchedulerMode::kSteal, ExecMode::kAsync);
          for (const auto& batch : batches) {
            dist_ripple->apply_batch(batch);
            dist_rc->apply_batch(batch);
          }
          EXPECT_EQ(testing::max_store_diff(ripple_ref.embeddings(),
                                            dist_ripple->gather_embeddings()),
                    0.0f);
          EXPECT_EQ(testing::max_store_diff(rc_ref.embeddings(),
                                            dist_rc->gather_embeddings()),
                    0.0f);
        }
      }
    }
  }
}

TEST(DistAsync, PooledSchedulerMatchesInlineBits) {
  // The async wave drains on a pooled scheduler must reproduce the inline
  // (no-pool) engine bit for bit.
  auto c = make_rmat_case(41);
  const auto config = workload_config(Workload::gc_m, 8, 4, 2, 10);
  const auto model = GnnModel::random(config, 43);
  const auto batches = make_batches(c.stream, 9);
  auto partition = ldg_partition(c.snapshot, 4);
  refine_partition(c.snapshot, partition, 1);
  TransportOptions options;
  options.sim_skew = 5;

  ThreadPool pool(3);
  for (const char* key : {"ripple", "rc"}) {
    SCOPED_TRACE(key);
    auto pooled =
        make_dist_engine(key, model, c.snapshot, c.features, partition, &pool,
                         options, SchedulerMode::kSteal, ExecMode::kAsync);
    auto inline_only =
        make_dist_engine(key, model, c.snapshot, c.features, partition,
                         nullptr, options, SchedulerMode::kSteal,
                         ExecMode::kAsync);
    std::uint64_t pooled_tasks = 0;
    for (const auto& batch : batches) {
      const DistBatchResult sr = pooled->apply_batch(batch);
      inline_only->apply_batch(batch);
      pooled_tasks += sr.sched.tasks;
    }
    EXPECT_GT(pooled_tasks, 0u);
    EXPECT_EQ(testing::max_store_diff(pooled->gather_embeddings(),
                                      inline_only->gather_embeddings()),
              0.0f);
  }
}

TEST(DistAsync, ResultFieldsAndModeledEpochBound) {
  auto c = make_rmat_case(31);
  const auto config = workload_config(Workload::gs_s, 8, 4, 3, 10);
  const auto model = GnnModel::random(config, 33);
  const auto batches = make_batches(c.stream, 8);
  auto partition = ldg_partition(c.snapshot, 4);
  refine_partition(c.snapshot, partition, 1);

  // Heavy wire (100us/message, 0.8 Gb/s): the modeled comm seconds dwarf
  // the MEASURED per-rank busy seconds that also feed the epoch makespan,
  // so the structural bound below does not hinge on scheduler/CPU noise of
  // a 96-vertex run. The bound's interesting content — overlap and the
  // missing per-hop max coupling — is about the comm model, and the comm
  // model is deterministic.
  TransportOptions heavy_wire;
  heavy_wire.per_message_sec = 1e-4;
  heavy_wire.bytes_per_sec = 1e8;

  for (const char* key : {"ripple", "rc"}) {
    SCOPED_TRACE(key);
    auto bsp = make_dist_engine(key, model, c.snapshot, c.features, partition,
                                nullptr, heavy_wire,
                                SchedulerMode::kSteal, ExecMode::kBsp);
    auto async = make_dist_engine(key, model, c.snapshot, c.features,
                                  partition, nullptr, heavy_wire,
                                  SchedulerMode::kSteal, ExecMode::kAsync);
    double bsp_total = 0;
    double async_total = 0;
    double async_epoch = 0;
    double bsp_wait = 0;
    std::size_t tokens = 0;
    for (const auto& batch : batches) {
      const DistBatchResult b = bsp->apply_batch(batch);
      const DistBatchResult a = async->apply_batch(batch);
      ASSERT_EQ(b.barrier_wait_sec.size(), 4u);
      ASSERT_EQ(a.idle_sec.size(), 4u);
      EXPECT_EQ(b.epoch_sec, 0.0);
      EXPECT_EQ(b.token_messages, 0u);
      // Async row traffic replaces the BSP exchange; the per-epoch token
      // ring is control traffic, counted separately from rows.
      EXPECT_GE(a.epoch_sec, 0.0);
      for (const double idle : a.idle_sec) EXPECT_GE(idle, 0.0);
      bsp_total += b.total_sec();
      async_total += a.total_sec();
      async_epoch += a.epoch_sec;
      bsp_wait += b.barrier_wait_max();
      tokens += a.token_messages;
    }
    // At least one circulation of the 4-rank token ring per epoch.
    EXPECT_GE(tokens, 4u * batches.size());
    EXPECT_GT(async_epoch, 0.0);
    EXPECT_GT(bsp_wait, 0.0);
    EXPECT_GT(async_total, 0.0);
    // The barrier-free epoch (which replaces BSP's per-hop supersteps)
    // models BELOW the full BSP batch: per rank the NIC overlaps the
    // worklist CPU (max instead of sum) and there is no per-hop max
    // coupling (max_p Σ_l ≤ Σ_l max_p). At 96 vertices the comm is so
    // hub-concentrated that the structural slack nearly vanishes, and the
    // token ring is control traffic BSP does not pay (~2% of the modeled
    // epoch here), so the bound keeps tolerance comfortably above the
    // token share; record_bench.sh's fig12 sweep records the strict
    // comparison at bench scale, where rows dwarf the ring.
    EXPECT_LT(async_epoch, bsp_total * 1.05);
  }
}

TEST(DistAsync, ModeHelpersRoundTrip) {
  EXPECT_EQ(parse_exec_mode("bsp"), ExecMode::kBsp);
  EXPECT_EQ(parse_exec_mode("async"), ExecMode::kAsync);
  EXPECT_STREQ(exec_mode_name(ExecMode::kAsync), "async");
  EXPECT_EQ(exec_mode_choices().size(), 2u);
  EXPECT_THROW(parse_exec_mode("sync"), check_error);
}

}  // namespace
}  // namespace ripple
