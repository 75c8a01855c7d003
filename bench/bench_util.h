// Shared harness code for the figure/table reproduction benches.
//
// Every bench binary accepts:
//   --scale=<0..1>    multiplies the machine-sized dataset defaults
//   --quick           tiny configuration for smoke runs / CI
//   --seed=<n>        dataset + stream seed
//   --kernels=auto|scalar   SIMD kernel dispatch override
// and prints aligned tables with the same metrics the paper plots.
#pragma once

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "common/flags.h"
#include "common/log.h"
#include "common/stats.h"
#include "common/table.h"
#include "common/timer.h"
#include "graph/datasets.h"
#include "infer/engine.h"
#include "stream/generator.h"
#include "tensor/kernels.h"

namespace ripple::bench {

// Aggregated metrics of one (engine, batch size) streaming run — the
// quantities Figs. 2b/8/9/10/11 report.
struct RunMetrics {
  std::string engine;
  std::size_t batch_size = 0;
  std::size_t num_batches = 0;
  double throughput_ups = 0;      // updates / total wall seconds
  double median_latency_sec = 0;  // median per-batch latency
  double mean_update_sec = 0;     // phase split (Fig. 8 stacks)
  double mean_propagate_sec = 0;
  double mean_tree_size = 0;      // affected vertices per batch
  // Shard-parallel execution stats (BatchResult pass-through; zero for
  // engines without a parallel propagation core).
  std::size_t num_shards = 0;
  std::size_t num_threads = 0;
  double mean_apply_phase_sec = 0;    // mailbox drain + blocked GEMMs
  double mean_compute_phase_sec = 0;  // Δh scatter into next-hop mailboxes
  // Work-stealing scheduler stats summed over the run (width 1 without a
  // pool); see common/scheduler.h.
  SchedulerStats sched;
  std::vector<double> batch_latencies;
  std::vector<std::size_t> tree_sizes;
};

// Streams `stream` through a fresh engine in batches; stops after
// max_batches (0 = all).
inline RunMetrics run_stream(InferenceEngine& engine,
                             std::span<const GraphUpdate> stream,
                             std::size_t batch_size,
                             std::size_t max_batches = 0) {
  RunMetrics metrics;
  metrics.engine = engine.name();
  metrics.batch_size = batch_size;
  double total_update = 0;
  double total_propagate = 0;
  double total_tree = 0;
  double total_apply_phase = 0;
  double total_compute_phase = 0;
  for (const auto& batch : make_batches(stream, batch_size)) {
    const BatchResult result = engine.apply_batch(batch);
    metrics.batch_latencies.push_back(result.total_sec());
    metrics.tree_sizes.push_back(result.propagation_tree_size);
    total_update += result.update_sec;
    total_propagate += result.propagate_sec;
    total_tree += static_cast<double>(result.propagation_tree_size);
    total_apply_phase += result.apply_phase_sec;
    total_compute_phase += result.compute_phase_sec;
    metrics.num_shards = result.num_shards;
    metrics.num_threads = result.num_threads;
    metrics.sched.accumulate(result.sched);
    ++metrics.num_batches;
    if (max_batches != 0 && metrics.num_batches >= max_batches) break;
  }
  const double total_sec = total_update + total_propagate;
  const double updates = static_cast<double>(metrics.num_batches) *
                         static_cast<double>(batch_size);
  metrics.throughput_ups = total_sec > 0 ? updates / total_sec : 0;
  metrics.median_latency_sec =
      metrics.batch_latencies.empty() ? 0 : median(metrics.batch_latencies);
  metrics.mean_update_sec =
      metrics.num_batches ? total_update / metrics.num_batches : 0;
  metrics.mean_propagate_sec =
      metrics.num_batches ? total_propagate / metrics.num_batches : 0;
  metrics.mean_tree_size =
      metrics.num_batches ? total_tree / metrics.num_batches : 0;
  metrics.mean_apply_phase_sec =
      metrics.num_batches ? total_apply_phase / metrics.num_batches : 0;
  metrics.mean_compute_phase_sec =
      metrics.num_batches ? total_compute_phase / metrics.num_batches : 0;
  return metrics;
}

// Builds the snapshot + stream pair for a dataset per the paper's protocol.
struct Prepared {
  Dataset dataset;  // graph already reduced to the initial snapshot
  std::vector<GraphUpdate> stream;
};

inline Prepared prepare(const std::string& dataset_name, double scale,
                        std::size_t num_updates, std::uint64_t seed) {
  Prepared prepared;
  prepared.dataset = build_dataset(dataset_name, scale, seed);
  StreamConfig config;
  config.num_updates = num_updates;
  config.feat_dim = prepared.dataset.spec.feat_dim;
  config.seed = seed + 1;
  prepared.stream = generate_stream(prepared.dataset.graph, config);
  return prepared;
}

// Batch count heuristic: enough batches for a stable median without letting
// large batch sizes dominate bench runtime.
inline std::size_t batches_for(std::size_t batch_size,
                               std::size_t budget_updates) {
  const std::size_t by_budget = budget_updates / std::max<std::size_t>(1, batch_size);
  return std::max<std::size_t>(3, std::min<std::size_t>(30, by_budget));
}

inline void print_header(const std::string& title) {
  std::printf("\n=== %s ===\n", title.c_str());
}

}  // namespace ripple::bench
