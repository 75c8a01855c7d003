// Fig. 2a: effect of neighborhood-sampling fanout on vertex-wise inference
// accuracy and per-vertex latency (paper: Reddit, 3-layer SAGEConv).
//
// A GS-S model is trained on an SBM community task with Reddit-like density;
// vertex-wise inference then runs with fanouts {4, 8, 16, 32} and exact
// (full neighborhood). Expected shape: accuracy rises toward the exact
// accuracy as fanout grows, while per-vertex latency rises too.
#include "bench_util.h"
#include "gnn/loss.h"
#include "tensor/ops.h"
#include "gnn/trainer.h"
#include "infer/vertexwise.h"

using namespace ripple;

int main(int argc, char** argv) {
  Flags flags(argc, argv);
  apply_kernel_flag(flags);
  const bool quick = flags.has("quick");
  const auto n = static_cast<std::size_t>(
      flags.get_int("vertices", quick ? 600 : 3000));
  const double avg_deg = flags.get_double("avg-degree", quick ? 20 : 60);
  const auto probes = static_cast<std::size_t>(
      flags.get_int("probes", quick ? 50 : 200));
  const auto seed = static_cast<std::uint64_t>(flags.get_int("seed", 42));
  set_log_level(log_level::warn);

  bench::print_header(
      "Fig. 2a: sampling fanout vs accuracy & per-vertex latency "
      "(3-layer GS-S, Reddit-like density)");

  // Reddit analogue with trainable labels: 41 classes, dense SBM.
  auto ds = build_sbm_dataset(n, 41, 64, avg_deg, 8.0, 1.0, seed);
  // 3-layer SAGEConv as in the paper; SAGE's canonical aggregator is mean,
  // which also keeps activations stable at Reddit-like degrees.
  auto config = workload_config(Workload::gs_s, ds.spec.feat_dim,
                                ds.spec.num_classes, 3, 32);
  config.aggregator = AggregatorKind::mean;
  auto model = GnnModel::random(config, seed);
  TrainConfig train_config;
  train_config.epochs = quick ? 40 : 120;
  train_config.learning_rate = 5e-3;
  train_config.seed = seed;
  const auto train_result =
      train_full_batch(model, ds.graph, ds.features, ds.labels, train_config);
  std::printf("trained GS-S: train acc %.3f, test acc %.3f\n",
              train_result.train_accuracy, train_result.test_accuracy);

  const std::vector<std::uint8_t> all_mask(n, 1);
  Rng probe_rng(seed + 9);
  const auto probe_vertices =
      probe_rng.sample_indices(static_cast<std::uint32_t>(n),
                               static_cast<std::uint32_t>(probes));

  TextTable table({"Fanout", "Accuracy %", "Avg latency (ms)",
                   "Avg tree size"});
  std::vector<std::size_t> fanouts = {4, 8, 16, 32, 0};  // 0 = exact
  for (const std::size_t fanout : fanouts) {
    VertexWiseEngine engine(model, ds.graph, ds.features, fanout, seed + 5);
    std::size_t correct = 0;
    double total_ms = 0;
    double total_tree = 0;
    for (const auto v : probe_vertices) {
      StopWatch watch;
      std::size_t tree = 0;
      const auto logits = engine.infer_vertex(v, &tree);
      total_ms += watch.elapsed_ms();
      total_tree += static_cast<double>(tree);
      if (argmax_row(logits) == ds.labels[v]) ++correct;
    }
    const double acc =
        100.0 * static_cast<double>(correct) / static_cast<double>(probes);
    table.add_row({fanout == 0 ? "full" : std::to_string(fanout),
                   TextTable::fmt(acc, 2),
                   TextTable::fmt(total_ms / static_cast<double>(probes), 3),
                   TextTable::fmt(total_tree / static_cast<double>(probes), 0)});
  }
  table.print();
  std::printf(
      "\nExpected shape (paper): accuracy increases and saturates with\n"
      "fanout; average inference latency grows with fanout.\n");
  return 0;
}
