// Fig. 9: single-machine throughput (updates/sec) and median batch latency
// for the five 2-layer GNN workloads on the Arxiv, Products, and Reddit
// analogues, across batch sizes {1, 10, 100, 1000}, comparing DRC, RC, and
// Ripple.
//
// Expected shape: Ripple's throughput exceeds RC by roughly an order of
// magnitude and DRC by two to three orders; DRC's throughput flattens
// beyond batch size 10 (graph-update overheads); Reddit is the slowest
// graph for everyone (high in-degree); throughput and latency trade off as
// batch size grows.
#include "bench_util.h"

using namespace ripple;

int main(int argc, char** argv) {
  Flags flags(argc, argv);
  apply_kernel_flag(flags);
  const bool quick = flags.has("quick");
  const double scale = flags.get_double("scale", quick ? 0.04 : 0.5);
  const auto seed = static_cast<std::uint64_t>(flags.get_int("seed", 42));
  const auto batch_sizes =
      flags.get_int_list("batch-sizes", quick
                                            ? std::vector<std::int64_t>{1, 10, 100}
                                            : std::vector<std::int64_t>{1, 10, 100, 1000});
  const std::string only_dataset = flags.get_string("dataset", "");
  const std::size_t num_layers =
      static_cast<std::size_t>(flags.get_int("layers", 2));
  set_log_level(log_level::warn);

  bench::print_header("Fig. 9: single-machine throughput + median latency, "
                      "5 workloads x 3 graphs, " +
                      std::to_string(num_layers) + "-layer");

  std::vector<std::string> datasets = {"arxiv-s", "products-s", "reddit-s"};
  if (!only_dataset.empty()) datasets = {only_dataset};

  for (const auto& dataset : datasets) {
    const auto prepared =
        bench::prepare(dataset, scale, quick ? 600 : 3200, seed);
    const auto& ds = prepared.dataset;
    std::printf("\n-- %s (n=%zu, m=%zu, avg in-deg %.1f) --\n",
                dataset.c_str(), ds.graph.num_vertices(), ds.graph.num_edges(),
                ds.graph.avg_in_degree());
    for (Workload workload : all_workloads()) {
      const auto config = workload_config(workload, ds.spec.feat_dim,
                                          ds.spec.num_classes, num_layers, 64);
      const auto model = GnnModel::random(config, seed);
      TextTable table({"Batch", "DRC up/s", "RC up/s", "Ripple up/s",
                       "DRC med lat (s)", "RC med lat (s)",
                       "Ripple med lat (s)"});
      for (const auto batch_size : batch_sizes) {
        const auto bs = static_cast<std::size_t>(batch_size);
        const std::size_t num_batches =
            bench::batches_for(bs, quick ? 200 : 800);
        std::vector<bench::RunMetrics> runs;
        for (const char* key : {"drc", "rc", "ripple"}) {
          auto engine = make_engine(key, model, ds.graph, ds.features);
          runs.push_back(
              bench::run_stream(*engine, prepared.stream, bs, num_batches));
        }
        table.add_row({TextTable::fmt_int(batch_size),
                       TextTable::fmt_si(runs[0].throughput_ups),
                       TextTable::fmt_si(runs[1].throughput_ups),
                       TextTable::fmt_si(runs[2].throughput_ups),
                       TextTable::fmt(runs[0].median_latency_sec, 5),
                       TextTable::fmt(runs[1].median_latency_sec, 5),
                       TextTable::fmt(runs[2].median_latency_sec, 5)});
      }
      std::printf("\n[%s] workload %s\n", dataset.c_str(),
                  workload_name(workload));
      table.print();
    }
  }
  std::printf(
      "\nExpected shape (paper): Ripple >> RC >> DRC on throughput (up to\n"
      "150x/2000x on Arxiv, 19x/2000x on Products vs RC/DRC); latency grows\n"
      "with batch size; Reddit slowest due to its in-degree.\n");
  return 0;
}
