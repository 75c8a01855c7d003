// Fig. 10: the Fig. 9 experiment with 3-layer models on the Products
// analogue only (as in the paper).
//
// Expected shape: Ripple's advantage widens with depth (≈140x vs DRC, 11x
// vs RC at full scale) because recompute pulls whole neighborhoods at every
// additional hop.
#include "bench_util.h"

using namespace ripple;

int main(int argc, char** argv) {
  Flags flags(argc, argv);
  apply_kernel_flag(flags);
  const bool quick = flags.has("quick");
  const double scale = flags.get_double("scale", quick ? 0.04 : 0.35);
  const auto seed = static_cast<std::uint64_t>(flags.get_int("seed", 42));
  const auto batch_sizes =
      flags.get_int_list("batch-sizes", quick
                                            ? std::vector<std::int64_t>{1, 10, 100}
                                            : std::vector<std::int64_t>{1, 10, 100, 1000});
  set_log_level(log_level::warn);

  bench::print_header(
      "Fig. 10: single-machine, 3-layer workloads, Products analogue");

  const auto prepared =
      bench::prepare("products-s", scale, quick ? 400 : 2400, seed);
  const auto& ds = prepared.dataset;
  std::printf("n=%zu m=%zu avg in-deg %.1f\n", ds.graph.num_vertices(),
              ds.graph.num_edges(), ds.graph.avg_in_degree());

  for (Workload workload : all_workloads()) {
    const auto config =
        workload_config(workload, ds.spec.feat_dim, ds.spec.num_classes, 3, 64);
    const auto model = GnnModel::random(config, seed);
    TextTable table({"Batch", "DRC up/s", "RC up/s", "Ripple up/s",
                     "Ripple/RC", "Ripple/DRC"});
    for (const auto batch_size : batch_sizes) {
      const auto bs = static_cast<std::size_t>(batch_size);
      const std::size_t num_batches = bench::batches_for(bs, quick ? 150 : 500);
      std::vector<bench::RunMetrics> runs;
      for (const char* key : {"drc", "rc", "ripple"}) {
        auto engine = make_engine(key, model, ds.graph, ds.features);
        runs.push_back(
            bench::run_stream(*engine, prepared.stream, bs, num_batches));
      }
      auto ratio = [](double a, double b) {
        return b > 0 ? TextTable::fmt(a / b, 1) + "x" : std::string("-");
      };
      table.add_row({TextTable::fmt_int(batch_size),
                     TextTable::fmt_si(runs[0].throughput_ups),
                     TextTable::fmt_si(runs[1].throughput_ups),
                     TextTable::fmt_si(runs[2].throughput_ups),
                     ratio(runs[2].throughput_ups, runs[1].throughput_ups),
                     ratio(runs[2].throughput_ups, runs[0].throughput_ups)});
    }
    std::printf("\nworkload %s (3 layers)\n", workload_name(workload));
    table.print();
  }
  std::printf(
      "\nExpected shape (paper): Ripple up to ~140x DRC and ~11x RC; the\n"
      "gap is wider than the 2-layer Fig. 9 because recompute cost grows\n"
      "with each extra hop.\n");
  return 0;
}
