// Fig. 11: per-update batch latency as a function of the number of vertices
// in the propagation tree (batch size 1, GC-S, 2 and 3 layers, Products
// analogue), RC vs Ripple.
//
// Expected shape: latency correlates strongly with tree size for both
// engines, and Ripple sits roughly an order of magnitude below RC across
// the whole range.
#include <algorithm>
#include <map>

#include "bench_util.h"

using namespace ripple;

int main(int argc, char** argv) {
  Flags flags(argc, argv);
  apply_kernel_flag(flags);
  const bool quick = flags.has("quick");
  const double scale = flags.get_double("scale", quick ? 0.05 : 0.5);
  const auto seed = static_cast<std::uint64_t>(flags.get_int("seed", 42));
  const auto num_updates =
      static_cast<std::size_t>(flags.get_int("updates", quick ? 60 : 400));
  set_log_level(log_level::warn);

  bench::print_header(
      "Fig. 11: batch latency vs propagation-tree size (batch size 1, "
      "GC-S, Products analogue)");

  for (const std::size_t layers : {2u, 3u}) {
    const auto prepared = bench::prepare("products-s", scale, num_updates,
                                         seed);
    const auto& ds = prepared.dataset;
    const auto config = workload_config(Workload::gc_s, ds.spec.feat_dim,
                                        ds.spec.num_classes, layers, 64);
    const auto model = GnnModel::random(config, seed);

    auto rc = make_engine("rc", model, ds.graph, ds.features);
    const auto rc_run = bench::run_stream(*rc, prepared.stream, 1);
    auto rp = make_engine("ripple", model, ds.graph, ds.features);
    const auto rp_run = bench::run_stream(*rp, prepared.stream, 1);

    // Bin updates by tree size (log-spaced) and report median latency per
    // bin — the textual rendering of the paper's scatter plot.
    struct Bin {
      std::vector<double> rc;
      std::vector<double> rp;
    };
    std::map<std::size_t, Bin> bins;  // key = bin lower bound
    auto bin_of = [](std::size_t tree) {
      std::size_t lo = 1;
      while (lo * 4 <= tree + 1) lo *= 4;
      return lo;
    };
    for (std::size_t i = 0; i < rp_run.tree_sizes.size(); ++i) {
      bins[bin_of(rp_run.tree_sizes[i])].rp.push_back(
          rp_run.batch_latencies[i]);
    }
    for (std::size_t i = 0; i < rc_run.tree_sizes.size(); ++i) {
      bins[bin_of(rc_run.tree_sizes[i])].rc.push_back(
          rc_run.batch_latencies[i]);
    }

    std::printf("\n-- GC-S %zu-layer (n=%zu) --\n", layers,
                ds.graph.num_vertices());
    TextTable table({"Tree-size bin", "#updates", "RC med lat (s)",
                     "Ripple med lat (s)", "RC/Ripple"});
    for (auto& [lo, bin] : bins) {
      if (bin.rc.empty() || bin.rp.empty()) continue;
      const double rc_med = median(bin.rc);
      const double rp_med = median(bin.rp);
      table.add_row(
          {"[" + std::to_string(lo) + ", " + std::to_string(lo * 4) + ")",
           TextTable::fmt_int(static_cast<long long>(bin.rp.size())),
           TextTable::fmt(rc_med, 6), TextTable::fmt(rp_med, 6),
           rp_med > 0 ? TextTable::fmt(rc_med / rp_med, 1) + "x" : "-"});
    }
    table.print();
  }
  std::printf(
      "\nExpected shape (paper): latency rises with tree size for both;\n"
      "Ripple roughly an order of magnitude faster across the spectrum.\n");
  return 0;
}
