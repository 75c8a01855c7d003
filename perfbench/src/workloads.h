// The three workloads. Each generates its inputs from the seed, drives the
// program through its public entry points only, checks the outputs, and
// fills a Report with every end-to-end metric (untraced run) or every
// per-layer metric (traced run).
#pragma once

#include <cstdint>
#include <string>

#include "gnn/model.h"
#include "report.h"

namespace perfbench {

struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::size_t nproc = 1;
  std::string scratch_dir;  // checkpoint files (dist-papers)
};

void run_trigger_arxiv(const RunConfig& config, Report& report);
void run_bulk_products(const RunConfig& config, Report& report);
void run_dist_papers(const RunConfig& config, Report& report);

// ---- shared helpers (workloads.cpp) ----

// The served model is one fixed checkpoint for every seed: the seed varies
// the graph and the stream. (A random model's logit margins, and with them
// the label-flip rate, differ by orders of magnitude between weight seeds.)
inline constexpr std::uint64_t kModelSeed = 7;

// Peak resident set of this process (VmHWM), in MB.
double peak_rss_mb();
// Restarts the peak-RSS count at the current resident set.
void reset_peak_rss();

// GnnLayer::update_matrix throughput of `model`'s layers at `rows` rows per
// call, single-threaded, in GFLOP/s. The workloads use GraphConv layers,
// whose update is one GEMM: 2 * rows * in_dim * out_dim flops.
double update_gflops(const ripple::GnnModel& model, std::size_t rows,
                     std::uint64_t seed);

// Records the kernel tier, nproc and thread counts, and refuses (as a
// failed check) a run whose threads exceed nproc; returns false then.
bool fingerprint_threads(const RunConfig& config, std::size_t pool_width,
                         std::size_t ranks, std::size_t threads,
                         Report& report);

}  // namespace perfbench
