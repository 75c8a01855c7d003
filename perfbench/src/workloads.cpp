#include "workloads.h"

#include <fstream>
#include <string>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "loadgen.h"
#include "tensor/kernels.h"

namespace perfbench {

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB -> MB
    }
  }
  return 0;
}

void reset_peak_rss() {
  std::ofstream clear_refs("/proc/self/clear_refs");
  clear_refs << "5";  // Linux: reset VmHWM to the current RSS
}

double update_gflops(const ripple::GnnModel& model, std::size_t rows,
                     std::uint64_t seed) {
  ripple::Rng rng(seed);
  struct Shape {
    ripple::Matrix h_prev, x_agg, h_out;
  };
  std::vector<Shape> shapes;
  double flops_per_round = 0;
  for (std::size_t l = 0; l < model.num_layers(); ++l) {
    const ripple::GnnLayer& layer = model.layer(l);
    Shape shape{ripple::Matrix(rows, layer.in_dim()),
                ripple::Matrix(rows, layer.in_dim()),
                ripple::Matrix(rows, layer.out_dim())};
    for (ripple::Matrix* m : {&shape.h_prev, &shape.x_agg}) {
      for (std::size_t i = 0; i < m->size(); ++i) {
        m->data()[i] = rng.next_float(-0.5f, 0.5f);
      }
    }
    shapes.push_back(std::move(shape));
    flops_per_round += 2.0 * static_cast<double>(rows) *
                       static_cast<double>(layer.in_dim()) *
                       static_cast<double>(layer.out_dim());
  }
  const auto round = [&] {
    for (std::size_t l = 0; l < shapes.size(); ++l) {
      model.layer(l).update_matrix(shapes[l].h_prev, shapes[l].x_agg,
                                   shapes[l].h_out,
                                   static_cast<ripple::ThreadPool*>(nullptr));
    }
  };
  round();  // warm caches and the packed-panel path
  std::size_t rounds = 0;
  const double begin = now_sec();
  double elapsed = 0;
  while (elapsed < 0.3) {
    round();
    ++rounds;
    elapsed = now_sec() - begin;
  }
  return flops_per_round * static_cast<double>(rounds) / elapsed / 1e9;
}

bool fingerprint_threads(const RunConfig& config, std::size_t pool_width,
                         std::size_t ranks, std::size_t threads,
                         Report& report) {
  report.fingerprint("workload", config.workload);
  report.fingerprint("seed", std::to_string(config.seed));
  report.fingerprint("kernel_tier",
                     ripple::kernel_isa_name(ripple::active_kernel_isa()));
  report.fingerprint("nproc", std::to_string(config.nproc));
  report.fingerprint("pool_width", std::to_string(pool_width));
  report.fingerprint("ranks", std::to_string(ranks));
  report.fingerprint("threads", std::to_string(threads));
  if (threads > config.nproc) {
    report.fail("refused: " + std::to_string(threads) +
                " threads exceed nproc " + std::to_string(config.nproc));
    return false;
  }
  return true;
}

}  // namespace perfbench
