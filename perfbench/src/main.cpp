// perfbench: runs one workload and prints its metrics.
//
//   perfbench --workload <trigger-arxiv|bulk-products|dist-papers>
//             --seed <n> --seconds <s> --trace <0|1> --scratch <dir>
//
// Prints the fingerprint and every metric as text, then one line
// "PERFBENCH_REPORT <json>". Exits 0 only when every correctness check
// passed; perfbench/run.py builds this binary and turns the report line
// into the benchmark's result line.
#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <exception>
#include <string>

#include "common/log.h"
#include "workloads.h"

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <trigger-arxiv|bulk-products|"
               "dist-papers> --seed <n> --seconds <s> --trace <0|1> "
               "--scratch <dir>\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunConfig config;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      config.workload = value;
    } else if (key == "--seed") {
      config.seed = std::stoull(value);
    } else if (key == "--seconds") {
      config.seconds = std::stod(value);
    } else if (key == "--trace") {
      config.trace = value == "1";
    } else if (key == "--scratch") {
      config.scratch_dir = value;
    } else {
      return usage();
    }
  }
  if (argc % 2 == 0 || config.scratch_dir.empty() || config.seconds <= 0) {
    return usage();
  }
  const long nproc = ::sysconf(_SC_NPROCESSORS_ONLN);
  config.nproc = nproc > 0 ? static_cast<std::size_t>(nproc) : 1;
  ripple::set_log_level(ripple::log_level::warn);

  perfbench::Report report;
  try {
    if (config.workload == "trigger-arxiv") {
      perfbench::run_trigger_arxiv(config, report);
    } else if (config.workload == "bulk-products") {
      perfbench::run_bulk_products(config, report);
    } else if (config.workload == "dist-papers") {
      perfbench::run_dist_papers(config, report);
    } else {
      return usage();
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
  report.print();
  return report.ok() ? 0 : 1;
}
