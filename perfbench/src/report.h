// One run's results: named metrics with units, the fingerprint, and the
// correctness verdict, printed as aligned text followed by one JSON line
// that run.py turns into the benchmark's result line.
#pragma once

#include <cmath>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "stats.h"

namespace perfbench {

class Report {
 public:
  void add(const std::string& name, double value, const std::string& unit,
           const std::string& note = "") {
    metrics_.push_back({name, value, unit, note});
  }
  // A latency percentile: the median over the windows of each window's
  // quantile q. Not reported (only noted) when a window has fewer than ten
  // samples beyond it; run.py refuses a run that lacks a metric
  // BENCHMARK.json lists.
  void add_percentile(const std::string& name, const LatencySamples& samples,
                      double q) {
    const auto value = samples.windowed_percentile(q);
    const std::string note = "n=" + std::to_string(samples.count()) +
                             ", median of " + std::to_string(kWindows) +
                             " windows";
    if (!value) {
      refused_.push_back(name + ": not reported, a window has fewer than " +
                         std::to_string(kMinSamplesBeyond) +
                         " samples beyond it (" + note + ")");
      return;
    }
    add(name, *value, "ms", note);
  }
  bool has(const std::string& name) const {
    for (const Metric& m : metrics_) {
      if (m.name == name) return true;
    }
    return false;
  }
  void fingerprint(const std::string& key, const std::string& value) {
    fingerprint_.emplace_back(key, value);
  }
  void fail(const std::string& why) { failures_.push_back(why); }

  std::size_t attempted = 0;
  std::size_t failed = 0;
  bool ok() const { return failures_.empty() && failed == 0; }

  void print() const {
    for (const auto& [key, value] : fingerprint_) {
      std::printf("# %-22s %s\n", key.c_str(), value.c_str());
    }
    for (const Metric& m : metrics_) {
      std::printf("%-28s %16.6f %-8s %s\n", m.name.c_str(), m.value,
                  m.unit.c_str(), m.note.c_str());
    }
    for (const std::string& why : refused_) {
      std::printf("REFUSED: %s\n", why.c_str());
    }
    for (const std::string& why : failures_) {
      std::printf("CHECK FAILED: %s\n", why.c_str());
    }
    std::printf("PERFBENCH_REPORT {\"correct\":%s,\"attempted\":%zu,"
                "\"failed\":%zu,\"fingerprint\":{",
                ok() ? "true" : "false", attempted, failed);
    for (std::size_t i = 0; i < fingerprint_.size(); ++i) {
      std::printf("%s\"%s\":\"%s\"", i ? "," : "",
                  escape(fingerprint_[i].first).c_str(),
                  escape(fingerprint_[i].second).c_str());
    }
    std::printf("},\"metrics\":{");
    bool first = true;
    for (const Metric& m : metrics_) {
      if (!std::isfinite(m.value)) continue;  // a miss has no JSON number
      std::printf("%s\"%s\":{\"value\":%.17g,\"unit\":\"%s\"}",
                  first ? "" : ",", escape(m.name).c_str(), m.value,
                  escape(m.unit).c_str());
      first = false;
    }
    std::printf("}}\n");
    std::fflush(stdout);
  }

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
    std::string note;
  };
  static std::string escape(const std::string& s) {
    std::string out;
    for (const char c : s) {
      if (c == '"' || c == '\\') out += '\\';
      out += c;
    }
    return out;
  }

  std::vector<Metric> metrics_;
  std::vector<std::pair<std::string, std::string>> fingerprint_;
  std::vector<std::string> refused_;
  std::vector<std::string> failures_;
};

}  // namespace perfbench
