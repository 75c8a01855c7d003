// Latency and rate statistics with the benchmark's reporting rules.
//
//  * A percentile is reported only when at least ten samples lie strictly
//    beyond its nearest-rank position; otherwise it is refused (the run has
//    too few samples to say anything about that tail).
//  * A failed operation is a sample of +infinity: it misses every latency
//    limit, so it can only push a percentile up, never hide.
//  * A run's figure is the median over kWindows windows (equal slices of
//    the measured time, or rounds of the workload) of the per-window
//    figure. The host's background load comes in bursts; a burst inflates
//    one window, and the median over windows does not follow it. Each
//    window must satisfy the ten-samples-beyond rule on its own.
#pragma once

#include <algorithm>
#include <array>
#include <cmath>
#include <cstddef>
#include <limits>
#include <optional>
#include <vector>

namespace perfbench {

inline constexpr std::size_t kMinSamplesBeyond = 10;
inline constexpr std::size_t kWindows = 5;
inline constexpr double kMiss = std::numeric_limits<double>::infinity();

// Median of plain values.
inline double median_of(std::vector<double> xs) {
  if (xs.empty()) return 0;
  std::sort(xs.begin(), xs.end());
  const std::size_t mid = xs.size() / 2;
  return xs.size() % 2 == 1 ? xs[mid] : 0.5 * (xs[mid - 1] + xs[mid]);
}

// Nearest-rank position (1-based) of quantile q in n sorted samples.
inline std::size_t nearest_rank(double q, std::size_t n) {
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(n) - 1e-9));
  return std::clamp<std::size_t>(rank, 1, n);
}

// Quantile q of `values`, or nullopt when fewer than kMinSamplesBeyond
// samples lie beyond it.
inline std::optional<double> tail_percentile(std::vector<double> values,
                                             double q) {
  if (values.empty()) return std::nullopt;
  std::sort(values.begin(), values.end());
  const std::size_t rank = nearest_rank(q, values.size());
  if (values.size() - rank < kMinSamplesBeyond) return std::nullopt;
  return values[rank - 1];
}

// Index of the window of [begin, end) split into kWindows equal parts that
// holds time t (clamped into range).
inline std::size_t window_of(double t, double begin, double end) {
  const double span = end - begin;
  if (!(span > 0)) return 0;
  const auto w = static_cast<std::ptrdiff_t>(
      std::floor((t - begin) / span * static_cast<double>(kWindows)));
  return static_cast<std::size_t>(std::clamp<std::ptrdiff_t>(
      w, 0, static_cast<std::ptrdiff_t>(kWindows) - 1));
}

// Latency samples in milliseconds, each assigned to one of kWindows windows.
class LatencySamples {
 public:
  void add(std::size_t window, double ms) { windows_[window].push_back(ms); }
  void add_failure(std::size_t window) { add(window, kMiss); }

  std::size_t count() const {
    std::size_t n = 0;
    for (const auto& w : windows_) n += w.size();
    return n;
  }

  // Quantile q over every sample, pooled.
  std::optional<double> percentile(double q) const {
    std::vector<double> all;
    for (const auto& w : windows_) all.insert(all.end(), w.begin(), w.end());
    return tail_percentile(std::move(all), q);
  }

  // Median over the windows of each window's quantile q; nullopt when any
  // window has too few samples.
  std::optional<double> windowed_percentile(double q) const {
    std::vector<double> per_window;
    for (const auto& w : windows_) {
      const auto value = tail_percentile(w, q);
      if (!value) return std::nullopt;
      per_window.push_back(*value);
    }
    return median_of(per_window);
  }

 private:
  std::array<std::vector<double>, kWindows> windows_;
};

// Work completed per second: median over the windows of (work done in the
// window) / (time spent doing it).
class WindowedRate {
 public:
  void add(std::size_t window, double amount, double seconds) {
    amount_[window] += amount;
    seconds_[window] += seconds;
  }

  double rate() const {
    std::vector<double> per_window;
    for (std::size_t w = 0; w < kWindows; ++w) {
      per_window.push_back(seconds_[w] > 0 ? amount_[w] / seconds_[w] : 0.0);
    }
    return median_of(per_window);
  }

 private:
  std::array<double, kWindows> amount_{};
  std::array<double, kWindows> seconds_{};
};

}  // namespace perfbench
