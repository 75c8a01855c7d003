// Self-tests for the benchmark's own logic: the percentile rule, due-time
// latency in the open loop, and failures counted as misses. Run with
//   python3 perfbench/run.py --selftest
#include <cmath>
#include <cstdio>
#include <vector>

#include "loadgen.h"
#include "report.h"
#include "stats.h"

namespace {

int failures = 0;

#define EXPECT(cond)                                                 \
  do {                                                               \
    if (!(cond)) {                                                   \
      std::fprintf(stderr, "%s:%d: EXPECT failed: %s\n", __FILE__, \
                   __LINE__, #cond);                                 \
      ++failures;                                                    \
    }                                                                \
  } while (0)

bool near(double a, double b) { return std::abs(a - b) < 1e-9; }

std::vector<double> one_to(std::size_t n) {
  std::vector<double> v;
  for (std::size_t i = 1; i <= n; ++i) v.push_back(static_cast<double>(i));
  return v;
}

void percentile_rule() {
  using perfbench::tail_percentile;
  // 1000 samples: p99 sits at rank 990 with exactly ten samples beyond.
  EXPECT(tail_percentile(one_to(1000), 0.99).value_or(-1) == 990);
  // 999 samples: rank 990, only nine beyond -> refused.
  EXPECT(!tail_percentile(one_to(999), 0.99).has_value());
  // 100 samples support the median but not p99.
  EXPECT(tail_percentile(one_to(100), 0.50).value_or(-1) == 50);
  EXPECT(!tail_percentile(one_to(100), 0.99).has_value());
  EXPECT(!tail_percentile({}, 0.50).has_value());

  // The report refuses the metric: 100 samples over five windows leave 20
  // per window, enough for a median only.
  perfbench::LatencySamples few;
  for (double v : one_to(100)) few.add(static_cast<std::size_t>(v) % 5, v);
  perfbench::Report report;
  report.add_percentile("p99", few, 0.99);
  report.add_percentile("p50", few, 0.50);
  EXPECT(!report.has("p99"));
  EXPECT(report.has("p50"));
}

// Fake clock: waits jump to the target plus a fixed oversleep; each
// operation takes 1 ms except the stalled one.
struct FakeClock {
  double t = 0;
  double oversleep = 0;
};

void due_time_latency() {
  std::vector<perfbench::ScheduledOp> schedule;
  for (int i = 0; i < 10; ++i) schedule.push_back({0.010 * i});
  FakeClock clock;
  const auto now = [&] { return clock.t; };
  const auto wait = [&](double target) { clock.t = target + clock.oversleep; };
  const auto serve = [&](std::size_t i, double) {
    clock.t += i == 2 ? 0.035 : 0.001;
    return true;
  };
  const auto rec = perfbench::run_open_loop(schedule, 0.0, now, wait, serve);
  EXPECT(rec.size() == 10);
  const auto latency = [&](std::size_t i) { return rec[i].done - rec[i].due; };
  EXPECT(near(latency(1), 0.001));
  EXPECT(near(latency(2), 0.035));  // the stall itself
  // Op 3 was due at 30 ms but could only start at 55 ms: it is charged the
  // queueing, although its own service took 1 ms.
  EXPECT(near(latency(3), 0.026));
  EXPECT(near(rec[3].done - rec[3].issued, 0.001));
  EXPECT(near(latency(4), 0.017));
  EXPECT(near(latency(5), 0.008));
  EXPECT(near(latency(6), 0.001));  // the backlog has drained
  for (const auto& r : rec) EXPECT(near(r.lag, 0.0));

  // An oversleeping generator shows up as lag, not as system latency only.
  FakeClock late;
  late.oversleep = 0.0005;
  const auto rec_late = perfbench::run_open_loop(
      schedule, 0.0, [&] { return late.t; },
      [&](double target) { late.t = target + late.oversleep; },
      [&](std::size_t, double) {
        late.t += 0.001;
        return true;
      });
  EXPECT(near(rec_late[0].lag, 0.0));  // due at t0 = now: no wait
  for (std::size_t i = 1; i < rec_late.size(); ++i) {
    EXPECT(near(rec_late[i].lag, 0.0005));
  }
}

void failures_are_misses() {
  perfbench::LatencySamples samples;
  for (int i = 0; i < 980; ++i) samples.add(0, 1.0);
  for (int i = 0; i < 20; ++i) samples.add_failure(0);
  EXPECT(samples.count() == 1000);
  // Two percent failed: p99 lands on a miss, whatever the successes took.
  EXPECT(std::isinf(samples.percentile(0.99).value_or(0)));
  EXPECT(samples.percentile(0.50).value_or(-1) == 1.0);

  perfbench::Report report;
  report.attempted = 1000;
  report.failed = 20;
  EXPECT(!report.ok());
}

// Samples due at t = 0..9.999 s, 1000 per second, windowed by due time
// over [0, 10); all take 1 ms except those due in [burst_from, burst_to).
perfbench::LatencySamples ten_seconds(double burst_from, double burst_to,
                                      double burst_ms) {
  perfbench::LatencySamples samples;
  for (int i = 0; i < 10000; ++i) {
    const double t = i * 1e-3;
    samples.add(perfbench::window_of(t, 0.0, 10.0),
                t >= burst_from && t < burst_to ? burst_ms : 1.0);
  }
  return samples;
}

void windows() {
  // A burst inside one of the five 2-s windows moves the pooled p99 but not
  // the median over windows.
  const auto burst = ten_seconds(3.0, 3.5, 50.0);
  EXPECT(burst.percentile(0.99).value_or(0) == 50.0);
  EXPECT(burst.windowed_percentile(0.99).value_or(0) == 1.0);
  // A slowdown covering most of the run is not hidden.
  const auto slow = ten_seconds(0.0, 7.0, 50.0);
  EXPECT(slow.windowed_percentile(0.99).value_or(0) == 50.0);
  // Failures inside a window are misses there too.
  perfbench::LatencySamples failing = ten_seconds(0, 0, 0);
  for (std::size_t w = 0; w < perfbench::kWindows; ++w) {
    for (int i = 0; i < 30; ++i) failing.add_failure(w);
  }
  EXPECT(std::isinf(failing.windowed_percentile(0.99).value_or(0)));
  // Each window must satisfy the ten-beyond rule on its own: 10000 samples
  // support a pooled p99.8, but 2000 per window do not.
  const auto few = ten_seconds(0, 0, 0);
  EXPECT(few.percentile(0.998).has_value());
  EXPECT(!few.windowed_percentile(0.998).has_value());
  EXPECT(perfbench::window_of(-1.0, 0.0, 10.0) == 0);
  EXPECT(perfbench::window_of(10.0, 0.0, 10.0) == perfbench::kWindows - 1);

  // Rates: work over the time spent on it, median over windows; one
  // stalled window does not drag the figure.
  perfbench::WindowedRate rate;
  for (std::size_t w = 0; w < perfbench::kWindows; ++w) {
    rate.add(w, 1000.0, w == 2 ? 10.0 : 1.0);
  }
  EXPECT(std::abs(rate.rate() - 1000.0) < 1e-9);
}

void schedule_is_seeded() {
  const auto a = perfbench::poisson_schedule(500, 2, 3000, 11);
  const auto b = perfbench::poisson_schedule(500, 2, 3000, 11);
  const auto c = perfbench::poisson_schedule(500, 2, 3000, 12);
  EXPECT(a.size() == 9000);
  bool same = a.size() == b.size(), differs = false;
  std::size_t updates = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    same = same && a[i].due == b[i].due && a[i].kind == b[i].kind;
    differs = differs || a[i].due != c[i].due;
    if (a[i].kind == perfbench::OpKind::kUpdate) ++updates;
  }
  EXPECT(same);
  EXPECT(differs);
  EXPECT(updates == 3000);
  // 3000 updates at 500/s span about six seconds.
  EXPECT(std::abs(a.back().due - 6.0) < 0.5);
}

}  // namespace

int main() {
  percentile_rule();
  due_time_latency();
  failures_are_misses();
  windows();
  schedule_is_seeded();
  if (failures != 0) {
    std::fprintf(stderr, "perfbench self-test: %d failed\n", failures);
    return 1;
  }
  std::printf("perfbench self-test: all passed\n");
  return 0;
}
