// Open-loop load generation with due-time latency.
//
// An open loop issues operations on a schedule fixed in advance, whether or
// not the system kept up. Every latency is measured from the operation's
// DUE time, not from when the generator got around to issuing it, so a
// stall is charged to every operation queued behind it. The generator's
// own lateness (how far past max(due, previous completion) it issued) is
// recorded separately as `lag`: a large lag means the generator, not the
// system, set the pace, and the open-loop numbers are not valid.
//
// The driver is a template over the clock and the wait so the self-tests
// can run it against a fake clock.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <thread>
#include <vector>

#include "common/rng.h"

namespace perfbench {

enum class OpKind : std::uint8_t { kUpdate, kLookup };

struct ScheduledOp {
  double due = 0;  // seconds after the phase start
  OpKind kind = OpKind::kUpdate;
};

// Poisson arrivals: `num_updates` updates, each followed by
// `lookups_per_update` lookups, at a total rate of
// update_rate * (1 + lookups_per_update) operations per second.
inline std::vector<ScheduledOp> poisson_schedule(double update_rate,
                                                 std::size_t lookups_per_update,
                                                 std::size_t num_updates,
                                                 std::uint64_t seed) {
  ripple::Rng rng(seed);
  const double op_rate =
      update_rate * static_cast<double>(1 + lookups_per_update);
  std::vector<ScheduledOp> ops;
  ops.reserve(num_updates * (1 + lookups_per_update));
  double t = 0;
  for (std::size_t i = 0; i < num_updates * (1 + lookups_per_update); ++i) {
    // 1 - U in (0, 1], so the log is finite.
    t += -std::log(1.0 - rng.next_double()) / op_rate;
    ops.push_back({t, i % (1 + lookups_per_update) == 0 ? OpKind::kUpdate
                                                        : OpKind::kLookup});
  }
  return ops;
}

struct OpRecord {
  double due = 0;     // absolute seconds
  double issued = 0;  // when the generator issued it
  double done = 0;    // when the call returned
  double lag = 0;     // issued - max(due, previous done)
  bool ok = true;
};

// Runs `schedule` open loop from absolute time t0: operation i is issued at
// t0 + due_i, or as soon as operation i-1 returned if that is later.
// serve(i, due_abs) performs the operation and returns false on failure.
template <typename Now, typename WaitUntil, typename Serve>
std::vector<OpRecord> run_open_loop(const std::vector<ScheduledOp>& schedule,
                                    double t0, Now&& now,
                                    WaitUntil&& wait_until, Serve&& serve) {
  std::vector<OpRecord> records;
  records.reserve(schedule.size());
  double prev_done = t0;
  for (std::size_t i = 0; i < schedule.size(); ++i) {
    OpRecord rec;
    rec.due = t0 + schedule[i].due;
    if (now() < rec.due) wait_until(rec.due);
    rec.issued = now();
    rec.lag = rec.issued - std::max(rec.due, prev_done);
    rec.ok = serve(i, rec.due);
    rec.done = now();
    prev_done = rec.done;
    records.push_back(rec);
  }
  return records;
}

// Monotonic seconds on the clock every process of the benchmark shares
// (CLOCK_MONOTONIC), so forked ranks' timestamps are comparable.
inline double now_sec() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Sleeps until shortly before `target`, then spins: sleep alone overshoots
// by tens of microseconds, which would show up as generator lag.
inline void wait_until_sec(double target) {
  constexpr double kSpinSec = 200e-6;
  const double remaining = target - now_sec();
  if (remaining > kSpinSec) {
    std::this_thread::sleep_for(
        std::chrono::duration<double>(remaining - kSpinSec));
  }
  while (now_sec() < target) {
  }
}

}  // namespace perfbench
