// Per-epoch pending-cell worklist for --mode=async (docs/async.md).
//
// In an async epoch a mailbox cell (v, hop) may only apply once EVERY
// contribution it would have received under the BSP schedule is available —
// that is what makes the barrier-free order produce bit-identical
// embeddings. Because affected-frontier membership is value-independent
// (a hop-l cell re-expands over its out-edges whether or not its delta is
// numerically zero), every rank derives each owned cell's exact contributor
// count from replicated state before the epoch starts, registers the cells
// here, and then credits them as contributions land: a local upstream cell
// applying, a remote delta row arriving, or the vertex's own previous-layer
// cell committing (the self channel). When a cell's count hits zero it
// moves to its hop's ready list; the engines drain ready cells lowest hop
// first so a wave's outputs immediately feed the next hop's credits.
//
// Purely serial bookkeeping: each hosted partition owns one PendingCells
// and mutates it only from its own rank-step (credits run between parallel
// waves, never inside one).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/check.h"
#include "dist/transport_error.h"
#include "graph/types.h"

namespace ripple {

class PendingCells {
 public:
  // Starts a fresh epoch with hop levels 0..num_levels-1 (the engines index
  // by hop, leaving level 0 unused) over vertices [0, num_vertices). Drops
  // all prior cells. Dense per-vertex counters, not a hash map: credit() is
  // the hottest async operation (one per contributing edge, inside the
  // measured rank-busy window) and must stay a plain array decrement — the
  // O(n)-per-level reset happens in epoch setup, outside the busy clock.
  void reset(std::size_t num_levels, std::size_t num_vertices) {
    waiting_.assign(num_levels, {});
    for (auto& level : waiting_) level.assign(num_vertices, 0);
    ready_.assign(num_levels, {});
    waiting_cells_ = 0;
    ready_cells_ = 0;
  }

  // Registers cell (v, level) with `deps` outstanding contributors; a cell
  // with no dependencies is ready immediately.
  void add(std::size_t level, VertexId v, std::uint32_t deps) {
    if (deps == 0) {
      ready_[level].push_back(v);
      ++ready_cells_;
      return;
    }
    std::uint32_t& count = waiting_[level][v];
    RIPPLE_CHECK_MSG(count == 0, "async cell registered twice");
    count = deps;
    ++waiting_cells_;
  }

  // One contributor of (v, level) became available. The cell must exist and
  // still be waiting — a spurious credit means the dependency counts and
  // the actual message flow disagree (a duplicated frame, a byzantine
  // peer), which would break bit-exactness. Typed kProtocol rather than a
  // CHECK abort: the trigger is wire input, and the layers above recover
  // by restoring from checkpoint (docs/fault_tolerance.md).
  void credit(std::size_t level, VertexId v) {
    std::uint32_t& count = waiting_[level][v];
    if (count == 0) {
      throw TransportError(TransportErrorKind::kProtocol,
                           "async credit for a cell that is not waiting "
                           "(duplicate or stray contribution)");
    }
    if (--count == 0) {
      --waiting_cells_;
      ready_[level].push_back(v);
      ++ready_cells_;
    }
  }

  // Lowest level holding ready cells, or num_levels() when none is.
  std::size_t lowest_ready() const {
    for (std::size_t l = 0; l < ready_.size(); ++l) {
      if (!ready_[l].empty()) return l;
    }
    return ready_.size();
  }

  // Moves the currently-ready cells of `level` out, emptying its list.
  std::vector<VertexId> take_ready(std::size_t level) {
    std::vector<VertexId> out = std::move(ready_[level]);
    ready_[level].clear();
    ready_cells_ -= out.size();
    return out;
  }

  // No cell is ready at any level (waiting cells blocked on remote input do
  // NOT make a rank non-idle — that in-flight traffic is what the
  // termination token's counters track).
  bool idle() const { return ready_cells_ == 0; }

  // Cells not yet taken: must be zero once the epoch terminates.
  std::size_t remaining() const { return waiting_cells_ + ready_cells_; }

  std::size_t num_levels() const { return ready_.size(); }

 private:
  std::vector<std::vector<std::uint32_t>> waiting_;  // [level][vertex] deps
  std::vector<std::vector<VertexId>> ready_;
  std::size_t waiting_cells_ = 0;
  std::size_t ready_cells_ = 0;
};

// Epoch driver shared by the async engines: steps every hosted partition
// round-robin in rank order until each hosted termination detector reports
// finished(). rank_step(p) performs one poll/apply/token round for
// partition p and returns whether it made any progress; no-progress spins
// are allowed (they advance the sim delivery clock, or block briefly in a
// real transport's poll) but an unbounded streak is a protocol bug, not
// patience, and fails loudly. Templated so the header stays free of the
// transport/detector includes.
template <typename TransportT, typename Detectors, typename RankStep>
void drive_async_epoch(const TransportT& transport, const Detectors& detectors,
                       std::size_t num_parts, const RankStep& rank_step) {
  std::size_t stall_iters = 0;
  for (;;) {
    bool all_done = true;
    bool progress = false;
    for (std::size_t p = 0; p < num_parts; ++p) {
      if (!transport.hosts(p) || detectors[p].finished()) continue;
      all_done = false;
      progress = rank_step(p) || progress;
    }
    if (all_done) return;
    if (progress) {
      stall_iters = 0;
      continue;
    }
    // An unbounded no-progress streak means quiescence can never be
    // declared — some in-flight contribution is gone for good (a dropped
    // frame, a wedged peer). Typed kTimeout so the caller can recover.
    if (++stall_iters >= 1000000) {
      throw TransportError(TransportErrorKind::kTimeout,
                           "async epoch stalled without terminating");
    }
  }
}

}  // namespace ripple
