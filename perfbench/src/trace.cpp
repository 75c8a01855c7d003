#include "trace.h"

#include "loadgen.h"

namespace perfbench {

ripple::BatchResult TracedEngine::apply_batch(ripple::UpdateBatch batch) {
  if (!tracing_) {
    ripple::BatchResult result = inner_->apply_batch(batch);
    last_commit_ = now_sec();
    return result;
  }
  // RippleEngine::apply_batch is exactly update() then propagate(); driving
  // the two operators from here splits the batch without touching the
  // engine.
  EngineSpan span;
  span.begin = now_sec();
  inner_->update(batch);
  span.update_end = now_sec();
  ripple::BatchResult result = inner_->propagate();
  span.end = now_sec();
  last_commit_ = span.end;
  result.update_sec = span.update_end - span.begin;
  result.propagate_sec = span.end - span.update_end;
  result.batch_size = batch.size();
  span.tree_size = result.propagation_tree_size;
  span.apply_phase_sec = result.apply_phase_sec;
  span.scatter_phase_sec = result.compute_phase_sec;
  span.sched = result.sched;
  spans_.push_back(span);
  return result;
}

TimedTransport::TimedTransport(std::unique_ptr<ripple::Transport> inner,
                               std::size_t rank)
    : Transport(inner->num_parts(), inner->options()),
      inner_(std::move(inner)), rank_(rank) {}

namespace {

// Adds the duration of one call to `total` when tracing.
template <typename Call>
void timed(bool tracing, double& total, Call&& call) {
  if (!tracing) {
    call();
    return;
  }
  const double begin = now_sec();
  call();
  total += now_sec() - begin;
}

}  // namespace

void TimedTransport::begin_superstep() {
  timed(tracing_, times_.barrier_sec, [&] { inner_->begin_superstep(); });
}

void TimedTransport::send(std::size_t src, std::size_t dst,
                          ripple::VertexId sender,
                          std::span<const float> payload) {
  timed(tracing_, times_.send_sec,
        [&] { inner_->send(src, dst, sender, payload); });
}

void TimedTransport::send_opaque(std::size_t src, std::size_t dst,
                                 std::size_t payload_bytes,
                                 std::size_t num_messages) {
  timed(tracing_, times_.send_sec,
        [&] { inner_->send_opaque(src, dst, payload_bytes, num_messages); });
}

void TimedTransport::send_exact(std::size_t src, std::size_t dst,
                                ripple::VertexId sender,
                                std::span<const float> payload) {
  timed(tracing_, times_.send_sec,
        [&] { inner_->send_exact(src, dst, sender, payload); });
}

void TimedTransport::send_migrate(std::size_t src, std::size_t dst,
                                  ripple::VertexId sender,
                                  std::span<const float> payload) {
  timed(tracing_, times_.send_sec,
        [&] { inner_->send_migrate(src, dst, sender, payload); });
}

double TimedTransport::end_superstep() {
  double cost = 0;
  timed(tracing_, times_.barrier_sec, [&] { cost = inner_->end_superstep(); });
  if (tracing_) times_.wait_sec += inner_->superstep_wait_sec(rank_);
  return cost;
}

}  // namespace perfbench
