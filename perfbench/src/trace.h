// The benchmark's two wrappers around the program's public interfaces. They
// record spans from outside the program; no program code is instrumented.
//
//  * TracedEngine wraps a RippleEngine behind InferenceEngine. Untraced, it
//    forwards apply_batch and reads the clock once, at its return — the
//    commit time the end-to-end latencies need. Traced, it drives the
//    engine's two public operators itself, update() then propagate(), and
//    keeps one span per batch.
//  * TimedTransport decorates any Transport (the FaultInjectTransport
//    shape): traced, it times every send* call and every superstep
//    begin/end, and sums the backend's own barrier-wait figure.
#pragma once

#include <memory>
#include <vector>

#include "common/scheduler.h"
#include "core/ripple_engine.h"
#include "dist/transport.h"

namespace perfbench {

struct EngineSpan {
  double begin = 0;       // apply_batch entry
  double update_end = 0;  // update() return
  double end = 0;         // propagate() return (the commit)
  std::size_t tree_size = 0;
  double apply_phase_sec = 0;    // as the engine reports it
  double scatter_phase_sec = 0;  // BatchResult::compute_phase_sec
  ripple::SchedulerStats sched;
};

class TracedEngine final : public ripple::InferenceEngine {
 public:
  explicit TracedEngine(std::unique_ptr<ripple::RippleEngine> inner)
      : inner_(std::move(inner)) {}

  void set_tracing(bool on) { tracing_ = on; }
  bool tracing() const { return tracing_; }

  // Return time of the most recent apply_batch.
  double last_commit() const { return last_commit_; }
  // One entry per batch applied while tracing.
  const std::vector<EngineSpan>& spans() const { return spans_; }

  const char* name() const override { return inner_->name(); }
  ripple::BatchResult apply_batch(ripple::UpdateBatch batch) override;
  const ripple::EmbeddingStore& embeddings() const override {
    return inner_->embeddings();
  }
  const ripple::DynamicGraph& graph() const override {
    return inner_->graph();
  }
  const ripple::GnnModel& model() const override { return inner_->model(); }
  std::size_t memory_bytes() const override { return inner_->memory_bytes(); }

 private:
  std::unique_ptr<ripple::RippleEngine> inner_;
  bool tracing_ = false;
  double last_commit_ = 0;
  std::vector<EngineSpan> spans_;
};

// Seconds one rank spent inside transport calls while tracing.
struct TransportTimes {
  double send_sec = 0;     // send / send_opaque / send_exact / send_migrate
  double barrier_sec = 0;  // begin_superstep + end_superstep
  double wait_sec = 0;     // sum of superstep_wait_sec(rank)
  double total() const { return send_sec + barrier_sec; }
};

class TimedTransport final : public ripple::Transport {
 public:
  // `rank` is the partition this endpoint hosts (for superstep_wait_sec).
  TimedTransport(std::unique_ptr<ripple::Transport> inner, std::size_t rank);

  void set_tracing(bool on) { tracing_ = on; }
  const TransportTimes& times() const { return times_; }

  void begin_superstep() override;
  void send(std::size_t src, std::size_t dst, ripple::VertexId sender,
            std::span<const float> payload) override;
  void send_opaque(std::size_t src, std::size_t dst,
                   std::size_t payload_bytes,
                   std::size_t num_messages = 1) override;
  void send_exact(std::size_t src, std::size_t dst, ripple::VertexId sender,
                  std::span<const float> payload) override;
  void send_migrate(std::size_t src, std::size_t dst, ripple::VertexId sender,
                    std::span<const float> payload) override;
  bool hosts(std::size_t part) const override { return inner_->hosts(part); }
  double end_superstep() override;
  bool measures_time() const override { return inner_->measures_time(); }

  void begin_epoch() override { inner_->begin_epoch(); }
  void send_row(std::size_t src, std::size_t dst, ripple::VertexId sender,
                std::uint32_t hop, std::span<const float> payload) override {
    inner_->send_row(src, dst, sender, hop, payload);
  }
  void send_token(std::size_t src, std::size_t dst,
                  const ripple::TerminationToken& token) override {
    inner_->send_token(src, dst, token);
  }
  std::size_t poll_async(std::size_t part, std::vector<AsyncFrame>& out,
                         int timeout_ms = 0) override {
    return inner_->poll_async(part, out, timeout_ms);
  }
  void end_epoch() override { inner_->end_epoch(); }
  double epoch_comm_sec(std::size_t part) const override {
    return inner_->epoch_comm_sec(part);
  }
  double superstep_wait_sec(std::size_t part) const override {
    return inner_->superstep_wait_sec(part);
  }

  const Inbox& inbox(std::size_t part) const override {
    return inner_->inbox(part);
  }
  std::size_t wire_bytes() const override { return inner_->wire_bytes(); }
  std::size_t wire_messages() const override {
    return inner_->wire_messages();
  }
  std::size_t token_messages() const override {
    return inner_->token_messages();
  }
  std::size_t retries() const override { return inner_->retries(); }
  std::size_t timeouts() const override { return inner_->timeouts(); }
  std::size_t heartbeats() const override { return inner_->heartbeats(); }

 protected:
  const char* name_impl() const override { return inner_->name(); }

 private:
  std::unique_ptr<ripple::Transport> inner_;
  std::size_t rank_;
  bool tracing_ = false;
  TransportTimes times_;
};

}  // namespace perfbench
