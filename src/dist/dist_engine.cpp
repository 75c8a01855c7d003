#include "dist/dist_engine.h"

#include <algorithm>
#include <vector>

#include "common/check.h"
#include "dist/dist_recompute.h"
#include "dist/dist_ripple.h"

namespace ripple {

const char* exec_mode_name(ExecMode mode) {
  switch (mode) {
    case ExecMode::kBsp: return "bsp";
    case ExecMode::kAsync: return "async";
  }
  return "?";
}

ExecMode parse_exec_mode(const std::string& name) {
  if (name == "bsp") return ExecMode::kBsp;
  if (name == "async") return ExecMode::kAsync;
  throw check_error("unknown exec mode '" + name + "' (expected bsp|async)");
}

const std::vector<std::string>& exec_mode_choices() {
  static const std::vector<std::string> choices = {"bsp", "async"};
  return choices;
}

void finish_epoch_timing(const Transport& transport,
                         const std::vector<double>& busy_sec, double wall_sec,
                         DistBatchResult& result) {
  const std::size_t num_parts = transport.num_parts();
  if (result.comm_measured) {
    // Real transport: the epoch's wall clock is the figure of merit; idle
    // is whatever part of it this rank did not spend applying cells.
    result.epoch_sec = wall_sec;
    for (std::size_t p = 0; p < num_parts; ++p) {
      if (!transport.hosts(p)) continue;
      result.idle_sec[p] = std::max(0.0, wall_sec - busy_sec[p]);
    }
    return;
  }
  // Modeled cluster: a rank's sends are non-blocking and its polls consume
  // frames the wire already carried, so per machine the NIC pipeline and
  // the worklist CPU overlap — a rank finishes at max(busy, comm), not
  // busy + comm (which is the BSP shape: barriers forbid exactly this
  // overlap, every superstep serializes a compute phase and an exchange).
  // There is no per-hop max coupling either, so the epoch makespan sits
  // below the BSP hop total for the same traffic (max_p Σ_l ≤ Σ_l max_p).
  double makespan = 0.0;
  for (std::size_t p = 0; p < num_parts; ++p) {
    if (!transport.hosts(p)) continue;
    makespan = std::max(makespan,
                        std::max(busy_sec[p], transport.epoch_comm_sec(p)));
  }
  result.epoch_sec = makespan;
  for (std::size_t p = 0; p < num_parts; ++p) {
    if (!transport.hosts(p)) continue;
    result.idle_sec[p] =
        makespan - std::max(busy_sec[p], transport.epoch_comm_sec(p));
  }
}

EmbeddingStore gather_owned_store(
    Transport& transport, const LocalRowMap& rows, const ModelConfig& config,
    std::size_t num_vertices,
    const std::function<std::span<const float>(
        std::size_t part, std::size_t layer, VertexId v)>& owned_row) {
  const std::size_t num_parts = rows.num_parts();
  const std::size_t num_layers = config.num_layers;
  std::size_t concat_width = 0;
  for (std::size_t l = 0; l <= num_layers; ++l) {
    concat_width += config.embedding_dim(l);
  }

  // One collection superstep: every hosted non-leader partition ships each
  // owned vertex's H^0..H^L rows, concatenated, to the leader. send_exact
  // keeps the bits intact at any --wire-precision.
  transport.begin_superstep();
  std::vector<float> frame(concat_width);
  for (std::size_t p = 1; p < num_parts; ++p) {
    if (!transport.hosts(p)) continue;
    for (const VertexId v : rows.owned(p)) {
      std::size_t off = 0;
      for (std::size_t l = 0; l <= num_layers; ++l) {
        const auto row = owned_row(p, l, v);
        std::copy(row.begin(), row.end(), frame.begin() + off);
        off += row.size();
      }
      RIPPLE_CHECK(off == concat_width);
      transport.send_exact(p, 0, v, frame);
    }
  }
  transport.end_superstep();

  EmbeddingStore store(config, num_vertices);
  // Hosted partitions contribute their owned rows directly...
  for (std::size_t p = 0; p < num_parts; ++p) {
    if (!transport.hosts(p)) continue;
    for (const VertexId v : rows.owned(p)) {
      for (std::size_t l = 0; l <= num_layers; ++l) {
        const auto row = owned_row(p, l, v);
        auto out = store.layer(l).row(v);
        std::copy(row.begin(), row.end(), out.begin());
      }
    }
  }
  // ...and the endpoint hosting the leader scatters everything it received.
  // (On the hosts-all sim this overwrites rows with identical bits.)
  if (transport.hosts(0)) {
    const Transport::Inbox& in = transport.inbox(0);
    for (const Transport::Message& m : in.messages) {
      const auto payload = in.payload_of(m);
      RIPPLE_CHECK(payload.size() == concat_width);
      std::size_t off = 0;
      for (std::size_t l = 0; l <= num_layers; ++l) {
        const std::size_t dim = config.embedding_dim(l);
        auto out = store.layer(l).row(m.sender);
        std::copy(payload.begin() + off, payload.begin() + off + dim,
                  out.begin());
        off += dim;
      }
    }
  }
  return store;
}

std::unique_ptr<DistEngineBase> make_dist_engine(
    const std::string& key, const GnnModel& model,
    const DynamicGraph& snapshot, const Matrix& features,
    const Partition& partition, ThreadPool* pool,
    const TransportOptions& options, SchedulerMode scheduler,
    ExecMode mode) {
  return make_dist_engine(
      key, model, snapshot, features, partition, pool,
      std::make_unique<SimTransport>(partition.num_parts(), options),
      scheduler, mode);
}

std::unique_ptr<DistEngineBase> make_dist_engine(
    const std::string& key, const GnnModel& model,
    const DynamicGraph& snapshot, const Matrix& features,
    const Partition& partition, ThreadPool* pool,
    std::unique_ptr<Transport> transport, SchedulerMode /*scheduler*/,
    ExecMode mode) {
  RIPPLE_CHECK(transport != nullptr);
  RIPPLE_CHECK_MSG(transport->num_parts() == partition.num_parts(),
                   "transport spans " << transport->num_parts()
                                      << " parts but the partition has "
                                      << partition.num_parts());
  if (key == "ripple") {
    return std::make_unique<DistRippleEngine>(model, snapshot, features,
                                              partition, pool,
                                              std::move(transport), mode);
  }
  if (key == "rc") {
    return std::make_unique<DistRecomputeEngine>(model, snapshot, features,
                                                 partition, pool,
                                                 std::move(transport), mode);
  }
  throw check_error("unknown dist engine '" + key + "' (ripple|rc)");
}

}  // namespace ripple
