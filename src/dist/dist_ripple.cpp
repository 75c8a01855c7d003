#include "dist/dist_ripple.h"

#include <algorithm>

#include "common/timer.h"
#include "dist/bsp.h"
#include "dist/checkpoint.h"
#include "stream/update_apply.h"

namespace ripple {

namespace {
// Shards per partition-local mailbox: a small fixed fan-out keeps the
// sharded drain path exercised without per-partition tuning (embeddings do
// not depend on this value — see the determinism note in core/mailbox.h).
constexpr std::size_t kShardsPerPart = 4;
}  // namespace

DistRippleEngine::DistRippleEngine(const GnnModel& model,
                                   DynamicGraph snapshot,
                                   const Matrix& features, Partition partition,
                                   ThreadPool* pool,
                                   std::unique_ptr<Transport> transport,
                                   ExecMode mode)
    : model_(model), graph_(std::move(snapshot)),
      partition_(std::move(partition)),
      row_map_(partition_, graph_.num_vertices()),
      transport_(std::move(transport)),
      scheduler_(std::make_unique<WorkStealingScheduler>(pool)), mode_(mode) {
  RIPPLE_CHECK_MSG(is_linear(model_.config().aggregator),
                   "Ripple requires a linear aggregation function; got "
                       << aggregator_name(model_.config().aggregator));
  RIPPLE_CHECK(features.rows() == graph_.num_vertices());
  RIPPLE_CHECK_MSG(partition_.num_vertices() <= graph_.num_vertices(),
                   "partition covers more vertices than the snapshot");
  const std::size_t num_parts = partition_.num_parts();
  const std::size_t num_layers = model_.num_layers();
  const ModelConfig& config = model_.config();

  // Transient full bootstrap over the replicated topology, then scatter:
  // each hosted partition keeps only its owned rows (plus halo copies of
  // the remote boundary rows it will read); the full tables are freed when
  // this constructor returns, so steady-state residency is per-rank.
  EmbeddingStore full(config, graph_.num_vertices());
  full.features() = features;
  std::vector<Matrix> full_cache;
  bootstrap_with_caches(model_, graph_, full, full_cache, *scheduler_);
  const HaloIndex halo_index = build_halo_index(graph_, partition_);

  std::vector<std::size_t> halo_widths(num_layers);
  for (std::size_t l = 0; l < num_layers; ++l) {
    halo_widths[l] = config.embedding_dim(l);
  }
  states_.resize(num_parts);
  for (std::size_t p = 0; p < num_parts; ++p) {
    if (!hosts(p)) continue;
    RankState& st = states_[p];
    const std::size_t rows = row_map_.part_size(p);
    st.store = EmbeddingStore(config, rows);
    st.agg_cache.reserve(num_layers);
    st.boxes.reserve(num_layers);
    for (std::size_t l = 0; l < num_layers; ++l) {
      st.agg_cache.emplace_back(rows, config.layer_in_dim(l));
      st.boxes.emplace_back(config.layer_in_dim(l), graph_.num_vertices(),
                            kShardsPerPart);
    }
    st.halo = HaloCache(halo_widths);
    const std::vector<VertexId>& owned = row_map_.owned(p);
    for (std::size_t i = 0; i < owned.size(); ++i) {
      const VertexId v = owned[i];
      for (std::size_t l = 0; l <= num_layers; ++l) {
        vec_copy(full.layer(l).row(v), st.store.layer(l).row(i));
      }
      for (std::size_t l = 0; l < num_layers; ++l) {
        vec_copy(full_cache[l].row(v), st.agg_cache[l].row(i));
      }
    }
    // Bootstrap halo: every remote vertex with an edge into p's owned set.
    for (const VertexId u : halo_index.halo_in[p]) {
      st.halo.ensure(u);
      for (std::size_t l = 0; l < num_layers; ++l) {
        vec_copy(full.layer(l).row(u), st.halo.row(u, l));
      }
    }
  }

  // One scratch per (partition, shard): a partition's shard drains run
  // concurrently on a pooled scheduler, so they cannot share.
  scratch_.resize(num_parts * kShardsPerPart);
  senders_.resize(num_parts);
  delta_.resize(num_parts);
  inbox_delta_.resize(num_parts);
  merge_.resize(num_parts);
  remote_mask_.resize(num_parts);
  detectors_.reserve(num_parts);
  for (std::size_t p = 0; p < num_parts; ++p) {
    detectors_.emplace_back(p, num_parts);
  }
  async_.resize(num_parts);
  if (mode_ == ExecMode::kAsync) {
    wave_boxes_.reserve(num_layers);
    for (std::size_t l = 0; l < num_layers; ++l) {
      wave_boxes_.emplace_back(config.layer_in_dim(l), graph_.num_vertices(),
                               kShardsPerPart);
    }
  }
}

float DistRippleEngine::edge_alpha(EdgeWeight weight) const {
  return model_.config().aggregator == AggregatorKind::weighted_sum
             ? weight
             : 1.0f;
}

void DistRippleEngine::record_edge_op(VertexId u, VertexId v,
                                      EdgeWeight weight, bool is_add) {
  const std::uint32_t pu = owner(u);
  const std::uint32_t pv = owner(v);
  UOp op;
  op.kind = is_add ? UpdateKind::edge_add : UpdateKind::edge_del;
  op.u = u;
  op.v = v;
  op.alpha = edge_alpha(weight);
  op.is_add = is_add;
  if (pu != pv && is_add) {
    // Halo fill — only when this add puts u into pv's halo for the first
    // time. While any u→pv edge exists, pv's cached copy of u's rows stays
    // fresh for free: the exchange ships u's committed rows to pv whenever
    // u changes. Deletions therefore never fill, and repeated adds toward
    // the same partition dedupe naturally.
    bool haloed = false;
    for (const Neighbor& nb : graph_.out_neighbors(u)) {
      if (nb.vertex != v && owner(nb.vertex) == pv) {
        haloed = true;
        break;
      }
    }
    op.fill_expected = !haloed;
    if (op.fill_expected && hosts(pu)) {
      // One message carrying the owner's H^0..H^{L-1} rows concatenated —
      // row_wire_bytes-shaped, like every other row transfer.
      const RankState& st = states_[pu];
      wire_frame_.clear();
      for (std::size_t l = 0; l < model_.num_layers(); ++l) {
        const auto row = st.store.layer(l).row(local(u));
        wire_frame_.insert(wire_frame_.end(), row.begin(), row.end());
      }
      transport_->send(pu, pv, u, wire_frame_);
    }
  } else if (pu != pv) {
    // Eager invalidation: when the LAST cut edge u→pv disappears, pv's
    // cached rows of u stop being refreshed and must go. Decided here at
    // walk position (post-removal scan); the replay erases AFTER seeding
    // the nullify message, which still reads the cached rows.
    bool haloed = false;
    for (const Neighbor& nb : graph_.out_neighbors(u)) {
      if (owner(nb.vertex) == pv) {
        haloed = true;
        break;
      }
    }
    op.erase_after = !haloed;
  } else if (hosts(pu)) {
    // Same-partition edge: snapshot u's H^0 at walk position — a later
    // feature commit in this batch would overwrite the owned row before
    // the replay reaches this op. Layers ≥ 1 are static during superstep U
    // and are read live at replay.
    const auto x = states_[pu].store.features().row(local(u));
    op.x_src.assign(x.begin(), x.end());
  }
  uops_.push_back(std::move(op));
}

void DistRippleEngine::record_feature_op(const GraphUpdate& update) {
  RIPPLE_CHECK_MSG(update.new_features.size() == model_.config().feat_dim,
                   "feature width mismatch");
  const VertexId u = update.u;
  const std::uint32_t pu = owner(u);
  UOp op;
  op.kind = UpdateKind::vertex_feature;
  op.u = u;
  op.x_new = &update.new_features;
  op.self_mark = model_.layer(0).uses_self();
  for (const Neighbor& nb : graph_.out_neighbors(u)) {
    op.sinks.push_back({nb.vertex, edge_alpha(nb.weight)});
  }
  if (hosts(pu)) {
    auto owned_row = states_[pu].store.features().row(local(u));
    op.x_old.assign(owned_row.begin(), owned_row.end());
    // One combined (x_new, x_old) message per remote partition owning at
    // least one sink; its receipt both seeds the remote cells and
    // write-through-refreshes u's halo H^0 row there.
    wire_frame_.clear();
    wire_frame_.insert(wire_frame_.end(), update.new_features.begin(),
                       update.new_features.end());
    wire_frame_.insert(wire_frame_.end(), op.x_old.begin(), op.x_old.end());
    for_each_remote_owner(u, pu, [&](std::size_t q) {
      transport_->send(pu, q, u, wire_frame_);
    });
    // Commit the new H^0 at walk position: later walk reads of u's
    // features must see it, exactly like the single-machine engine.
    vec_copy(update.new_features, owned_row);
  }
  uops_.push_back(std::move(op));
}

void DistRippleEngine::replay_uops() {
  const std::size_t num_parts = partition_.num_parts();
  const std::size_t num_layers = model_.num_layers();
  const std::size_t feat_dim = model_.config().feat_dim;
  // Per hosted partition: FIFO cursors over the inbox, one queue per source
  // partition. A sim inbox interleaves sources in walk order while a tcp
  // inbox groups messages by source rank; each (source → destination)
  // subsequence is identical on both, so consumption goes through these
  // queues — never by inbox position.
  std::vector<std::vector<std::vector<std::uint32_t>>> fifo(num_parts);
  std::vector<std::vector<std::size_t>> next(num_parts);
  for (std::size_t p = 0; p < num_parts; ++p) {
    if (!hosts(p)) continue;
    fifo[p].resize(num_parts);
    next[p].assign(num_parts, 0);
    const Transport::Inbox& inbox = transport_->inbox(p);
    for (std::size_t i = 0; i < inbox.messages.size(); ++i) {
      fifo[p][inbox.messages[i].src_part].push_back(
          static_cast<std::uint32_t>(i));
    }
  }
  const auto pop_msg = [&](std::size_t dst,
                           std::size_t src) -> const Transport::Message& {
    auto& queue = fifo[dst][src];
    std::size_t& cursor = next[dst][src];
    RIPPLE_CHECK_MSG(cursor < queue.size(),
                     "superstep U underflow: partition "
                         << dst << " expected another message from " << src);
    return transport_->inbox(dst).messages[queue[cursor++]];
  };

  for (const UOp& op : uops_) {
    if (op.kind == UpdateKind::vertex_feature) {
      const std::uint32_t pu = owner(op.u);
      // Hosted owner seeds its own sinks from the unrounded local rows.
      if (hosts(pu)) {
        for (const auto& [sink, alpha] : op.sinks) {
          if (owner(sink) != pu) continue;
          mailbox(pu, 1).accumulate(sink, alpha, *op.x_new, op.x_old);
        }
        if (op.self_mark) mailbox(pu, 1).mark_self_changed(op.u);
      }
      // Hosted remote sink owners consume the (x_new, x_old) message, seed
      // their cells in recorded walk order, and refresh u's halo H^0 row
      // with the received bits.
      for (std::size_t q = 0; q < num_parts; ++q) {
        if (q == pu || !hosts(q)) continue;
        bool owns_sink = false;
        for (const auto& [sink, alpha] : op.sinks) {
          (void)alpha;
          if (owner(sink) == q) {
            owns_sink = true;
            break;
          }
        }
        if (!owns_sink) continue;
        const Transport::Message& m = pop_msg(q, pu);
        RIPPLE_CHECK(m.sender == op.u);
        const auto payload = transport_->inbox(q).payload_of(m);
        // Wire-input width validation: typed kCorrupt (frame damage, not a
        // bug) BEFORE any subspan is taken from the payload.
        if (payload.size() != 2 * feat_dim) {
          throw TransportError(TransportErrorKind::kCorrupt,
                               "feature frame width mismatch: expected " +
                                   std::to_string(2 * feat_dim) +
                                   " floats, got " +
                                   std::to_string(payload.size()));
        }
        const auto x_new = payload.subspan(0, feat_dim);
        const auto x_old = payload.subspan(feat_dim, feat_dim);
        for (const auto& [sink, alpha] : op.sinks) {
          if (owner(sink) != q) continue;
          mailbox(q, 1).accumulate(sink, alpha, x_new, x_old);
        }
        states_[q].halo.ensure(op.u);
        vec_copy(x_new, states_[q].halo.row(op.u, 0));
      }
      continue;
    }

    // Edge op: seed the nullify/insert messages at the sink's owner.
    const std::uint32_t pu = owner(op.u);
    const std::uint32_t pv = owner(op.v);
    if (!hosts(pv)) continue;
    RankState& st = states_[pv];
    if (pu != pv && op.fill_expected) {
      const Transport::Message& m = pop_msg(pv, pu);
      RIPPLE_CHECK(m.sender == op.u);
      const auto payload = transport_->inbox(pv).payload_of(m);
      // Wire-input width validation: typed kCorrupt (frame damage, not a
      // bug) BEFORE any subspan is taken from the payload.
      std::size_t fill_width = 0;
      for (std::size_t l = 0; l < num_layers; ++l) {
        fill_width += model_.config().embedding_dim(l);
      }
      if (payload.size() != fill_width) {
        throw TransportError(TransportErrorKind::kCorrupt,
                             "halo fill frame width mismatch: expected " +
                                 std::to_string(fill_width) + " floats, got " +
                                 std::to_string(payload.size()));
      }
      st.halo.ensure(op.u);
      std::size_t off = 0;
      for (std::size_t l = 0; l < num_layers; ++l) {
        auto row = st.halo.row(op.u, l);
        vec_copy(payload.subspan(off, row.size()), row);
        off += row.size();
      }
      RIPPLE_CHECK(off == payload.size());
    }
    for (std::size_t l = 1; l <= num_layers; ++l) {
      std::span<const float> h_u;
      if (pu != pv) {
        // Replay runs in batch order, so the halo rows reflect exactly the
        // walk-position values (fills and feature refreshes land before
        // the ops that read them).
        h_u = st.halo.row(op.u, l - 1);
      } else if (l == 1) {
        h_u = op.x_src;
      } else {
        h_u = std::span<const float>(
            states_[pu].store.layer(l - 1).row(local(op.u)));
      }
      if (op.is_add) {
        mailbox(pv, l).accumulate(op.v, op.alpha, h_u, {});
      } else {
        mailbox(pv, l).accumulate(op.v, op.alpha, {}, h_u);
      }
    }
    if (op.erase_after) st.halo.erase(op.u);
  }

  // Every message must have been claimed by exactly one replayed op.
  for (std::size_t p = 0; p < num_parts; ++p) {
    if (!hosts(p)) continue;
    for (std::size_t src = 0; src < num_parts; ++src) {
      RIPPLE_CHECK_MSG(next[p][src] == fifo[p][src].size(),
                       "superstep U leftovers: partition "
                           << p << " holds unconsumed messages from " << src);
    }
  }
}

DistBatchResult DistRippleEngine::apply_batch(UpdateBatch batch) {
  DistBatchResult result;
  result.batch_size = batch.size();
  result.num_parts = partition_.num_parts();
  const std::size_t wire_bytes_before = transport_->wire_bytes();
  const std::size_t wire_messages_before = transport_->wire_messages();
  const std::size_t retries_before = transport_->retries();
  const std::size_t timeouts_before = transport_->timeouts();
  const std::size_t heartbeats_before = transport_->heartbeats();
  const auto fill_robustness = [&](DistBatchResult& r) {
    r.retries = transport_->retries() - retries_before;
    r.timeouts = transport_->timeouts() - timeouts_before;
    r.heartbeats = transport_->heartbeats() - heartbeats_before;
  };
  const std::size_t num_parts = partition_.num_parts();
  const std::size_t num_layers = model_.num_layers();
  // Modeled timing bills the slowest simulated partition; a measuring
  // transport (tcp) switches every phase to this rank's real wall clock.
  const BspTiming timing = bsp_timing_of(*transport_);
  result.comm_measured = transport_->measures_time();
  scheduler_->reset_stats();
  ++batches_applied_;
  result.barrier_wait_sec.assign(num_parts, 0.0);
  result.idle_sec.assign(num_parts, 0.0);
  // Modeled runs accumulate per-partition compute-phase stalls through the
  // bsp.h helpers; a measuring transport reports its own rank's barrier
  // stall via superstep_wait_sec instead (other slots stay 0).
  std::vector<double>* const wait =
      timing == BspTiming::kModeled ? &result.barrier_wait_sec : nullptr;
  const auto add_transport_waits = [&] {
    for (std::size_t p = 0; p < num_parts; ++p) {
      result.barrier_wait_sec[p] += transport_->superstep_wait_sec(p);
    }
  };

  // ---- superstep U: routing + fills/feature rows + hop-0 seeding ----
  // Pass 1 walks the batch (every replica applies it to its topology copy)
  // recording ops and transmitting for hosted source partitions; after the
  // barrier, pass 2 replays the record in batch order against the inbox, so
  // each mailbox cell accumulates its seeds in exactly the single-machine
  // order on every backend.
  transport_->begin_superstep();
  route_batch(*transport_, batch);
  StopWatch pass1_watch;
  uops_.clear();
  apply_updates_seeding(
      graph_, batch,
      [this](VertexId u, VertexId v, EdgeWeight weight, bool is_add) {
        record_edge_op(u, v, weight, is_add);
      },
      [this](const GraphUpdate& update) { record_feature_op(update); });
  result.compute_sec += pass1_watch.elapsed_sec();
  result.comm_sec += transport_->end_superstep();
  add_transport_waits();
  StopWatch pass2_watch;
  replay_uops();
  result.compute_sec += pass2_watch.elapsed_sec();

  if (mode_ == ExecMode::kAsync) {
    // ---- barrier-free epoch: replaces the per-hop supersteps below ----
    run_async_epoch(result);
    result.wire_bytes = transport_->wire_bytes() - wire_bytes_before;
    result.wire_messages = transport_->wire_messages() - wire_messages_before;
    fill_robustness(result);
    result.sched = scheduler_->stats();
    return result;
  }

  // ---- hops 1..L: apply / exchange / seed supersteps ----
  // Every hop runs its supersteps even when this endpoint has no pending
  // cells: remote mailboxes may still produce rows for it, and the barrier
  // structure must be identical on every rank. Empty phases cost nothing
  // (an empty superstep models 0.0 seconds).
  for (std::size_t l = 1; l <= num_layers; ++l) {
    std::size_t hop_cells = 0;
    for (std::size_t p = 0; p < num_parts; ++p) {
      if (!hosts(p)) continue;
      hop_cells += mailbox(p, l).size();
    }
    result.propagation_tree_size += hop_cells;
    if (l == num_layers) result.affected_final = hop_cells;
    const bool is_last = l == num_layers;
    const std::size_t delta_dim = model_.config().layer_out_dim(l - 1);

    // Apply: every hosted partition drains its own mailbox with the shared
    // hop kernel, addressing its owned rows through the local row map; Δh
    // lands at each vertex's rank in the partition's sorted sender list.
    // Owner-computes: partitions write disjoint rows, and within a
    // partition shards hold disjoint vertices — so the drains are
    // independent tasks no matter which worker runs them.
    // No nested GEMM stealing here (scheduler = nullptr): each drain is a
    // per-task-billed body under timed_over_part_tasks, and a nested region
    // would let the help-first loop execute OTHER partitions' drains inside
    // this task's stopwatch, cross-billing their seconds into the wrong
    // endpoint. Intra-partition parallelism is already modeled by the
    // W-worker makespan bound.
    const auto drain_shard = [&](std::size_t p, std::size_t s) {
      RankState& st = states_[p];
      const Mailbox& box = st.boxes[l - 1];
      if (box.shard(s).size() == 0) return;
      const RankDeltaSink sink(senders_[p], delta_[p]);
      apply_hop_shard(model_, l, graph_, box, s, st.agg_cache[l - 1],
                      st.store.layer(l - 1), st.store.layer(l),
                      scratch_[p * kShardsPerPart + s],
                      is_last ? nullptr : &sink, nullptr,
                      row_map_.local_rows());
    };
    // Per-partition prologue (sender enumeration + delta sizing): its own
    // max-endpoint mini-phase, every machine enumerating its own senders.
    // The last hop emits no messages, so it skips the senders and deltas.
    const StopWatch prologue_watch;
    std::vector<double> prologue_sec(num_parts, 0.0);
    for (std::size_t p = 0; p < num_parts; ++p) {
      if (!hosts(p)) {
        senders_[p].clear();
        continue;
      }
      StopWatch watch;
      if (is_last) {
        senders_[p].clear();
      } else {
        mailbox(p, l).sorted_vertices(senders_[p]);
        // no_fill: the shard drains' RankDeltaSink writes every row before
        // the exchange reads any.
        delta_[p].resize_no_fill(senders_[p].size(), delta_dim);
      }
      prologue_sec[p] = watch.elapsed_sec();
    }
    result.compute_sec += serial_phase_cost(
        prologue_sec, prologue_watch.elapsed_sec(), timing, wait);
    // One stealable task per (hosted partition, shard), LPT-seeded by
    // pending slots; a partition's endpoint is the W-worker makespan
    // bound over its shard drains (dist/bsp.h), so a hot partition stops
    // gating the superstep.
    std::vector<PartTask> tasks;
    tasks.reserve(num_parts * kShardsPerPart);
    for (std::size_t p = 0; p < num_parts; ++p) {
      if (!hosts(p)) continue;
      for (std::size_t s = 0; s < kShardsPerPart; ++s) {
        tasks.push_back({static_cast<std::uint32_t>(p),
                         mailbox(p, l).shard(s).size()});
      }
    }
    result.compute_sec += timed_over_part_tasks(
        *scheduler_, num_parts, tasks,
        [&](std::size_t i) { drain_shard(tasks[i].part, i % kShardsPerPart); },
        timing, wait);

    if (!is_last) {
      // Exchange: each changed vertex's COMMITTED new H^l row goes ONCE to
      // every remote partition owning at least one of its out-neighbors —
      // same width as the delta, but carrying the state the receiver needs
      // to keep its halo coherent. Serial. Only the destination scan is
      // billed as compute; the inbox copies and the bytes themselves are
      // the transport's job (the cost model already charges the transfer —
      // timing the send too would double-count it).
      transport_->begin_superstep();
      const StopWatch scan_watch;
      std::vector<double> scan_sec(num_parts, 0.0);
      std::vector<std::pair<std::uint32_t, std::uint32_t>> sends;
      for (std::size_t p = 0; p < num_parts; ++p) {
        if (!hosts(p)) continue;
        StopWatch watch;
        sends.clear();
        for (std::size_t r = 0; r < senders_[p].size(); ++r) {
          for_each_remote_owner(
              senders_[p][r], static_cast<std::uint32_t>(p),
              [&](std::size_t q) {
                sends.push_back({static_cast<std::uint32_t>(r),
                                 static_cast<std::uint32_t>(q)});
              });
        }
        scan_sec[p] = watch.elapsed_sec();
        for (const auto& [r, q] : sends) {
          const VertexId u = senders_[p][r];
          transport_->send(p, q, u, states_[p].store.layer(l).row(local(u)));
        }
      }
      result.compute_sec +=
          serial_phase_cost(scan_sec, scan_watch.elapsed_sec(), timing, wait);
      result.comm_sec += transport_->end_superstep();
      add_transport_waits();

      // Seed: each hosted partition derives Δh for every received row
      // against its cached copy (bit-equal to the sender's subtraction at
      // f32 wire precision), writes the received bits through into the
      // halo, then merges local and derived deltas in ascending global
      // sender id order and re-expands them over its locally-owned
      // out-edges — reproducing the exact single-machine accumulation
      // order per cell.
      const bool uses_self = model_.layer(l).uses_self();
      // Wire-input validation, serial and BEFORE the pooled seed phase (an
      // exception escaping a worker task would terminate the process): a
      // width that disagrees with the hop's row shape means the frame was
      // corrupted in flight, not a programming bug — typed kCorrupt so the
      // layers above can recover from checkpoint.
      for (std::size_t q = 0; q < num_parts; ++q) {
        if (!hosts(q)) continue;
        const Transport::Inbox& inbox = transport_->inbox(q);
        for (const Transport::Message& m : inbox.messages) {
          if (inbox.payload_of(m).size() != delta_dim) {
            throw TransportError(
                TransportErrorKind::kCorrupt,
                "hop row frame width mismatch: expected " +
                    std::to_string(delta_dim) + " floats, got " +
                    std::to_string(inbox.payload_of(m).size()));
          }
        }
      }
      const auto seed_part = [&](std::size_t q) {
        if (!hosts(q)) return;
        RankState& st = states_[q];
        const Transport::Inbox& inbox = transport_->inbox(q);
        // no_fill: every row is written by the derivation loop below.
        inbox_delta_[q].resize_no_fill(inbox.messages.size(), delta_dim);
        std::vector<MergeEntry>& merged = merge_[q];
        merged.clear();
        for (std::size_t r = 0; r < senders_[q].size(); ++r) {
          merged.push_back({senders_[q][r], delta_[q].row(r).data()});
        }
        for (std::size_t i = 0; i < inbox.messages.size(); ++i) {
          const Transport::Message& m = inbox.messages[i];
          const auto payload = inbox.payload_of(m);
          // Coherence invariant: while a cut edge m.sender→q exists, every
          // change of the sender ships here — so the cached row holds the
          // sender's previous committed row, and row − cache is its Δh.
          auto cached = st.halo.row(m.sender, l);
          auto delta_row = inbox_delta_[q].row(i);
          for (std::size_t j = 0; j < delta_row.size(); ++j) {
            delta_row[j] = payload[j] - cached[j];
          }
          vec_copy(payload, cached);
          merged.push_back({m.sender, delta_row.data()});
        }
        std::sort(merged.begin(), merged.end(),
                  [](const MergeEntry& a, const MergeEntry& b) {
                    return a.sender < b.sender;
                  });
        Mailbox& next = mailbox(q, l + 1);
        for (const MergeEntry& entry : merged) {
          const std::span<const float> delta(entry.delta, delta_dim);
          for (const Neighbor& nb : graph_.out_neighbors(entry.sender)) {
            if (owner(nb.vertex) != q) continue;
            next.accumulate(nb.vertex, edge_alpha(nb.weight), delta, {});
          }
          if (uses_self && owner(entry.sender) == q) {
            next.mark_self_changed(entry.sender);
          }
        }
      };
      // One task per hosted partition: each endpoint is that partition's
      // seed seconds, the same max rule as any one-task-per-machine phase.
      std::vector<PartTask> seed_tasks;
      for (std::size_t q = 0; q < num_parts; ++q) {
        if (!hosts(q)) continue;
        seed_tasks.push_back({static_cast<std::uint32_t>(q),
                              senders_[q].size() +
                                  transport_->inbox(q).messages.size()});
      }
      result.compute_sec += timed_over_part_tasks(
          *scheduler_, num_parts, seed_tasks,
          [&](std::size_t i) { seed_part(seed_tasks[i].part); }, timing,
          wait);
    }
    for (std::size_t p = 0; p < num_parts; ++p) {
      if (hosts(p)) mailbox(p, l).clear();
    }
  }

  result.wire_bytes = transport_->wire_bytes() - wire_bytes_before;
  result.wire_messages = transport_->wire_messages() - wire_messages_before;
  fill_robustness(result);
  result.sched = scheduler_->stats();
  return result;
}

// ---- async epoch (--mode=async) ------------------------------------------

void DistRippleEngine::init_epoch_frontier(DistBatchResult& result) {
  const std::size_t num_parts = partition_.num_parts();
  const std::size_t num_layers = model_.num_layers();
  frontier_.assign(num_layers + 1, {});
  contrib_.assign(num_layers + 1, {});
  for (std::size_t p = 0; p < num_parts; ++p) {
    if (!hosts(p)) continue;
    AsyncPartState& as = async_[p];
    as.cells.reset(num_layers + 1, graph_.num_vertices());
    as.delta.assign(num_layers + 1, {});
    as.busy_sec = 0;
  }

  // Seeds from the superstep-U record: an edge op seeds its sink at every
  // hop; a feature op seeds its walk-position sinks (and its own self
  // channel) at hop 1. Presence only — the values already sit in the
  // replayed mailboxes.
  for (const UOp& op : uops_) {
    if (op.kind == UpdateKind::vertex_feature) {
      for (const auto& [sink, alpha] : op.sinks) {
        (void)alpha;
        frontier_[1].insert(sink);
      }
      if (op.self_mark) frontier_[1].insert(op.u);
    } else {
      for (std::size_t l = 1; l <= num_layers; ++l) frontier_[l].insert(op.v);
    }
  }
  // Expansion over the post-batch topology: every hop-l cell re-expands
  // over its out-edges whether or not its Δ is numerically zero (exactly
  // the BSP seed phase's rule), plus itself when layer l has a self term.
  // This is why the frontier is value-independent — and why every rank
  // derives the SAME sets from its topology replica with no communication.
  std::vector<VertexId> sorted;
  for (std::size_t l = 1; l < num_layers; ++l) {
    sorted.assign(frontier_[l].begin(), frontier_[l].end());
    std::sort(sorted.begin(), sorted.end());
    const bool uses_self = model_.layer(l).uses_self();
    for (const VertexId u : sorted) {
      for (const Neighbor& nb : graph_.out_neighbors(u)) {
        frontier_[l + 1].insert(nb.vertex);
      }
      if (uses_self) frontier_[l + 1].insert(u);
    }
  }

  // Contributor lists for hosted cells: sweeping F(l-1) in ascending sender
  // order makes every cell's list ascending for free — the exact merged
  // order the BSP seed phase would have accumulated in.
  for (std::size_t l = 2; l <= num_layers; ++l) {
    sorted.assign(frontier_[l - 1].begin(), frontier_[l - 1].end());
    std::sort(sorted.begin(), sorted.end());
    for (const VertexId u : sorted) {
      for (const Neighbor& nb : graph_.out_neighbors(u)) {
        if (!hosts(owner(nb.vertex))) continue;
        contrib_[l][nb.vertex].push_back({u, edge_alpha(nb.weight)});
      }
    }
  }

  // Register every hosted owned cell with its outstanding-contributor
  // count. Hop-1 cells depend only on superstep U and are ready at once.
  for (std::size_t l = 1; l <= num_layers; ++l) {
    const bool self_dep = l >= 2 && model_.layer(l - 1).uses_self();
    std::size_t hosted_cells = 0;
    for (const VertexId v : frontier_[l]) {
      const std::uint32_t pv = owner(v);
      if (!hosts(pv)) continue;
      ++hosted_cells;
      std::uint32_t deps = 0;
      if (l >= 2) {
        if (auto it = contrib_[l].find(v); it != contrib_[l].end()) {
          deps = static_cast<std::uint32_t>(it->second.size());
        }
        if (self_dep && frontier_[l - 1].count(v) != 0) ++deps;
      }
      async_[pv].cells.add(l, v, deps);
    }
    result.propagation_tree_size += hosted_cells;
    if (l == num_layers) result.affected_final = hosted_cells;
  }
}

void DistRippleEngine::process_remote_row(std::size_t q,
                                          const Transport::AsyncFrame& f) {
  RankState& st = states_[q];
  AsyncPartState& as = async_[q];
  const std::size_t l = f.hop;
  RIPPLE_CHECK_MSG(l >= 1 && l < model_.num_layers(),
                   "async row with out-of-range hop " << l);
  const VertexId u = f.sender;
  // Same derivation as the BSP seed phase: while a cut edge u→q exists the
  // cached halo row holds u's previous committed H^l, so payload − cache is
  // u's Δh with exactly the bits the sender's local subtraction produced.
  auto cached = st.halo.row(u, l);
  // Wire-input validation, typed kCorrupt (a truncated frame, not a bug):
  // the layers above recover by restoring from checkpoint.
  if (f.row.size() != cached.size()) {
    throw TransportError(TransportErrorKind::kCorrupt,
                         "async row frame width mismatch: expected " +
                             std::to_string(cached.size()) + " floats, got " +
                             std::to_string(f.row.size()));
  }
  std::vector<float> delta_row(cached.size());
  for (std::size_t j = 0; j < delta_row.size(); ++j) {
    delta_row[j] = f.row[j] - cached[j];
  }
  // Versioned write-through: stamps grow strictly in (batch, hop), so even
  // a reordered delivery could never let a stale row clobber a fresher one.
  // Under the protocol each (u, layer) arrives at most once per epoch, so a
  // stale or duplicate write means the wire delivered a frame the protocol
  // never sent — typed kProtocol, recoverable by checkpoint restore.
  const bool fresh = st.halo.write_through(u, l, f.row, epoch_version(l));
  if (!fresh) {
    throw TransportError(TransportErrorKind::kProtocol,
                         "async row arrived version-stale (duplicated or "
                         "replayed frame)");
  }
  const bool inserted = as.delta[l].emplace(u, std::move(delta_row)).second;
  if (!inserted) {
    throw TransportError(TransportErrorKind::kProtocol,
                         "duplicate async row in one epoch");
  }
  for (const Neighbor& nb : graph_.out_neighbors(u)) {
    if (owner(nb.vertex) == q) as.cells.credit(l + 1, nb.vertex);
  }
}

void DistRippleEngine::build_wave_box(std::size_t q, std::size_t l,
                                      const std::vector<VertexId>& wave) {
  AsyncPartState& as = async_[q];
  const bool is_last = l == model_.num_layers();
  const bool self_dep = l >= 2 && model_.layer(l - 1).uses_self();
  Mailbox& box = wave_boxes_[l - 1];
  box.clear();
  const Mailbox& seeds = mailbox(q, l);
  for (const VertexId v : wave) {
    // Reproduce the BSP cell bit-for-bit: superstep-U seed bits first (a
    // bit COPY — adding them to a zero cell could flip a negative zero),
    // then every contributor's Δ in ascending global sender order.
    if (const auto seed = seeds.find(v)) {
      box.adopt(v, seed->delta_agg, seed->touched_agg, seed->self_changed);
    }
    if (l >= 2) {
      if (auto it = contrib_[l].find(v); it != contrib_[l].end()) {
        for (const auto& [u, alpha] : it->second) {
          box.accumulate(v, alpha,
                         std::span<const float>(as.delta[l - 1].at(u)), {});
        }
      }
      if (self_dep && frontier_[l - 1].count(v) != 0) {
        box.mark_self_changed(v);
      }
    }
  }
  box.sorted_vertices(wave_senders_);
  if (!is_last) {
    // no_fill: the shard drains' RankDeltaSink writes every row before
    // finish_wave reads any.
    wave_delta_.resize_no_fill(wave_senders_.size(),
                               model_.config().layer_out_dim(l - 1));
  }
}

void DistRippleEngine::drain_wave_shard(std::size_t q, std::size_t l,
                                        std::size_t s) {
  RankState& st = states_[q];
  const Mailbox& box = wave_boxes_[l - 1];
  if (box.shard(s).size() == 0) return;
  const bool is_last = l == model_.num_layers();
  const RankDeltaSink sink(wave_senders_, wave_delta_);
  apply_hop_shard(model_, l, graph_, box, s, st.agg_cache[l - 1],
                  st.store.layer(l - 1), st.store.layer(l),
                  scratch_[q * kShardsPerPart + s],
                  is_last ? nullptr : &sink, nullptr,
                  row_map_.local_rows());
}

void DistRippleEngine::finish_wave(std::size_t q, std::size_t l) {
  if (l == model_.num_layers()) return;  // last hop: nothing downstream
  RankState& st = states_[q];
  AsyncPartState& as = async_[q];
  TerminationDetector& det = detectors_[q];
  const bool uses_self = model_.layer(l).uses_self();
  for (std::size_t r = 0; r < wave_senders_.size(); ++r) {
    const VertexId v = wave_senders_[r];
    const auto drow = wave_delta_.row(r);
    const bool inserted =
        as.delta[l]
            .emplace(v, std::vector<float>(drow.begin(), drow.end()))
            .second;
    RIPPLE_CHECK_MSG(inserted, "async cell applied twice in one epoch");
    // Remote owners get v's COMMITTED new H^l row, hop-tagged — the §5.1
    // stub-combining rule, one frame per remote partition. Each send is a
    // counted row message for the termination detector.
    for_each_remote_owner(
        v, static_cast<std::uint32_t>(q), [&](std::size_t dst) {
          transport_->send_row(q, dst, v, static_cast<std::uint32_t>(l),
                               st.store.layer(l).row(local(v)));
          det.on_send();
        });
    for (const Neighbor& nb : graph_.out_neighbors(v)) {
      if (owner(nb.vertex) == q) as.cells.credit(l + 1, nb.vertex);
    }
    if (uses_self) as.cells.credit(l + 1, v);
  }
}

bool DistRippleEngine::rank_step(std::size_t q) {
  AsyncPartState& as = async_[q];
  TerminationDetector& det = detectors_[q];
  bool progress = false;

  // Consume whatever arrived. Only a lone-hosted endpoint (tcp) may block
  // in the poll, and only when it has nothing else to do; the hosts-all sim
  // round-robin must keep every partition stepping.
  const int timeout_ms =
      (transport_->measures_time() && as.cells.idle() && !det.terminated())
          ? 1
          : 0;
  frames_.clear();
  transport_->poll_async(q, frames_, timeout_ms);
  const StopWatch busy_watch;
  for (const Transport::AsyncFrame& f : frames_) {
    if (f.is_token) {
      // Token traffic is NOT progress: a circulating token with an unmet
      // deficit would otherwise reset the epoch driver's stall detector
      // forever, turning a lost row into an infinite spin instead of the
      // typed kTimeout it must surface as.
      det.receive_token(f.token);
    } else {
      progress = true;
      det.on_receive();
      process_remote_row(q, f);
    }
  }

  // Cascade ready waves lowest hop first — applying hop l only readies hop
  // l+1 cells, so one sweep drains everything currently reachable.
  const std::size_t num_layers = model_.num_layers();
  if (!as.cells.idle()) {
    progress = true;
    // Serial refill between waves does the post-wave bookkeeping (delta
    // store, row sends, credits) and hands the next ready wave's shard
    // drains to the stealing scheduler.
    std::size_t cur_hop = 0;
    scheduler_->drain_until_quiet(
        [&]() -> std::size_t {
          if (cur_hop != 0) finish_wave(q, cur_hop);
          const std::size_t l = as.cells.lowest_ready();
          if (l > num_layers) return 0;
          cur_hop = l;
          build_wave_box(q, l, as.cells.take_ready(l));
          return kShardsPerPart;
        },
        [&](std::size_t s) { drain_wave_shard(q, cur_hop, s); });

  }
  as.busy_sec += busy_watch.elapsed_sec();

  // Termination: pass the token on (or, at rank 0, evaluate it) whenever
  // the local worklists are drained. Forwarding is control traffic, not
  // progress, for the same stall-detector reason as token receipt above.
  if (auto token = det.try_forward(as.cells.idle())) {
    transport_->send_token(q, det.next_rank(), *token);
  }
  return progress;
}

void DistRippleEngine::run_async_epoch(DistBatchResult& result) {
  const std::size_t num_parts = partition_.num_parts();
  const std::size_t num_layers = model_.num_layers();
  const std::size_t tokens_before = transport_->token_messages();
  const StopWatch epoch_watch;

  init_epoch_frontier(result);
  for (std::size_t p = 0; p < num_parts; ++p) {
    if (hosts(p)) detectors_[p].begin_epoch();
  }
  transport_->begin_epoch();

  // Drive hosted partitions until every hosted detector agrees the epoch is
  // over. The sim transport hosts all partitions and steps them round-robin
  // in rank order (deterministic — delivery skew comes only from the
  // transport's seeded model); a real transport hosts exactly one.
  drive_async_epoch(*transport_, detectors_, num_parts,
                    [this](std::size_t p) { return rank_step(p); });
  transport_->end_epoch();

  // Termination must coincide with structural quiescence.
  std::vector<double> busy(num_parts, 0.0);
  for (std::size_t p = 0; p < num_parts; ++p) {
    if (!hosts(p)) continue;
    AsyncPartState& as = async_[p];
    RIPPLE_CHECK_MSG(as.cells.remaining() == 0,
                     "async epoch terminated with unapplied cells");
    busy[p] = as.busy_sec;
    for (std::size_t l = 1; l <= num_layers; ++l) mailbox(p, l).clear();
    as.delta.clear();
  }
  result.token_messages = transport_->token_messages() - tokens_before;
  finish_epoch_timing(*transport_, busy, epoch_watch.elapsed_sec(), result);
}

double DistRippleEngine::write_checkpoint(const std::string& dir,
                                          std::uint64_t stream_cursor) {
  StopWatch watch;
  const std::size_t num_layers = model_.num_layers();
  const std::size_t width = ripple_checkpoint_row_width(model_.config());
  CheckpointMeta base;
  base.engine_key = "ripple";
  base.stream_cursor = stream_cursor;
  base.num_parts = static_cast<std::uint32_t>(partition_.num_parts());
  base.num_vertices = graph_.num_vertices();
  base.row_width = static_cast<std::uint32_t>(width);
  base.part_of.resize(graph_.num_vertices());
  for (VertexId v = 0; v < base.part_of.size(); ++v) {
    base.part_of[v] = owner(v);
  }
  for (std::size_t p = 0; p < partition_.num_parts(); ++p) {
    if (!hosts(p)) continue;
    CheckpointData data;
    data.meta = base;
    data.meta.rank = static_cast<std::uint32_t>(p);
    data.vertices = row_map_.owned(p);  // ascending global ids
    data.rows.reserve(data.vertices.size() * width);
    const RankState& st = states_[p];
    for (const VertexId v : data.vertices) {
      const std::uint32_t r = local(v);
      for (std::size_t l = 0; l <= num_layers; ++l) {
        const auto row = st.store.layer(l).row(r);
        data.rows.insert(data.rows.end(), row.begin(), row.end());
      }
      for (std::size_t l = 0; l < num_layers; ++l) {
        const auto row = st.agg_cache[l].row(r);
        data.rows.insert(data.rows.end(), row.begin(), row.end());
      }
    }
    write_checkpoint_file(dir, data);
  }
  return watch.elapsed_sec();
}

void DistRippleEngine::restore_checkpoint(const std::string& dir,
                                          std::uint64_t stream_cursor) {
  const std::size_t num_parts = partition_.num_parts();
  const std::size_t num_layers = model_.num_layers();
  const ModelConfig& config = model_.config();
  const std::size_t width = ripple_checkpoint_row_width(config);
  std::size_t halo_width = 0;
  for (std::size_t l = 0; l < num_layers; ++l) {
    halo_width += config.embedding_dim(l);
  }

  // ---- install owned rows from this endpoint's hosted files ----
  for (std::size_t p = 0; p < num_parts; ++p) {
    if (!hosts(p)) continue;
    const CheckpointData data =
        read_checkpoint_file(checkpoint_path(dir, stream_cursor, p));
    RIPPLE_CHECK_MSG(data.meta.engine_key == "ripple",
                     "checkpoint engine key mismatch: expected ripple, file "
                     "holds " << data.meta.engine_key);
    RIPPLE_CHECK(data.meta.num_parts == num_parts);
    RIPPLE_CHECK_MSG(data.meta.num_vertices == graph_.num_vertices(),
                     "checkpoint vertex count disagrees with the topology "
                     "this engine was rebuilt over");
    RIPPLE_CHECK(data.meta.row_width == width);
    for (VertexId v = 0; v < graph_.num_vertices(); ++v) {
      RIPPLE_CHECK_MSG(data.meta.part_of[v] == owner(v),
                       "checkpoint partition assignment disagrees at vertex "
                           << v);
    }
    RIPPLE_CHECK_MSG(data.vertices.size() == row_map_.part_size(p),
                     "checkpoint owned-row count mismatch for partition "
                         << p);
    RankState& st = states_[p];
    const float* row = data.rows.data();
    for (const VertexId v : data.vertices) {
      const std::uint32_t r = local(v);
      std::size_t off = 0;
      for (std::size_t l = 0; l <= num_layers; ++l) {
        auto out = st.store.layer(l).row(r);
        vec_copy(std::span<const float>(row + off, out.size()), out);
        off += out.size();
      }
      for (std::size_t l = 0; l < num_layers; ++l) {
        auto out = st.agg_cache[l].row(r);
        vec_copy(std::span<const float>(row + off, out.size()), out);
        off += out.size();
      }
      RIPPLE_CHECK(off == width);
      row += width;
    }
  }
  // Halo version stamps resume monotone: the next batch's write_throughs
  // stamp (cursor+1)*(L+1)+l, above anything a never-failed run committed
  // through batch `cursor`.
  batches_applied_ = stream_cursor;

  // ---- one halo-refill superstep ----
  // Halo MEMBERSHIP is already exact — the constructor derived it from the
  // same topology + assignment a never-failed run would hold — but the
  // cached VALUES are constructor bootstrap, not the checkpointed
  // embeddings. Every owner ships H^0..H^{L-1} of its boundary vertices to
  // the partitions caching them; both sides derive the identical schedule
  // (destination ascending, vertex ascending — build_halo_index's order)
  // from replicated state and consume the inbox through per-source FIFO
  // cursors, so sim's globally-interleaved inbox and tcp's sender-grouped
  // inbox install identically. The rows travel as exact state-row frames
  // (send_migrate): never wire-rounded, whatever --wire-precision says.
  const HaloIndex halo = build_halo_index(graph_, partition_);
  transport_->begin_superstep();
  std::vector<float> frame;
  for (std::size_t p = 0; p < num_parts; ++p) {
    for (const VertexId v : halo.halo_in[p]) {
      const std::uint32_t src = owner(v);
      if (!hosts(src)) continue;
      const RankState& st = states_[src];
      const std::uint32_t r = local(v);
      frame.clear();
      for (std::size_t l = 0; l < num_layers; ++l) {
        const auto row = st.store.layer(l).row(r);
        frame.insert(frame.end(), row.begin(), row.end());
      }
      RIPPLE_CHECK(frame.size() == halo_width);
      transport_->send_migrate(src, p, v, frame);
    }
  }
  transport_->end_superstep();

  std::vector<std::vector<std::vector<std::uint32_t>>> fifo(num_parts);
  std::vector<std::vector<std::size_t>> next(num_parts);
  for (std::size_t p = 0; p < num_parts; ++p) {
    if (!hosts(p)) continue;
    fifo[p].resize(num_parts);
    next[p].assign(num_parts, 0);
    const Transport::Inbox& inbox = transport_->inbox(p);
    for (std::size_t i = 0; i < inbox.messages.size(); ++i) {
      fifo[p][inbox.messages[i].src_part].push_back(
          static_cast<std::uint32_t>(i));
    }
  }
  for (std::size_t p = 0; p < num_parts; ++p) {
    if (!hosts(p)) continue;
    RankState& st = states_[p];
    for (const VertexId v : halo.halo_in[p]) {
      const std::size_t src = owner(v);
      auto& queue = fifo[p][src];
      std::size_t& cursor = next[p][src];
      RIPPLE_CHECK_MSG(cursor < queue.size(),
                       "restore underflow: partition "
                           << p << " expected another halo row from " << src);
      const Transport::Message& m =
          transport_->inbox(p).messages[queue[cursor++]];
      RIPPLE_CHECK(m.sender == v);
      const auto payload = transport_->inbox(p).payload_of(m);
      RIPPLE_CHECK(payload.size() == halo_width);
      RIPPLE_CHECK_MSG(st.halo.contains(v),
                       "restore halo fill for vertex " << v
                           << " absent from the cache");
      std::size_t off = 0;
      for (std::size_t l = 0; l < num_layers; ++l) {
        auto row = st.halo.row(v, l);
        vec_copy(payload.subspan(off, row.size()), row);
        off += row.size();
      }
      RIPPLE_CHECK(off == payload.size());
    }
  }
  for (std::size_t p = 0; p < num_parts; ++p) {
    if (!hosts(p)) continue;
    for (std::size_t src = 0; src < num_parts; ++src) {
      RIPPLE_CHECK_MSG(next[p][src] == fifo[p][src].size(),
                       "restore leftovers: partition "
                           << p << " holds unconsumed halo rows from "
                           << src);
    }
  }
}

EmbeddingStore DistRippleEngine::gather_embeddings() {
  return gather_owned_store(
      *transport_, row_map_, model_.config(), graph_.num_vertices(),
      [this](std::size_t p, std::size_t l, VertexId v) {
        return std::span<const float>(
            states_[p].store.layer(l).row(local(v)));
      });
}

std::size_t DistRippleEngine::memory_bytes() const {
  // One rank's row state: the LARGEST hosted partition's footprint (per
  // the DistEngineBase contract) plus the shared row map. The replicated
  // topology is deliberately excluded — see src/dist/README.md. Mailboxes
  // are counted whole: each partition's boxes only ever hold cells for
  // vertices it owns (seeding guards on ownership), so summing
  // Mailbox::bytes() cannot double-count; their dense index spans the whole
  // vertex range, at 4.5 bytes per vertex and hop with 4 shards. The async
  // wave boxes are shared by every hosted partition and count once.
  std::size_t worst = 0;
  for (std::size_t p = 0; p < states_.size(); ++p) {
    if (!transport_->hosts(p)) continue;
    const RankState& st = states_[p];
    std::size_t bytes = st.store.bytes() + st.halo.bytes();
    for (const Matrix& cache : st.agg_cache) bytes += cache.bytes();
    for (const Mailbox& box : st.boxes) bytes += box.bytes();
    worst = std::max(worst, bytes);
  }
  std::size_t wave_bytes = 0;
  for (const Mailbox& box : wave_boxes_) wave_bytes += box.bytes();
  return worst + wave_bytes + row_map_.bytes();
}

}  // namespace ripple
