// Distributed streaming inference runtime (§5): partition-owned engines
// over per-rank state.
//
// Ownership model (owner-computes, owned rows): the partition owning a
// vertex is the single writer of its embedding rows, aggregate-cache rows,
// and mailbox cells — and those rows exist ONLY at the owning rank, stored
// densely under a stable global→local row map (partition/LocalRowMap).
// Remote boundary rows a rank must read live in its halo cache
// (dist/halo_cache.h), kept coherent by the rows the protocol already
// ships. Topology stays replicated (every rank applies every batch to its
// graph copy), which is what lets routing/fill decisions be computed on
// both sides of the wire without request round-trips. Updates enter at an
// ingress leader (partition 0); per hop, each rank drains its own mailbox,
// and only cross-partition rows travel over the wire. Which partitions an
// endpoint hosts is Transport::hosts(): SimTransport hosts all (whole
// cluster in one process), TcpTransport hosts exactly its rank. See
// src/dist/README.md for the full protocol and the cost model.
//
// Exactness contract: for ANY partition count and ANY thread count, both
// engines produce embeddings bit-identical to their single-machine
// counterparts (RippleEngine / RecomputeEngine) — property-tested in
// tests/dist/test_dist_engine.cpp and, across real sockets, in
// tests/dist/test_transport.cpp.
#pragma once

#include <functional>
#include <memory>
#include <span>
#include <string>

#include "common/scheduler.h"
#include "dist/transport.h"
#include "gnn/model.h"
#include "graph/dynamic_graph.h"
#include "partition/partition.h"
#include "stream/update.h"

namespace ripple {

class ThreadPool;

// Execution mode of the distributed engines (--mode). kBsp runs the classic
// per-hop superstep barriers; kAsync replaces the hop barriers with one
// barrier-free epoch per batch: dependency-counted pending-delta worklists,
// eager application of frames as they arrive, and Safra-token termination
// detection (dist/termination.h, docs/async.md). Async converges to the
// SAME fixed point — embeddings bit-equal to BSP and single-machine after
// quiescence — it just gets there without coupling the ranks per hop.
enum class ExecMode { kBsp, kAsync };

const char* exec_mode_name(ExecMode mode);
// Parses "bsp" / "async"; dies with a message on anything else.
ExecMode parse_exec_mode(const std::string& name);
// The accepted --mode values, for Flags::get_choice.
const std::vector<std::string>& exec_mode_choices();

// Per-batch outcome of a distributed engine: the compute/comm split and the
// wire counters behind Figs. 12–13. On the simulated transport,
// compute_sec models P machines running in parallel (sum over supersteps
// of the slowest partition) and comm_sec is the cost model's total for the
// batch; on a real transport (comm_measured == true) both are this rank's
// measured wall-clock seconds instead.
struct DistBatchResult {
  std::size_t batch_size = 0;
  std::size_t num_parts = 0;
  std::size_t propagation_tree_size = 0;  // Σ over hops of |affected set|
  std::size_t affected_final = 0;         // |affected set| at hop L
  double compute_sec = 0;
  double comm_sec = 0;
  // Async mode only: seconds of the barrier-free propagation epoch (the
  // part that replaces the per-hop supersteps). Modeled on sim as the
  // slowest rank's max(busy, epoch-comm) — non-blocking sends and polls
  // overlap the NIC with the worklist CPU, and there is no per-hop max
  // coupling, two reductions BSP's barriers forbid; measured wall clock on
  // tcp. 0 in BSP mode (hops bill into compute_sec/comm_sec instead).
  double epoch_sec = 0;
  // True when the transport measures real seconds (Transport::
  // measures_time()): benches must not average modeled and measured runs.
  bool comm_measured = false;
  std::size_t wire_bytes = 0;     // payload + headers, all supersteps
  std::size_t wire_messages = 0;  // messages across all supersteps
  std::size_t token_messages = 0;  // termination tokens (async control)
  // Robustness counters, as per-batch deltas of the transport's cumulative
  // totals (docs/fault_tolerance.md): reconnect attempts burned by dial
  // backoff, deadline expiries, and liveness heartbeat frames sent from
  // idle wait loops. All zero on sim and on a healthy, busy tcp cluster.
  std::size_t retries = 0;
  std::size_t timeouts = 0;
  std::size_t heartbeats = 0;
  // Per-partition barrier stall (BSP): time spent waiting at superstep
  // barriers behind slower endpoints — modeled on sim (slowest endpoint
  // minus own), measured on tcp (only the local rank's slot is filled).
  // This is exactly the time --mode=async removes.
  std::vector<double> barrier_wait_sec;
  // Per-partition idle time inside an async epoch (makespan minus own
  // busy+comm on sim; measured no-progress poll time on tcp).
  std::vector<double> idle_sec;
  // Work-stealing scheduler stats of the compute phases (width 1 without a
  // pool): see common/scheduler.h and the BSP accounting note in
  // src/dist/README.md.
  SchedulerStats sched;
  double total_sec() const { return compute_sec + comm_sec + epoch_sec; }
  // Per-partition busy seconds this batch: the batch total minus the
  // partition's own stall slots. On modeled timing every phase bills the
  // slowest endpoint and barrier_wait_sec[p] is exactly max − own per phase
  // (compute phases via bsp.h, comm supersteps via superstep_wait_sec), so
  // the difference recovers each rank's own compute + own wire seconds;
  // async epochs remove idle_sec[p] from the makespan the same way. The
  // base must be total_sec() — comm included — because the stall vector
  // folds in comm-barrier waits: a compute-only base would clamp every
  // rank but the comm-slowest to zero on comm-dominated runs. This is the
  // per-rank busy-share column fig12 prints.
  double busy_share_sec(std::size_t p) const {
    double busy = total_sec();
    if (p < barrier_wait_sec.size()) busy -= barrier_wait_sec[p];
    if (p < idle_sec.size()) busy -= idle_sec[p];
    return std::max(0.0, busy);
  }
  double barrier_wait_max() const {
    double worst = 0;
    for (const double v : barrier_wait_sec) worst = std::max(worst, v);
    return worst;
  }
  double idle_max() const {
    double worst = 0;
    for (const double v : idle_sec) worst = std::max(worst, v);
    return worst;
  }
};

class DistEngineBase {
 public:
  virtual ~DistEngineBase() = default;

  virtual const char* name() const = 0;

  // Applies one batch across all partitions and brings every owned
  // embedding up to date.
  virtual DistBatchResult apply_batch(UpdateBatch batch) = 0;

  // Collects every partition's owned rows at the leader (H^0..H^L union).
  // This is a COLLECTIVE: every rank of a real transport must call it at
  // the same point (it runs a superstep of owned-row collection frames).
  // The leader's returned store holds the full table; a non-leader rank's
  // store holds only its own owned rows (zeros elsewhere). Rows travel via
  // Transport::send_exact — never wire-rounded, so leader assembly is
  // bit-exact at any --wire-precision. The gather's wire cost is charged to
  // the transport's cumulative counters but to no batch — it is a
  // diagnostic/serving operation outside the streaming loop.
  virtual EmbeddingStore gather_embeddings() = 0;

  // Snapshots every HOSTED partition's owned state to per-rank checkpoint
  // files in `dir` (dist/checkpoint.h): one file per hosted partition,
  // CRC-checksummed and atomically renamed. `stream_cursor` is the number
  // of batches applied so far and names the files. LOCAL — no wire traffic,
  // callable at any between-batches point. Returns seconds spent writing.
  virtual double write_checkpoint(const std::string& dir,
                                  std::uint64_t stream_cursor) = 0;

  // Restores a freshly constructed engine from the checkpoint at
  // `stream_cursor`. Precondition: this engine was built over the graph
  // TOPOLOGY as of the cursor (the driver replays the stream prefix's
  // structure) with any right-shaped feature matrix, and over a Partition
  // equal to the checkpointed assignment — every restored bit comes from
  // the files, not the constructor bootstrap. This is a COLLECTIVE: it runs
  // one halo-refill superstep (ripple engine) so every rank must call it at
  // the same point. After it returns, replaying the stream suffix produces
  // embeddings BIT-identical to a run that never failed
  // (tests/dist/test_checkpoint.cpp). Throws TransportError{kCorrupt} on a
  // damaged file.
  virtual void restore_checkpoint(const std::string& dir,
                                  std::uint64_t stream_cursor) = 0;

  virtual const Partition& partition() const = 0;
  virtual const DynamicGraph& graph() const = 0;
  virtual const GnnModel& model() const = 0;

  // Resident bytes of ONE rank's row state: owned embedding rows, aggregate
  // caches, this rank's mailbox shards, halo cache, and the row map. On a
  // hosts-all transport (sim) this reports the LARGEST hosted rank's
  // footprint — the per-machine figure a real deployment would see — so
  // growing num_parts genuinely shrinks it. The replicated topology is
  // excluded (it is shared infrastructure, not row state; see
  // src/dist/README.md).
  virtual std::size_t memory_bytes() const = 0;
};

// Factory keys used by the dist benches: "ripple" (incremental,
// delta-shipping) and "rc" (full recompute, halo-pulling). Every engine
// runs its compute phases on the work-stealing scheduler, which spreads a
// hot partition's sub-tasks (mailbox shards / recompute blocks) over idle
// pool workers. `scheduler` has one value and is ignored; it stays only for
// the perfbench driver, which still passes it. This overload runs over a
// SimTransport built from `options`.
std::unique_ptr<DistEngineBase> make_dist_engine(
    const std::string& key, const GnnModel& model,
    const DynamicGraph& snapshot, const Matrix& features,
    const Partition& partition, ThreadPool* pool = nullptr,
    const TransportOptions& options = default_transport_options(),
    SchedulerMode scheduler = SchedulerMode::kSteal,
    ExecMode mode = ExecMode::kBsp);

// Backend-explicit overload: the caller supplies the transport (e.g. a
// TcpTransport wired to its rank's peers). transport->num_parts() must
// equal partition.num_parts(); the engine takes ownership.
std::unique_ptr<DistEngineBase> make_dist_engine(
    const std::string& key, const GnnModel& model,
    const DynamicGraph& snapshot, const Matrix& features,
    const Partition& partition, ThreadPool* pool,
    std::unique_ptr<Transport> transport,
    SchedulerMode scheduler = SchedulerMode::kSteal,
    ExecMode mode = ExecMode::kBsp);

// Shared async-epoch timing epilogue: fills epoch_sec and idle_sec from the
// per-partition machine-busy seconds accumulated across one barrier-free
// epoch. Measured transports report the epoch's wall clock (idle = wall −
// own busy); modeled ones take the makespan max_p(max(busy_p, epoch traffic
// of p)) — NIC/CPU overlap per rank and NO per-hop max coupling, the two
// reductions that put async's modeled epoch below the BSP hop total for the
// same work (docs/async.md).
void finish_epoch_timing(const Transport& transport,
                         const std::vector<double>& busy_sec, double wall_sec,
                         DistBatchResult& result);

// Shared gather_embeddings() implementation: every hosted non-leader
// partition ships its owned rows (H^0..H^L concatenated per vertex) to the
// leader over send_exact; the returned store holds the hosted partitions'
// rows plus — at the endpoint hosting the leader — everything received.
// `owned_row(part, layer, v)` must return the hosted partition's committed
// row of v (v is a global id, owned by `part`).
EmbeddingStore gather_owned_store(
    Transport& transport, const LocalRowMap& rows, const ModelConfig& config,
    std::size_t num_vertices,
    const std::function<std::span<const float>(
        std::size_t part, std::size_t layer, VertexId v)>& owned_row);

}  // namespace ripple
