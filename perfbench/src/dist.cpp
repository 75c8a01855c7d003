// dist-papers: dist-Ripple, BSP, one single-threaded rank per partition over
// real loopback TCP (run_loopback_ranks), closed loop, with every rank
// writing a checkpoint every kCheckpointEvery batches.
#include <sys/mman.h>

#include <algorithm>
#include <atomic>
#include <cstring>
#include <filesystem>
#include <limits>
#include <memory>
#include <vector>

#include "common/thread_pool.h"
#include "core/ripple_engine.h"
#include "dist/checkpoint.h"
#include "dist/dist_engine.h"
#include "dist/loopback.h"
#include "dist/tcp_transport.h"
#include "graph/datasets.h"
#include "loadgen.h"
#include "partition/partition.h"
#include "stream/generator.h"
#include "trace.h"
#include "workloads.h"

namespace perfbench {
namespace {

constexpr const char* kDataset = "papers-s";
constexpr double kScale = 0.25;
constexpr std::size_t kRanks = 4;
constexpr std::size_t kLayers = 3;
constexpr std::size_t kBatch = 100;
constexpr std::size_t kStreamUpdates = 200'000;
constexpr std::size_t kSetupReps = 5;       // the last one also streams
constexpr std::size_t kWarmupBatches = 5;   // untimed
constexpr std::size_t kCheckpointEvery = 50;
constexpr std::size_t kTraceBlock = 10;     // batches per traced/untraced block

// Simple flat serialization for the per-rank result blob.
class BlobWriter {
 public:
  template <typename T>
  void put(const T& value) {
    const auto* p = reinterpret_cast<const std::uint8_t*>(&value);
    bytes_.insert(bytes_.end(), p, p + sizeof(T));
  }
  template <typename T>
  void put(const std::vector<T>& values) {
    put<std::uint64_t>(values.size());
    for (const T& v : values) put(v);
  }
  std::vector<std::uint8_t> take() { return std::move(bytes_); }

 private:
  std::vector<std::uint8_t> bytes_;
};

class BlobReader {
 public:
  explicit BlobReader(const std::vector<std::uint8_t>& bytes)
      : bytes_(bytes) {}
  template <typename T>
  void get(T& value) {
    RIPPLE_CHECK(at_ + sizeof(T) <= bytes_.size());
    std::memcpy(&value, bytes_.data() + at_, sizeof(T));
    at_ += sizeof(T);
  }
  template <typename T>
  void get(std::vector<T>& values) {
    std::uint64_t n = 0;
    get(n);
    RIPPLE_CHECK(n <= bytes_.size());
    values.resize(n);
    for (T& v : values) get(v);
  }

 private:
  const std::vector<std::uint8_t>& bytes_;
  std::size_t at_ = 0;
};

// What one rank reports back. Times are absolute CLOCK_MONOTONIC seconds,
// comparable across the forked ranks.
struct RankResult {
  double mesh_begin = 0, mesh_end = 0, ready = 0;
  std::vector<double> begin, end;  // per batch: apply_batch call / return
  std::vector<std::uint64_t> tree, wire_bytes, wire_messages;  // per batch
  std::vector<double> ckpt_sec;
  std::uint64_t ckpt_bytes = 0;
  // Totals over traced batches.
  double traced_wall = 0, engine_compute = 0;
  TransportTimes transport;
  double rss_mb = 0;
  // Leader only: gathered store vs single-machine RippleEngine.
  std::uint8_t checked = 0, bit_identical = 0;

  std::vector<std::uint8_t> serialize() const {
    BlobWriter w;
    w.put(mesh_begin), w.put(mesh_end), w.put(ready);
    w.put(begin), w.put(end), w.put(tree), w.put(wire_bytes),
        w.put(wire_messages), w.put(ckpt_sec), w.put(ckpt_bytes);
    w.put(traced_wall), w.put(engine_compute), w.put(transport);
    w.put(rss_mb), w.put(checked), w.put(bit_identical);
    return w.take();
  }
  static RankResult parse(const std::vector<std::uint8_t>& bytes) {
    RankResult r;
    BlobReader in(bytes);
    in.get(r.mesh_begin), in.get(r.mesh_end), in.get(r.ready);
    in.get(r.begin), in.get(r.end), in.get(r.tree), in.get(r.wire_bytes),
        in.get(r.wire_messages), in.get(r.ckpt_sec), in.get(r.ckpt_bytes);
    in.get(r.traced_wall), in.get(r.engine_compute), in.get(r.transport);
    in.get(r.rss_mb), in.get(r.checked), in.get(r.bit_identical);
    return r;
  }
};

// The leader's stop decision, shared with every forked rank: a rank runs
// batch b only while b < stop_at. The leader sets stop_at = b + 2 after
// finishing batch b; no rank can have finished batch b + 1 by then (it
// needs the leader's supersteps), so every rank stops at the same batch.
struct SharedStop {
  std::atomic<std::int64_t> stop_at{std::numeric_limits<std::int64_t>::max()};
};
static_assert(std::atomic<std::int64_t>::is_always_lock_free);

class SharedStopMapping {
 public:
  SharedStopMapping() {
    void* p = ::mmap(nullptr, sizeof(SharedStop), PROT_READ | PROT_WRITE,
                     MAP_SHARED | MAP_ANONYMOUS, -1, 0);
    RIPPLE_CHECK_MSG(p != MAP_FAILED, "mmap shared stop flag");
    stop_ = new (p) SharedStop();
  }
  ~SharedStopMapping() {
    stop_->~SharedStop();
    ::munmap(stop_, sizeof(SharedStop));
  }
  SharedStopMapping(const SharedStopMapping&) = delete;
  SharedStopMapping& operator=(const SharedStopMapping&) = delete;
  SharedStop& get() { return *stop_; }

 private:
  SharedStop* stop_ = nullptr;
};

bool stores_bit_identical(const ripple::EmbeddingStore& a,
                          const ripple::EmbeddingStore& b) {
  if (a.num_layers() != b.num_layers()) return false;
  for (std::size_t l = 0; l <= a.num_layers(); ++l) {
    const ripple::Matrix& x = a.layer(l);
    const ripple::Matrix& y = b.layer(l);
    if (x.rows() != y.rows() || x.cols() != y.cols() ||
        std::memcmp(x.data(), y.data(), x.size() * sizeof(float)) != 0) {
      return false;
    }
  }
  return true;
}

}  // namespace

void run_dist_papers(const RunConfig& config, Report& report) {
  if (!fingerprint_threads(config, 0, kRanks, kRanks, report)) return;
  report.fingerprint("checkpoint_every", std::to_string(kCheckpointEvery));

  // ---- inputs (not timed) ----
  ripple::Dataset ds = ripple::build_dataset(kDataset, kScale, config.seed);
  ripple::StreamConfig stream_config;
  stream_config.num_updates = kStreamUpdates;
  stream_config.feat_dim = ds.spec.feat_dim;
  stream_config.seed = config.seed + 1;
  const std::vector<ripple::GraphUpdate> stream =
      ripple::generate_stream(ds.graph, stream_config);
  const auto model_config = ripple::workload_config(
      ripple::Workload::gc_s, ds.spec.feat_dim, ds.spec.num_classes, kLayers,
      64);
  const ripple::GnnModel model =
      ripple::GnnModel::random(model_config, kModelSeed);
  const auto batches = ripple::make_batches(stream, kBatch);
  const std::string ckpt_dir = config.scratch_dir + "/ckpt";
  std::filesystem::create_directories(ckpt_dir);
  SharedStopMapping shared;

  std::vector<double> setup_sec, partition_sec, mesh_sec, bootstrap_sec;
  std::vector<RankResult> ranks;
  for (std::size_t rep = 0; rep < kSetupReps; ++rep) {
    const bool stream_run = rep + 1 == kSetupReps;
    std::fflush(stdout);  // the children must not inherit buffered output
    const double t0 = now_sec();
    auto partition = ripple::ldg_partition(ds.graph, kRanks);
    ripple::refine_partition(ds.graph, partition, 2);
    const double t_partitioned = now_sec();

    const auto body = [&](const ripple::TcpConfig& tcp) {
      RankResult out;
      out.mesh_begin = now_sec();
      std::unique_ptr<ripple::Transport> wire =
          std::make_unique<ripple::TcpTransport>(
              kRanks, ripple::default_transport_options(), tcp);
      out.mesh_end = now_sec();
      TimedTransport* timed = nullptr;
      if (config.trace) {
        auto wrapper = std::make_unique<TimedTransport>(std::move(wire),
                                                        tcp.rank);
        timed = wrapper.get();
        wire = std::move(wrapper);
      }
      auto engine = ripple::make_dist_engine(
          "ripple", model, ds.graph, ds.features, partition, nullptr,
          std::move(wire), ripple::SchedulerMode::kSteal,
          ripple::ExecMode::kBsp);
      out.ready = now_sec();
      if (!stream_run) {
        // One empty batch as a barrier: no rank may close the mesh while a
        // peer is still joining it.
        engine->apply_batch({});
        return out.serialize();
      }

      std::atomic<std::int64_t>& stop_at = shared.get().stop_at;
      for (std::size_t b = 0; b < batches.size() &&
                              static_cast<std::int64_t>(b) < stop_at.load();
           ++b) {
        const bool traced = timed != nullptr && (b / kTraceBlock) % 2 == 0;
        if (timed != nullptr) timed->set_tracing(traced);
        const TransportTimes before =
            timed != nullptr ? timed->times() : TransportTimes{};
        const double begin = now_sec();
        const ripple::DistBatchResult result = engine->apply_batch(batches[b]);
        const double end = now_sec();
        out.begin.push_back(begin);
        out.end.push_back(end);
        out.tree.push_back(result.propagation_tree_size);
        out.wire_bytes.push_back(result.wire_bytes);
        out.wire_messages.push_back(result.wire_messages);
        if (traced) {
          const TransportTimes& after = timed->times();
          out.traced_wall += end - begin;
          out.engine_compute += result.compute_sec;
          out.transport.send_sec += after.send_sec - before.send_sec;
          out.transport.barrier_sec += after.barrier_sec - before.barrier_sec;
          out.transport.wait_sec += after.wait_sec - before.wait_sec;
        }
        if ((b + 1) % kCheckpointEvery == 0) {
          out.ckpt_sec.push_back(engine->write_checkpoint(ckpt_dir, b + 1));
          const std::string path =
              ripple::checkpoint_path(ckpt_dir, b + 1, tcp.rank);
          out.ckpt_bytes = std::filesystem::file_size(path);
          if (b + 1 > kCheckpointEvery) {  // keep only the newest
            std::filesystem::remove(ripple::checkpoint_path(
                ckpt_dir, b + 1 - kCheckpointEvery, tcp.rank));
          }
        }
        if (tcp.rank == 0 && b >= kWarmupBatches &&
            stop_at.load() == std::numeric_limits<std::int64_t>::max() &&
            now_sec() - out.begin[kWarmupBatches] >= config.seconds) {
          stop_at.store(static_cast<std::int64_t>(b) + 2);
        }
      }
      out.rss_mb = peak_rss_mb();

      // ---- correctness: gathered store vs single-machine engine ----
      const ripple::EmbeddingStore gathered = engine->gather_embeddings();
      engine.reset();
      if (tcp.rank == 0) {
        const std::size_t width = config.nproc > 1 ? config.nproc - 1 : 0;
        auto pool = width > 0 ? std::make_unique<ripple::ThreadPool>(width)
                              : nullptr;
        ripple::RippleEngine reference(model, ds.graph, ds.features,
                                       pool.get());
        for (std::size_t b = 0; b < out.begin.size(); ++b) {
          reference.apply_batch(batches[b]);
        }
        out.checked = 1;
        out.bit_identical =
            stores_bit_identical(gathered, reference.embeddings()) ? 1 : 0;
      }
      return out.serialize();
    };

    std::vector<std::vector<std::uint8_t>> blobs;
    try {
      blobs = ripple::run_loopback_ranks(kRanks, body);
    } catch (const std::exception& e) {
      report.fail(std::string("dist ranks failed: ") + e.what());
      report.attempted = 1;
      report.failed = 1;
      std::filesystem::remove_all(config.scratch_dir);
      return;
    }
    ranks.clear();
    for (const auto& blob : blobs) ranks.push_back(RankResult::parse(blob));
    double ready = 0, mesh = 0, bootstrap = 0;
    for (const RankResult& r : ranks) {
      ready = std::max(ready, r.ready);
      mesh = std::max(mesh, r.mesh_end - r.mesh_begin);
      bootstrap = std::max(bootstrap, r.ready - r.mesh_end);
    }
    setup_sec.push_back(ready - t0);
    partition_sec.push_back(t_partitioned - t0);
    mesh_sec.push_back(mesh);
    bootstrap_sec.push_back(bootstrap);
  }
  std::filesystem::remove_all(config.scratch_dir);

  // ---- per-batch figures across ranks ----
  const std::size_t executed = ranks[0].begin.size();
  for (const RankResult& r : ranks) {
    if (r.begin.size() != executed) {
      report.fail("ranks executed different batch counts");
      return;
    }
  }
  if (executed == batches.size()) {
    report.fail("the stream ran out before --seconds elapsed");
    return;
  }
  if (!ranks[0].checked || !ranks[0].bit_identical) {
    report.fail(
        "leader's gathered embeddings differ from the single-machine run");
  }
  report.attempted = executed * kBatch;
  report.failed = 0;

  // Windows: five equal slices of the measured time, by the leader's issue
  // time. A batch's share of the rate is the time since the previous
  // batch committed, so checkpoints and driver overhead count.
  const double measure_begin = ranks[0].begin[kWarmupBatches];
  const double measure_end = measure_begin + config.seconds;
  LatencySamples commit_ms;
  WindowedRate committed;
  std::vector<double> batch_wall(executed);  // slowest rank's apply_batch
  double prev_end = measure_begin, rss = 0;
  std::uint64_t bytes = 0, messages = 0;
  double tree_sum = 0;
  for (std::size_t b = 0; b < executed; ++b) {
    double end = 0, wall = 0;
    std::uint64_t tree = 0;
    for (const RankResult& r : ranks) {
      end = std::max(end, r.end[b]);
      wall = std::max(wall, r.end[b] - r.begin[b]);
      tree += r.tree[b];
      if (b >= kWarmupBatches) {
        bytes += r.wire_bytes[b];
        messages += r.wire_messages[b];
      }
    }
    batch_wall[b] = wall;
    if (b < kWarmupBatches) continue;
    tree_sum += static_cast<double>(tree);
    // Closed loop: the batch's updates are due when the ingress leader
    // issues it, and commit when the slowest rank returns.
    const double due = ranks[0].begin[b];
    const std::size_t window = window_of(due, measure_begin, measure_end);
    for (std::size_t i = 0; i < kBatch; ++i) {
      commit_ms.add(window, (end - due) * 1e3);
    }
    committed.add(window, static_cast<double>(kBatch), end - prev_end);
    prev_end = end;
  }
  for (const RankResult& r : ranks) rss = std::max(rss, r.rss_mb);
  const std::size_t measured = executed - kWarmupBatches;
  const double updates = static_cast<double>(measured * kBatch);

  if (!config.trace) {
    report.add("setup_s", median_of(setup_sec), "s",
               "median of " + std::to_string(setup_sec.size()));
    report.add("updates_per_s", committed.rate(), "1/s",
               std::to_string(measured) + " batches, median of " +
                   std::to_string(kWindows) + " windows");
    report.add_percentile("commit_p50_ms", commit_ms, 0.50);
    report.add_percentile("commit_p99_ms", commit_ms, 0.99);
    report.add("failed_frac", 0.0, "ratio",
               "0 of " + std::to_string(report.attempted));
    report.add("rss_peak_mb", rss, "MB", "max over ranks");
    return;
  }

  // ---- per-layer metrics (traced run) ----
  report.add("setup.partition_s", median_of(partition_sec), "s");
  report.add("setup.mesh_s", median_of(mesh_sec), "s", "max over ranks");
  report.add("setup.bootstrap_s", median_of(bootstrap_sec), "s",
             "max over ranks");
  double compute_max = 0, compute_sum = 0, covered = 0, traced_wall = 0;
  for (std::size_t r = 0; r < ranks.size(); ++r) {
    const RankResult& rr = ranks[r];
    const double compute = rr.traced_wall - rr.transport.total();
    const std::string suffix = ".r" + std::to_string(r);
    report.add("rank.compute_s" + suffix, compute, "s", "traced batches");
    report.add("rank.send_s" + suffix, rr.transport.send_sec, "s");
    report.add("rank.barrier_s" + suffix, rr.transport.barrier_sec, "s");
    report.add("rank.wait_s" + suffix, rr.transport.wait_sec, "s");
    compute_max = std::max(compute_max, compute);
    compute_sum += compute;
    covered += rr.engine_compute + rr.transport.barrier_sec;
    traced_wall += rr.traced_wall;
  }
  report.add("rank.busy_skew",
             compute_max / (compute_sum / static_cast<double>(ranks.size())),
             "ratio", "max/mean compute over ranks");
  report.add("wire.bytes_per_update", static_cast<double>(bytes) / updates,
             "B");
  report.add("wire.messages_per_update",
             static_cast<double>(messages) / updates, "count");
  double ckpt_ms = 0;
  std::uint64_t ckpt_bytes = 0;
  const std::size_t checkpoints = ranks[0].ckpt_sec.size();
  for (std::size_t c = 0; c < checkpoints; ++c) {
    double worst = 0;
    for (const RankResult& r : ranks) worst = std::max(worst, r.ckpt_sec[c]);
    ckpt_ms += worst * 1e3;
  }
  for (const RankResult& r : ranks) ckpt_bytes += r.ckpt_bytes;
  report.add("ckpt.write_ms", checkpoints ? ckpt_ms / checkpoints : 0.0, "ms",
             std::to_string(checkpoints) + " checkpoints, max over ranks");
  report.add("ckpt.bytes", static_cast<double>(ckpt_bytes), "B",
             "one checkpoint, all ranks");

  double traced_sum = 0, plain_sum = 0, traced_n = 0, plain_n = 0;
  for (std::size_t b = kWarmupBatches; b < executed; ++b) {
    const bool traced = (b / kTraceBlock) % 2 == 0;
    (traced ? traced_sum : plain_sum) += batch_wall[b];
    (traced ? traced_n : plain_n) += 1;
  }
  report.add("engine.batch_ms", traced_sum / traced_n * 1e3, "ms",
             "slowest rank, traced batches");
  report.add("engine.tree_size", tree_sum / static_cast<double>(measured),
             "count", "per batch, all ranks");
  const auto rows_per_hop = static_cast<std::size_t>(std::max(
      1.0, std::round(tree_sum / static_cast<double>(measured) / kLayers)));
  report.add("tensor.update_gflops",
             update_gflops(model, rows_per_hop, config.seed), "GFLOP/s",
             std::to_string(rows_per_hop) + " rows per call");
  const double traced_ups = traced_n / traced_sum;
  const double plain_ups = plain_n / plain_sum;
  report.add("trace.overhead_share", 1.0 - traced_ups / plain_ups, "ratio",
             "traced vs untraced batches");
  report.add("trace.gap_share", 1.0 - covered / traced_wall, "ratio",
             "apply_batch wall outside engine compute phases and barriers");
}

}  // namespace perfbench
