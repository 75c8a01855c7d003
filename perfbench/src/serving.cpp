// trigger-arxiv and bulk-products: a StreamingServer in front of a
// RippleEngine, driven through submit / label / flush.
#include <algorithm>
#include <cmath>
#include <memory>
#include <vector>

#include "common/thread_pool.h"
#include "core/ripple_engine.h"
#include "core/serving.h"
#include "graph/datasets.h"
#include "infer/layerwise.h"
#include "loadgen.h"
#include "stream/generator.h"
#include "trace.h"
#include "workloads.h"

namespace perfbench {
namespace {

using ripple::GraphUpdate;
using ripple::StreamingServer;

struct ServingSpec {
  const char* dataset;
  double scale;
  std::size_t num_layers;
  std::size_t batch_size;
  std::size_t stream_updates;
  std::size_t setup_reps;
  std::size_t warmup_updates;  // a multiple of batch_size, untimed
  // Open-loop segments (trigger-arxiv): Poisson arrivals at open_rate
  // updates per second, each followed by lookups_per_update label()
  // lookups, for open_share of every round. The rest of a round is
  // saturated.
  bool open_loop;
  double open_rate;
  std::size_t lookups_per_update;
  double open_share;
  // Flips are counted exactly over this stream prefix (a multiple of
  // batch_size) and replayed for the determinism check. Batches are formed
  // by size only, so the count does not depend on timing.
  std::size_t flip_prefix_updates;
  // Saturated segments: updates per block; a traced run alternates traced
  // and untraced blocks to measure the tracing overhead.
  std::size_t block_updates;
};

// Offered rate: about half of the saturated rate measured at the commit
// that introduced this benchmark (see README.md).
constexpr ServingSpec kTriggerArxiv{
    .dataset = "arxiv-s",
    .scale = 1.0,
    .num_layers = 2,
    .batch_size = 1,
    .stream_updates = 40'000,
    .setup_reps = 10,
    .warmup_updates = 200,
    .open_loop = true,
    .open_rate = 450,
    .lookups_per_update = 2,
    .open_share = 0.6,
    .flip_prefix_updates = 1'200,
    .block_updates = 200,
};

constexpr ServingSpec kBulkProducts{
    .dataset = "products-s",
    .scale = 1.0,
    .num_layers = 3,
    .batch_size = 100,
    .stream_updates = 250'000,
    .setup_reps = 7,
    .warmup_updates = 300,
    .open_loop = false,
    .open_rate = 0,
    .lookups_per_update = 0,
    .open_share = 0,
    .flip_prefix_updates = 2'000,
    .block_updates = 500,
};

// FNV-1a over the flip sequence: equal hashes mean the same flips in the
// same order.
struct FlipDigest {
  std::size_t count = 0;
  std::uint64_t hash = 1469598103934665603ULL;
  void add(ripple::VertexId v, std::uint32_t from, std::uint32_t to) {
    ++count;
    for (const std::uint64_t x : {std::uint64_t{v}, std::uint64_t{from},
                                  std::uint64_t{to}}) {
      hash = (hash ^ x) * 1099511628211ULL;
    }
  }
  bool operator==(const FlipDigest&) const = default;
};

struct FlushSpan {
  double issued = 0;  // the submit() call that flushed
  double done = 0;    // its return
};

struct Inputs {
  ripple::Dataset dataset;
  std::vector<GraphUpdate> stream;
  ripple::GnnModel model;
};

Inputs make_inputs(const ServingSpec& spec, std::uint64_t seed) {
  ripple::Dataset ds = ripple::build_dataset(spec.dataset, spec.scale, seed);
  ripple::StreamConfig stream_config;
  stream_config.num_updates = spec.stream_updates;
  stream_config.feat_dim = ds.spec.feat_dim;
  stream_config.seed = seed + 1;
  std::vector<GraphUpdate> stream =
      ripple::generate_stream(ds.graph, stream_config);
  const auto model_config =
      ripple::workload_config(ripple::Workload::gc_s, ds.spec.feat_dim,
                              ds.spec.num_classes, spec.num_layers, 64);
  ripple::GnnModel model = ripple::GnnModel::random(model_config, kModelSeed);
  return {std::move(ds), std::move(stream), std::move(model)};
}

StreamingServer::Options server_options(const ServingSpec& spec) {
  StreamingServer::Options options;
  options.batch_size = spec.batch_size;
  // No age-based flush: batch composition must not depend on timing.
  options.adaptive_options.flush_after_sec = 0;
  return options;
}

// Flips of the first `prefix` updates, replayed on a fresh server.
FlipDigest replay_flips(const ServingSpec& spec, const Inputs& in,
                        ripple::ThreadPool* pool, std::size_t prefix) {
  StreamingServer server(
      std::make_unique<ripple::RippleEngine>(in.model, in.dataset.graph,
                                             in.dataset.features, pool),
      server_options(spec));
  FlipDigest digest;
  server.set_label_callback(
      [&](ripple::VertexId v, std::uint32_t from, std::uint32_t to) {
        digest.add(v, from, to);
      });
  for (std::size_t i = 0; i < prefix; ++i) server.submit(in.stream[i]);
  return digest;
}

// Error of the engine's store against layer-wise full inference over the
// engine's final graph and features, as a multiple of the tolerance (NaN
// counts as failing). The tolerance is the engine tests' 1e-3 absolute
// bound, which they apply to embeddings of magnitude up to about 100;
// beyond that it scales with the layer's largest magnitude (a relative
// 1e-5): bulk-products' last layer reaches ~2.4e5, where f32 rounding of
// the incrementally maintained sums alone leaves ~0.2 absolute.
double store_error(const ripple::InferenceEngine& engine,
                   ripple::ThreadPool* pool) {
  ripple::EmbeddingStore truth(engine.model().config(),
                               engine.graph().num_vertices());
  truth.features() = engine.embeddings().features();
  ripple::layerwise_full_inference(engine.model(), engine.graph(), truth,
                                   pool);
  double worst = 0;
  for (std::size_t l = 0; l <= truth.num_layers(); ++l) {
    const float* got = engine.embeddings().layer(l).data();
    const float* want = truth.layer(l).data();
    double scale = 0, diff = 0;
    for (std::size_t i = 0; i < truth.layer(l).size(); ++i) {
      scale = std::max(scale, static_cast<double>(std::abs(want[i])));
      const double d = std::abs(static_cast<double>(got[i]) - want[i]);
      if (!(d <= diff)) diff = d;  // keeps a NaN
    }
    const double error = diff / (1e-3 * std::max(1.0, scale / 100));
    if (!(error <= worst)) worst = error;
  }
  return worst;
}

void run_serving(const ServingSpec& spec, const RunConfig& config,
                 Report& report) {
  const std::size_t pool_width = config.nproc > 1 ? config.nproc - 1 : 0;
  if (!fingerprint_threads(config, pool_width, 1, pool_width + 1, report)) {
    return;
  }
  const Inputs in = make_inputs(spec, config.seed);
  const std::size_t n = in.dataset.graph.num_vertices();
  auto pool = pool_width > 0 ? std::make_unique<ripple::ThreadPool>(pool_width)
                             : nullptr;
  const std::size_t B = spec.batch_size;

  // ---- set-up: engine bootstrap + server construction, repeated ----
  std::vector<double> setup_sec, bootstrap_sec, labels_sec;
  std::unique_ptr<StreamingServer> server;
  TracedEngine* engine = nullptr;
  for (std::size_t rep = 0; rep < spec.setup_reps; ++rep) {
    server.reset();
    // The repeated set-ups are the benchmark's: a deployed server is built
    // once, so peak RSS counts from the last one.
    if (rep + 1 == spec.setup_reps) reset_peak_rss();
    const double t0 = now_sec();
    auto core = std::make_unique<ripple::RippleEngine>(
        in.model, in.dataset.graph, in.dataset.features, pool.get());
    const double t1 = now_sec();
    auto traced = std::make_unique<TracedEngine>(std::move(core));
    engine = traced.get();
    server = std::make_unique<StreamingServer>(std::move(traced),
                                               server_options(spec));
    const double t2 = now_sec();
    setup_sec.push_back(t2 - t0);
    bootstrap_sec.push_back(t1 - t0);
    labels_sec.push_back(t2 - t1);
  }

  // ---- flip callback: latency from the causing batch's last due time ----
  // Every figure is a median over kWindows rounds (stats.h); `window` is
  // the round being measured.
  std::size_t stream_pos = 0;
  const std::size_t prefix = spec.flip_prefix_updates;
  std::size_t window = 0;
  double current_due = 0;
  bool record_flips = false;
  FlipDigest prefix_flips;
  LatencySamples commit_ms, flip_ms, lookup_ms, lag_ms;
  server->set_label_callback(
      [&](ripple::VertexId v, std::uint32_t from, std::uint32_t to) {
        if (stream_pos <= prefix) prefix_flips.add(v, from, to);
        if (record_flips) flip_ms.add(window, (now_sec() - current_due) * 1e3);
      });

  // Submits the next batch. Update i is due at dues[i]; a closed loop
  // (open_due == nullptr) takes each due time at its submit() call. Every
  // update counts as attempted; commit latencies are kept when `record`.
  std::size_t attempted = 0, failed = 0;
  std::vector<double> dues(B);
  std::vector<FlushSpan> flushes;  // one per traced batch
  const auto run_batch = [&](const double* open_due, bool record) {
    const std::size_t rejected_before = server->stats().updates_rejected;
    for (std::size_t i = 0; i < B; ++i) {
      dues[i] = open_due != nullptr ? *open_due : now_sec();
      current_due = dues[i];
      server->submit(in.stream[stream_pos++]);
    }
    if (engine->tracing()) flushes.push_back({dues[B - 1], now_sec()});
    const bool ok = server->stats().updates_rejected == rejected_before &&
                    server->status() == ripple::ServeStatus::kOk;
    attempted += B;
    if (!ok) failed += B;
    if (!record) return ok;
    for (std::size_t i = 0; i < B; ++i) {
      if (ok) {
        commit_ms.add(window, (engine->last_commit() - dues[i]) * 1e3);
      } else {
        commit_ms.add_failure(window);
      }
    }
    return ok;
  };

  for (std::size_t i = 0; i < spec.warmup_updates; i += B) {
    run_batch(nullptr, false);
  }

  // ---- measured rounds ----
  // A trigger-arxiv round is an open-loop segment (updates and lookups at
  // the offered rate) followed by a saturated segment; a bulk-products
  // round is saturated throughout. Interleaving the two phases spreads both
  // over the whole run, so a slow spell of the host hits few windows.
  const double round_sec = config.seconds / static_cast<double>(kWindows);
  const double saturated_sec =
      round_sec * (spec.open_loop ? 1.0 - spec.open_share : 1.0);
  const auto round_updates = static_cast<std::size_t>(
      std::llround(spec.open_rate * round_sec * spec.open_share));
  WindowedRate committed;  // untraced saturated blocks
  double plain_updates = 0, plain_sec = 0, traced_updates = 0,
         traced_sec = 0;
  double lookup_self_sec = 0;
  std::size_t lookups = 0, block = 0;
  std::uint64_t label_sink = 0;
  ripple::Rng lookup_rng(config.seed + 7);
  for (window = 0; window < kWindows; ++window) {
    if (spec.open_loop) {
      const auto schedule = poisson_schedule(
          spec.open_rate, spec.lookups_per_update, round_updates,
          config.seed * 0x9e3779b97f4a7c15ULL + window);
      const std::size_t first_flush = flushes.size();
      record_flips = true;
      engine->set_tracing(config.trace);
      const auto records = run_open_loop(
          schedule, now_sec() + 1e-3, now_sec, wait_until_sec,
          [&](std::size_t i, double due) {
            if (schedule[i].kind == OpKind::kUpdate) {
              return run_batch(&due, true);
            }
            label_sink += server->label(
                static_cast<ripple::VertexId>(lookup_rng.next_below(n)));
            return true;
          });
      engine->set_tracing(false);
      record_flips = false;
      // run_batch pushed this segment's traced flushes with the due time
      // as `issued`; the generator's records hold the real issue time.
      std::size_t flush_index = first_flush;
      for (std::size_t i = 0; i < records.size(); ++i) {
        const OpRecord& rec = records[i];
        lag_ms.add(window, rec.lag * 1e3);
        if (schedule[i].kind == OpKind::kLookup) {
          ++attempted;
          lookup_ms.add(window, (rec.done - rec.due) * 1e3);
          lookup_self_sec += rec.done - rec.issued;
          ++lookups;
        } else if (config.trace) {
          flushes[flush_index++] = {rec.issued, rec.done};
        }
      }
    }

    // Saturated segment: back-to-back submission in blocks; a traced run
    // alternates traced and untraced blocks.
    record_flips = !spec.open_loop;
    const double segment_begin = now_sec();
    while (now_sec() - segment_begin < saturated_sec &&
           stream_pos + spec.block_updates <= in.stream.size()) {
      const bool traced = config.trace && block++ % 2 == 0;
      engine->set_tracing(traced);
      const double t0 = now_sec();
      for (std::size_t i = 0; i < spec.block_updates; i += B) {
        run_batch(nullptr, !spec.open_loop);
      }
      const double elapsed = now_sec() - t0;
      const auto updates = static_cast<double>(spec.block_updates);
      (traced ? traced_updates : plain_updates) += updates;
      (traced ? traced_sec : plain_sec) += elapsed;
      if (!traced) committed.add(window, updates, elapsed);
    }
    engine->set_tracing(false);
    record_flips = false;
  }
  const double rss_mb = peak_rss_mb();
  const bool exhausted = stream_pos + spec.block_updates > in.stream.size();

  // ---- correctness (outside every timed region) ----
  const double error = store_error(server->engine(), pool.get());
  if (!(error <= 1.0)) {
    report.fail("final store differs from layer-wise full inference by " +
                std::to_string(error) + " times the tolerance");
  }
  if (stream_pos < prefix) {
    report.fail("run ended before the flip-count prefix");
  } else if (!(replay_flips(spec, in, pool.get(), prefix) == prefix_flips)) {
    report.fail("flips over the stream prefix differ on replay");
  }
  if (exhausted) report.fail("the stream ran out before --seconds elapsed");
  if (label_sink == 0 && lookups > 0) report.fail("every lookup returned 0");

  report.attempted = attempted;
  report.failed = failed;
  if (!config.trace) {
    report.add("setup_s", median_of(setup_sec), "s",
               "median of " + std::to_string(setup_sec.size()));
    report.add("updates_per_s", committed.rate(), "1/s",
               std::to_string(static_cast<std::size_t>(plain_updates)) +
                   " updates, median of " + std::to_string(kWindows) +
                   " windows");
    report.add_percentile("commit_p50_ms", commit_ms, 0.50);
    report.add_percentile("commit_p99_ms", commit_ms, 0.99);
    report.add_percentile("flip_p50_ms", flip_ms, 0.50);
    report.add_percentile("flip_p99_ms", flip_ms, 0.99);
    if (spec.open_loop) {
      report.add_percentile("lookup_p99_ms", lookup_ms, 0.99);
    }
    report.add("failed_frac",
               attempted ? static_cast<double>(failed) / attempted : 0.0,
               "ratio",
               std::to_string(failed) + " of " + std::to_string(attempted));
    report.add("rss_peak_mb", rss_mb, "MB");
    return;
  }

  // ---- per-layer metrics (traced run) ----
  const auto& spans = engine->spans();
  if (spans.size() != flushes.size() || spans.empty()) {
    report.fail("traced flushes do not match engine spans");
    return;
  }
  double flush_sum = 0, label_sum = 0, update_sum = 0, propagate_sum = 0,
         gap_sum = 0, apply_sum = 0, scatter_sum = 0, tree_sum = 0,
         steals_sum = 0, imbalance_sum = 0;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const EngineSpan& s = spans[i];
    flush_sum += flushes[i].done - flushes[i].issued;
    label_sum += flushes[i].done - s.end;
    update_sum += s.update_end - s.begin;
    propagate_sum += s.end - s.update_end;
    gap_sum += s.begin - flushes[i].issued;
    apply_sum += s.apply_phase_sec;
    scatter_sum += s.scatter_phase_sec;
    tree_sum += static_cast<double>(s.tree_size);
    steals_sum += static_cast<double>(s.sched.steals);
    imbalance_sum += s.sched.imbalance();
  }
  const double batches = static_cast<double>(spans.size());
  const std::string per = "per batch, " + std::to_string(spans.size()) +
                          " traced batches";
  if (spec.open_loop) {
    report.add_percentile("loadgen.lag_p99_ms", lag_ms, 0.99);
  }
  report.add("setup.bootstrap_s", median_of(bootstrap_sec), "s");
  report.add("setup.labels_s", median_of(labels_sec), "s");
  report.add("serving.flush_ms", flush_sum / batches * 1e3, "ms", per);
  report.add("serving.label_diff_ms", label_sum / batches * 1e3, "ms",
             "flush after the wrapped apply_batch returned");
  report.add("serving.label_diff_share", label_sum / flush_sum, "ratio");
  if (spec.open_loop) {
    report.add("serving.lookup_us", lookup_self_sec / lookups * 1e6, "us",
               std::to_string(lookups) + " lookups");
  }
  report.add("serving.flips", static_cast<double>(prefix_flips.count), "count",
             "first " + std::to_string(prefix) + " updates");
  report.add("serving.rejected",
             static_cast<double>(server->stats().updates_rejected), "count");
  report.add("engine.update_ms", update_sum / batches * 1e3, "ms", per);
  report.add("engine.propagate_ms", propagate_sum / batches * 1e3, "ms", per);
  report.add("engine.batch_ms", (update_sum + propagate_sum) / batches * 1e3,
             "ms", per);
  report.add("engine.tree_size", tree_sum / batches, "count", per);
  report.add("engine.apply_phase_ms", apply_sum / batches * 1e3, "ms", per);
  report.add("engine.scatter_phase_ms", scatter_sum / batches * 1e3, "ms",
             per);
  report.add("engine.unattributed_share",
             1.0 - (apply_sum + scatter_sum) / propagate_sum, "ratio");
  report.add("sched.steals", steals_sum / batches, "count", per);
  report.add("sched.imbalance", imbalance_sum / batches, "ratio", per);
  const auto rows_per_hop = static_cast<std::size_t>(
      std::max(1.0, std::round(tree_sum / batches /
                               static_cast<double>(spec.num_layers))));
  report.add("tensor.update_gflops",
             update_gflops(in.model, rows_per_hop, config.seed), "GFLOP/s",
             std::to_string(rows_per_hop) + " rows per call");
  const double plain_ups = plain_updates / plain_sec;
  const double traced_ups = traced_updates / traced_sec;
  report.add("trace.overhead_share", 1.0 - traced_ups / plain_ups, "ratio",
             "traced " + std::to_string(traced_ups) + " vs untraced " +
                 std::to_string(plain_ups) + " updates/s");
  report.add("trace.gap_share", gap_sum / flush_sum, "ratio",
             "flush before the wrapped apply_batch was entered");
}

}  // namespace

void run_trigger_arxiv(const RunConfig& config, Report& report) {
  run_serving(kTriggerArxiv, config, report);
}

void run_bulk_products(const RunConfig& config, Report& report) {
  run_serving(kBulkProducts, config, report);
}

}  // namespace perfbench
