// ingest-ml: streaming writes beside reads.
//
// Before timing, a SimulateMovieLensStream tensor is split 90/10; the
// training part is written as .tns, a model trained on it as snapshot v2,
// and the event stream (minus events at held-out coordinates) as an event
// log of a fixed number of events. Set-up loads all three through the
// public loaders and builds the IngestPipeline. A replay applies the whole
// log through IngestPipeline::Apply on 2 OpenMP threads, calling Flush()
// every K events and Checkpoint() every M events; a checkpoint writes
// snapshot v2 and hot-swaps it into the PredictionService that one reader
// thread queries at a fixed rate. The run sets up and replays from scratch
// as often as its seconds allow, so every replay does the same work
// whatever the program's speed, and reports medians over the replays. The
// traced run replays once more with spans and telemetry on, then serves
// the published model over loopback TCP to measure serve/net.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common.h"
#include "core/ptucker.h"
#include "core/reconstruction.h"
#include "data/movielens_sim.h"
#include "data/split.h"
#include "obs/metrics.h"
#include "serve/net/client.h"
#include "serve/net/server.h"
#include "serve/service.h"
#include "serve/snapshot_v2.h"
#include "stream/event_log.h"
#include "stream/ingest_pipeline.h"
#include "tensor/index.h"
#include "tensor/io.h"
#include "util/random.h"

namespace perfbench {

namespace {

using ptucker::IngestPipeline;
using ptucker::SparseTensor;
using ptucker::StreamEvent;
using ptucker::TuckerFactorization;

constexpr int kThreads = 2;
constexpr double kTestFraction = 0.1;
// Replays per run at least, whatever the run's seconds: two, so that
// every run checks that identical replays publish identical models.
constexpr std::size_t kMinReplays = 2;
// Set-ups before every replay, each on the next CPU. Spread through the
// run like this, their median samples the host's speed over the whole
// run, not over its first seconds.
constexpr int kSetupsPerReplay = 2;
constexpr std::int64_t kReadMode = 1;  // movies
constexpr std::int64_t kReadTopK = 10;
// Top-K reads of the traced run's serve/net probe.
constexpr int kNetProbeReads = 200;

struct IngestShape {
  std::vector<std::int64_t> dims;
  std::int64_t nnz;  // initial entries before the train/test split
  std::vector<std::int64_t> ranks;
  std::int64_t events;            // events in the log, a multiple of M
  std::int64_t flush_every;       // K
  std::int64_t checkpoint_every;  // M, a multiple of K
  double read_rate;               // reader queries per second
  int train_iterations;
};

IngestShape ShapeFor(Size size) {
  if (size == Size::kSmoke) {
    return {{300, 100, 21, 24}, 3000, {4, 4, 2, 2}, 256, 16, 64, 50, 2};
  }
  return {{20000, 3000, 21, 24}, 66667, {8, 8, 4, 4}, 2048, 64, 256, 50, 8};
}

struct Inputs {
  std::string tensor_path, test_path, model_path, log_path;
};

Inputs GenerateInputs(const RunConfig& config, const IngestShape& shape) {
  ptucker::MovieLensStreamConfig stream_config;
  stream_config.base = MovieLensFor(shape.dims, shape.nnz, DeriveSeed(config.seed, 21));
  // Enough events that the log is still full after the held-out ones go.
  stream_config.num_events = shape.events * 5 / 4;
  stream_config.seed = DeriveSeed(config.seed, 22);
  const ptucker::MovieLensStream stream =
      ptucker::SimulateMovieLensStream(stream_config);

  ptucker::Rng split_rng(DeriveSeed(config.seed, 23));
  const ptucker::TrainTestSplit split = ptucker::SplitObservedEntries(
      stream.initial.tensor, kTestFraction, split_rng);
  // Events at held-out coordinates are dropped, so the test entries stay
  // unseen and the remaining log is still valid against the train part.
  const auto strides = ptucker::ComputeStrides(shape.dims);
  std::unordered_set<std::int64_t> held_out;
  for (std::int64_t e = 0; e < split.test.nnz(); ++e) {
    held_out.insert(ptucker::Linearize(split.test.index(e), strides, 4));
  }
  std::vector<StreamEvent> events;
  for (const StreamEvent& event : stream.events) {
    if (held_out.count(ptucker::Linearize(event.index.data(), strides, 4)) == 0) {
      events.push_back(event);
    }
  }
  if (static_cast<std::int64_t>(events.size()) < shape.events) {
    throw std::runtime_error("ingest-ml: the stream has too few events");
  }
  events.resize(static_cast<std::size_t>(shape.events));

  ptucker::PTuckerOptions options;
  options.core_dims = shape.ranks;
  options.max_iterations = shape.train_iterations;
  options.num_threads = kThreads;
  options.seed = DeriveSeed(config.seed, 24);
  const ptucker::PTuckerResult trained =
      ptucker::PTuckerDecompose(split.train, options);

  const std::string dir = config.work_dir + "/";
  Inputs inputs{dir + "ingest_initial.tns", dir + "ingest_test.tns",
                dir + "ingest_model.ptks", dir + "ingest_events.log"};
  ptucker::WriteTns(inputs.tensor_path, split.train);
  ptucker::WriteTns(inputs.test_path, split.test);
  ptucker::SaveSnapshotV2(inputs.model_path, trained.model, /*with_centroids=*/false);
  ptucker::WriteEventLog(inputs.log_path, events, 4);
  return inputs;
}

// Everything set-up produces: the inputs, loaded, and a live pipeline
// publishing into `service`.
struct Loaded {
  SparseTensor initial;
  SparseTensor test;
  std::vector<StreamEvent> events;
  std::shared_ptr<ptucker::PredictionService> service;
  std::unique_ptr<ptucker::obs::MetricsRegistry> registry;
  std::unique_ptr<IngestPipeline> pipeline;
  std::string checkpoint_dir;
  double load_ms = 0, snapshot_ms = 0, parse_ms = 0, build_ms = 0;
  double total_s() const { return (load_ms + snapshot_ms + parse_ms + build_ms) / 1e3; }
};

std::unique_ptr<Loaded> SetUp(const Inputs& inputs, const IngestShape& shape,
                              const std::string& checkpoint_dir, bool traced) {
  auto loaded = std::make_unique<Loaded>();
  double t = Now();
  loaded->initial = ptucker::ReadTns(inputs.tensor_path, shape.dims);
  loaded->test = ptucker::ReadTns(inputs.test_path, shape.dims);
  loaded->load_ms = (Now() - t) * 1e3;
  t = Now();
  TuckerFactorization model =
      ptucker::MaterializeModel(*ptucker::MmapSnapshot::Open(inputs.model_path));
  loaded->service = std::make_shared<ptucker::PredictionService>(
      ptucker::ModelSnapshot::CreateFromFile(inputs.model_path));
  loaded->snapshot_ms = (Now() - t) * 1e3;
  t = Now();
  std::int64_t order = 0;
  loaded->events = ptucker::ReadEventLog(inputs.log_path, &order);
  if (order != 4) throw std::runtime_error("ingest-ml: event log order != 4");
  loaded->parse_ms = (Now() - t) * 1e3;
  t = Now();
  std::filesystem::remove_all(checkpoint_dir);
  loaded->checkpoint_dir = checkpoint_dir;
  ptucker::IngestOptions options;
  options.num_threads = kThreads;
  options.flush_every = shape.events + 1;  // the replay loop flushes
  options.checkpoint_every = 0;            // and checkpoints explicitly
  options.checkpoint_dir = checkpoint_dir;
  options.service = loaded->service.get();
  if (traced) {
    loaded->registry = std::make_unique<ptucker::obs::MetricsRegistry>();
    options.metrics_registry = loaded->registry.get();
  }
  loaded->pipeline = std::make_unique<IngestPipeline>(loaded->initial, std::move(model),
                                                      options);
  loaded->build_ms = (Now() - t) * 1e3;
  return loaded;
}

// The reader: a user's top-10 movies (PredictionService::TopK) at a fixed
// rate, each latency timed from its scheduled start, until `stop`.
class Reader {
 public:
  Reader(const ptucker::PredictionService& service, const IngestShape& shape,
         std::uint64_t seed)
      : service_(service), shape_(shape), rng_(seed),
        thread_([this] { Loop(); }) {}
  ~Reader() { Stop(); }
  Reader(const Reader&) = delete;
  Reader& operator=(const Reader&) = delete;

  void Stop() {
    stop_.store(true);
    if (thread_.joinable()) thread_.join();
  }
  const std::vector<double>& latencies_ms() const { return latencies_ms_; }
  std::int64_t failed() const { return failed_; }

 private:
  void Loop() {
    const double start = Now();
    for (std::int64_t i = 0; !stop_.load(); ++i) {
      const double due = start + static_cast<double>(i) / shape_.read_rate;
      // Spin to the due time: a sleeping thread's CPU can take
      // milliseconds to come back on a shared host, which would be
      // charged to the service.
      while (Now() < due && !stop_.load()) {
      }
      if (stop_.load()) break;
      std::vector<std::int64_t> coords(4);
      for (int n = 0; n < 4; ++n) {
        coords[static_cast<std::size_t>(n)] = static_cast<std::int64_t>(
            rng_.UniformInt(static_cast<std::uint64_t>(shape_.dims[static_cast<std::size_t>(n)])));
      }
      coords[1] = 0;  // the scanned mode
      try {
        const auto top = service_.TopK(kReadMode, coords, kReadTopK);
        if (top.size() != static_cast<std::size_t>(kReadTopK)) ++failed_;
      } catch (const std::exception&) {
        ++failed_;
      }
      latencies_ms_.push_back((Now() - due) * 1e3);
    }
  }

  const ptucker::PredictionService& service_;
  const IngestShape& shape_;
  ptucker::Rng rng_;
  std::atomic<bool> stop_{false};
  std::vector<double> latencies_ms_;
  std::int64_t failed_ = 0;
  std::thread thread_;  // last: starts after the members it uses
};

struct ReplayStats {
  std::int64_t applied = 0, rejected = 0;
  double seconds = 0.0;
  std::vector<double> staleness_ms, read_ms, flush_ms;
  std::int64_t reads = 0, failed_reads = 0;
  double test_rmse = 0.0;
  // Traced only.
  std::vector<double> rows_resolved, slice_entries_resolved;
};

// Replays the whole log into the freshly set-up pipeline and checks the
// result.
ReplayStats Replay(Loaded& loaded, const IngestShape& shape, std::uint64_t seed,
                   SpanRecorder* spans, Result* result) {
  IngestPipeline& pipeline = *loaded.pipeline;
  const std::vector<StreamEvent>& events = loaded.events;
  ReplayStats stats;
  std::vector<double> apply_time;
  apply_time.reserve(events.size());
  std::size_t published = 0;  // events covered by the last checkpoint
  double excluded = 0.0;      // bookkeeping time kept out of events/s

  Reader reader(*loaded.service, shape, seed);
  const double start = Now();
  for (std::size_t n = 0; n < events.size(); ++n) {
    {
      SpanRecorder::Scope span(spans, "stream.apply");
      apply_time.push_back(Now());
      try {
        pipeline.Apply(events[n]);
      } catch (const std::invalid_argument& e) {
        ++stats.rejected;
        Log(std::string("ingest-ml: event rejected: ") + e.what());
      }
    }
    const std::size_t done = n + 1;
    if (done % static_cast<std::size_t>(shape.flush_every) == 0) {
      {
        SpanRecorder::Scope span(spans, "stream.flush");
        const double t = Now();
        pipeline.Flush();
        stats.flush_ms.push_back((Now() - t) * 1e3);
      }
      if (spans != nullptr) {
        const double t = Now();
        double rows = 0, entries = 0;
        for (std::int64_t mode = 0; mode < 4; ++mode) {
          std::vector<std::int64_t> touched;
          for (std::size_t e = done - static_cast<std::size_t>(shape.flush_every); e < done; ++e) {
            touched.push_back(events[e].index[static_cast<std::size_t>(mode)]);
          }
          std::sort(touched.begin(), touched.end());
          touched.erase(std::unique(touched.begin(), touched.end()), touched.end());
          rows += static_cast<double>(touched.size());
          for (const std::int64_t row : touched) {
            entries += static_cast<double>(pipeline.tensor().SliceSize(mode, row));
          }
        }
        stats.rows_resolved.push_back(rows);
        stats.slice_entries_resolved.push_back(entries);
        excluded += Now() - t;
      }
    }
    if (done % static_cast<std::size_t>(shape.checkpoint_every) == 0) {
      {
        SpanRecorder::Scope span(spans, "stream.checkpoint");
        pipeline.Checkpoint();
      }
      const double now = Now();
      for (std::size_t e = published; e < done; ++e) {
        stats.staleness_ms.push_back((now - apply_time[e]) * 1e3);
      }
      published = done;
    }
  }
  stats.seconds = Now() - start - excluded;
  reader.Stop();
  stats.applied = static_cast<std::int64_t>(events.size()) - stats.rejected;
  stats.read_ms = reader.latencies_ms();
  stats.reads = static_cast<std::int64_t>(stats.read_ms.size());
  stats.failed_reads = reader.failed();

  // The final Ω is the log's replay, and the last published snapshot is
  // the pipeline's model, bit for bit.
  const SparseTensor expected = ptucker::ReplayOmega(
      SparseTensor(loaded.initial), events, static_cast<std::int64_t>(events.size()));
  const auto entries = [](const SparseTensor& x) {
    const auto strides = ptucker::ComputeStrides(x.dims());
    std::vector<std::pair<std::int64_t, double>> out;
    for (std::int64_t e = 0; e < x.nnz(); ++e) {
      out.emplace_back(ptucker::Linearize(x.index(e), strides, x.order()), x.value(e));
    }
    std::sort(out.begin(), out.end());
    return out;
  };
  result->Check(entries(pipeline.tensor()) == entries(expected),
                "ingest-ml: final Ω differs from ReplayOmega(initial, events)");
  ptucker::CheckpointInfo info;
  result->Check(ptucker::LatestCheckpoint(loaded.checkpoint_dir, &info) &&
                    info.ops_applied == pipeline.ops_applied(),
                "ingest-ml: the MANIFEST does not name the last checkpoint");
  const TuckerFactorization published_model =
      ptucker::MaterializeModel(*ptucker::MmapSnapshot::Open(info.path));
  bool same = published_model.factors.size() == pipeline.model().factors.size() &&
              published_model.core.size() == pipeline.model().core.size();
  for (std::size_t m = 0; same && m < published_model.factors.size(); ++m) {
    const auto& a = published_model.factors[m];
    const auto& b = pipeline.model().factors[m];
    same = a.rows() == b.rows() && a.cols() == b.cols() &&
           std::equal(a.data(), a.data() + a.rows() * a.cols(), b.data());
  }
  same = same && std::equal(published_model.core.data(),
                            published_model.core.data() + published_model.core.size(),
                            pipeline.model().core.data());
  result->Check(same, "ingest-ml: last published snapshot differs from the model");
  stats.test_rmse = ptucker::TestRmse(loaded.test, published_model.core,
                                      published_model.factors);
  result->Check(stats.test_rmse > 0.0 && stats.test_rmse < 1.0,
                "ingest-ml: test RMSE outside (0, 1)");
  result->attempted += static_cast<std::int64_t>(events.size()) + stats.reads;
  result->failed += stats.rejected + stats.failed_reads;
  Log("ingest-ml: replay of " + std::to_string(events.size()) + " events (staleness p99 " +
      std::to_string(Percentile(stats.staleness_ms, 99)) + " ms), " +
      std::to_string(pipeline.checkpoints_written()) + " checkpoints, " +
      std::to_string(stats.flush_ms.size()) + " flushes, " +
      std::to_string(stats.reads) + " reads (p50 " +
      std::to_string(Percentile(stats.read_ms, 50)) + " ms, p99 " +
      std::to_string(Percentile(stats.read_ms, 99)) + " ms) in " +
      std::to_string(stats.seconds) + " s");
  return stats;
}

// Median over replays of one figure of each replay.
template <typename Figure>
double MedianOver(const std::vector<ReplayStats>& replays, Figure figure) {
  std::vector<double> values;
  for (const ReplayStats& stats : replays) values.push_back(figure(stats));
  return Median(values);
}

}  // namespace

void RunIngestMl(const RunConfig& config, Result* result) {
  const IngestShape shape = ShapeFor(config.size);
  const Inputs inputs = GenerateInputs(config, shape);
  const std::string checkpoints = config.work_dir + "/ingest_checkpoints";
  std::vector<double> totals, load_ms, snapshot_ms, parse_ms, build_ms;
  std::unique_ptr<Loaded> loaded;
  std::vector<ReplayStats> replays;
  const double deadline = Now() + config.seconds;
  while (replays.size() < kMinReplays || Now() < deadline) {
    for (int r = 0; r < kSetupsPerReplay; ++r) {
      loaded.reset();
      const ScopedCpuTurn cpu_turn(static_cast<std::int64_t>(totals.size()));
      loaded = SetUp(inputs, shape, checkpoints, /*traced=*/false);
      totals.push_back(loaded->total_s());
      load_ms.push_back(loaded->load_ms);
      snapshot_ms.push_back(loaded->snapshot_ms);
      parse_ms.push_back(loaded->parse_ms);
      build_ms.push_back(loaded->build_ms);
    }
    replays.push_back(
        Replay(*loaded, shape, DeriveSeed(config.seed, 25), nullptr, result));
    result->Check(replays.back().test_rmse == replays.front().test_rmse,
                  "ingest-ml: test RMSE differs between identical replays");
  }
  const double events_per_s = MedianOver(replays, [](const ReplayStats& r) {
    return static_cast<double>(r.applied) / r.seconds;
  });
  if (!config.trace) {
    const auto percentile = [](const std::vector<double> ReplayStats::*samples,
                               double p) {
      return [samples, p](const ReplayStats& r) { return Percentile(r.*samples, p); };
    };
    result->Add("setup_s", Median(totals), "s");
    result->Add("test_rmse", replays.front().test_rmse, "1");
    result->Add("op_p50_ms", MedianOver(replays, percentile(&ReplayStats::staleness_ms, 50)),
                "ms");
    result->Add("op_p90_ms", MedianOver(replays, percentile(&ReplayStats::staleness_ms, 90)),
                "ms");
    result->Add("heavy_p50_ms", MedianOver(replays, percentile(&ReplayStats::flush_ms, 50)),
                "ms");
    result->Add("heavy_p90_ms", MedianOver(replays, percentile(&ReplayStats::flush_ms, 90)),
                "ms");
    result->Add("work_per_s", events_per_s, "1/s");
    Log("ingest-ml: medians over " + std::to_string(replays.size()) + " replays and " +
        std::to_string(totals.size()) + " set-ups");
    return;
  }

  // Traced: a fresh pipeline replays again with spans and telemetry on.
  loaded.reset();
  SpanRecorder spans;
  loaded = SetUp(inputs, shape, checkpoints, /*traced=*/true);
  const ReplayStats traced =
      Replay(*loaded, shape, DeriveSeed(config.seed, 25), &spans, result);
  result->Check(traced.test_rmse == replays.front().test_rmse,
                "ingest-ml: test RMSE differs between identical replays");
  const double traced_per_s = static_cast<double>(traced.applied) / traced.seconds;
  std::vector<double> apply_us = spans.DurationsMs("stream.apply");
  for (double& v : apply_us) v *= 1e3;
  const double mean_rows =
      traced.rows_resolved.empty() ? NAN
                                   : std::accumulate(traced.rows_resolved.begin(),
                                                     traced.rows_resolved.end(), 0.0) /
                                         static_cast<double>(traced.rows_resolved.size());
  const double mean_entries =
      traced.slice_entries_resolved.empty()
          ? NAN
          : std::accumulate(traced.slice_entries_resolved.begin(),
                            traced.slice_entries_resolved.end(), 0.0) /
                static_cast<double>(traced.slice_entries_resolved.size());
  ptucker::CheckpointInfo info;
  ptucker::LatestCheckpoint(loaded->checkpoint_dir, &info);

  // δ over the final Ω through the last published snapshot's engine.
  double delta_ms = 0.0;
  {
    SpanRecorder::Scope span(&spans, "core.delta");
    bool finite = false;
    delta_ms = DeltaSweepAllModesMs(loaded->pipeline->tensor(),
                                    loaded->service->snapshot()->engine(), shape.ranks,
                                    &finite);
    result->Check(finite, "ingest-ml: δ sweep is not finite");
  }
  // serve/net on the published model: top-K over loopback TCP through a
  // NetServer (1 listen thread, 1 worker) against the in-process call.
  std::vector<double> wire_ms, local_ms;
  double net_start_ms = 0.0, server_topk_mean_ms = 0.0;
  {
    SpanRecorder::Scope span(&spans, "serve.net.probe");
    ptucker::obs::MetricsRegistry registry;
    ptucker::NetServerOptions options;
    options.metrics_registry = &registry;
    double t = Now();
    ptucker::NetServer server(loaded->service, options);
    server.Start();
    net_start_ms = (Now() - t) * 1e3;
    ptucker::NetClient client("127.0.0.1", server.port());
    ptucker::Rng rng(DeriveSeed(config.seed, 26));
    std::int64_t mismatches = 0;
    for (int i = 0; i < kNetProbeReads; ++i) {
      std::vector<std::int64_t> coords(4);
      for (std::size_t n = 0; n < 4; ++n) {
        coords[n] = static_cast<std::int64_t>(
            rng.UniformInt(static_cast<std::uint64_t>(shape.dims[n])));
      }
      coords[1] = 0;
      t = Now();
      const auto remote = client.TopK(kReadMode, kReadTopK, coords);
      wire_ms.push_back((Now() - t) * 1e3);
      t = Now();
      const auto local = loaded->service->TopK(kReadMode, coords, kReadTopK);
      local_ms.push_back((Now() - t) * 1e3);
      bool same = remote.size() == local.size();
      for (std::size_t k = 0; same && k < local.size(); ++k) {
        same = remote[k].index == local[k].index && remote[k].score == local[k].score;
      }
      mismatches += !same;
    }
    result->Check(mismatches == 0, "ingest-ml: " + std::to_string(mismatches) +
                                       " top-K replies over TCP differ from the service");
    const auto metrics = ParseExposition(client.Metrics());
    const auto value = [&](const std::string& name) {
      const auto it = metrics.find(name);
      return it == metrics.end() ? 0.0 : it->second;
    };
    server_topk_mean_ms = value("ptucker_serve_topk_latency_seconds_sum") /
                          std::max(value("ptucker_serve_topk_latency_seconds_count"), 1.0) *
                          1e3;
  }
  const double flush_ms = Median(traced.flush_ms);
  std::vector<double> load_total_ms;
  for (std::size_t r = 0; r < load_ms.size(); ++r) {
    load_total_ms.push_back(load_ms[r] + snapshot_ms[r] + parse_ms[r]);
  }

  result->Add("setup.load_ms", Median(load_total_ms), "ms");
  result->Add("setup.build_ms", Median(build_ms), "ms");
  result->Add("op.kernel_ms", flush_ms, "ms");
  result->Add("op.wait_ms", Median(traced.staleness_ms) - flush_ms, "ms");
  result->Add("core.delta_ms", delta_ms, "ms");
  result->Add("bench.trace_overhead_pct", (events_per_s / traced_per_s - 1.0) * 100.0,
              "%");

  result->Detail("tensor.load_ms", Median(load_ms), "ms");
  result->Detail("serve.snapshot_load_ms", Median(snapshot_ms), "ms");
  result->Detail("stream.log_parse_ms", Median(parse_ms), "ms");
  result->Detail("stream.pipeline_build_ms", Median(build_ms), "ms");
  result->Detail("stream.apply_us", Median(apply_us), "us");
  result->Detail("stream.flush_ms", flush_ms, "ms");
  result->Detail("stream.rows_resolved (per flush)", mean_rows, "count");
  result->Detail("stream.slice_entries_resolved (per flush)", mean_entries, "count");
  result->Detail("serve.net.start_ms", net_start_ms, "ms");
  result->Detail("serve.topk_ms (in-process)", Median(local_ms), "ms");
  result->Detail("serve.net.topk_ms (over TCP)", Median(wire_ms), "ms");
  result->Detail("serve.net.server_topk_mean_ms (METRICS)", server_topk_mean_ms, "ms");
  result->Detail("serve.net.overhead_ms", Median(wire_ms) - Median(local_ms), "ms");
  result->Detail("stream.checkpoint_ms", Median(spans.DurationsMs("stream.checkpoint")),
                 "ms");
  result->Detail("stream.checkpoint_bytes",
                 static_cast<double>(std::filesystem::file_size(info.path)), "B");
  if (!config.trace_out.empty() && !spans.WriteChromeTrace(config.trace_out)) {
    Log("ingest-ml: cannot write " + config.trace_out);
  }
}

}  // namespace perfbench
