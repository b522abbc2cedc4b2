// Head-to-head benchmark of the δ-engines (core/delta_engine.h) on
// Fig. 6-style synthetic configs: a full δ-sweep (every observed entry ×
// every mode — the exact inner work of one P-Tucker ALS iteration without
// the solves), a full reconstruct sweep (x̂ for every observed entry —
// the inner work of the Eq. 5 error metric and the Eq. 13 truncation
// scan), and a short end-to-end decomposition per engine. The sweeps flow
// through DeltaEngine::DeltaBatch / ReconstructBatch, so the mode-major
// engine's tile kernels are measured the way the solver and metric paths
// drive them; its tile width B is swept, and its group skip is measured
// at ε = 0 (exact) and ε = 0.2 (lossy δ, with its max |δ − δ_naive|
// reported in the accuracy column — its reconstruct kernel stays exact).
//
// Every variant of a config is built once, then timed in 7 interleaved
// rounds — one δ-sweep and one reconstruct sample per variant per round,
// the starting variant rotating from round to round — and compared by
// its per-variant median, so a slow moment of the host lands on one
// round of every variant instead of on one variant's whole measurement.
// A reconstruct sample repeats the sweep until even the config's fastest
// variant spans >= 20 ms (the same count for every variant), and is
// reported per sweep: a lone 3–6 ms sweep sits inside the host's noise.
//
// Exit status is the Release CI perf gate (docs/benchmarks.md): 0 only if
// at least one single config simultaneously shows (a) modemajor B=1
// beating naive, (b) modemajor B=64 matching or beating B=1 on the
// δ-sweep, (c) modemajor ε=0.2 beating ε=0 (both B=1) on the δ-sweep, and
// (d) modemajor B=64 matching or beating B=1 on the reconstruct sweep.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <iterator>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "core/delta_engine.h"
#include "data/synthetic.h"
#include "obs/percentile.h"
#include "obs/stopwatch.h"
#include "util/random.h"

namespace {

using namespace ptucker;
using namespace ptucker::bench;

struct Config {
  std::int64_t order;
  std::int64_t dim;
  std::int64_t nnz;
  std::int64_t rank;
};

// One benchmarked engine variant: how to build it and how to label it.
struct Variant {
  DeltaEngineChoice choice;
  const char* label;
  double adaptive_eps;
  std::int64_t tile_width;
};

// Interleaved timing rounds per config; the gate compares medians.
constexpr int kRounds = 7;

// Minimum span of one timed reconstruct sample.
constexpr double kMinRecSampleSeconds = 0.020;

// One variant's engine, its per-round timings and its last outputs (kept
// so every variant can be compared against the naive oracle exactly).
struct VariantRun {
  std::unique_ptr<DeltaEngine> engine;
  double build_seconds = 0.0;
  std::vector<double> sweep_times;  // one full δ-sweep per round
  std::vector<double> rec_times;    // seconds per reconstruct sweep, per round
  std::vector<double> deltas;       // the full |Ω|·N·J delta block
  std::vector<double> xhat;         // the |Ω| x̂ block
};

// The observed entries as DeltaBatch/ReconstructBatch arguments.
struct EntryBatch {
  std::vector<std::int64_t> entries;
  std::vector<const std::int64_t*> indices;
};

// Times one full δ-sweep (every entry × every mode through DeltaBatch)
// and `rec_repeats` full reconstruct sweeps (ReconstructBatch over every
// entry) of `run`'s engine, appending one sample to each of its timing
// series; the reconstruct sample is the mean time per sweep.
void TimeRound(const EntryBatch& batch, std::int64_t order, std::int64_t rank,
               std::int64_t rec_repeats, VariantRun* run) {
  const std::int64_t nnz = static_cast<std::int64_t>(batch.entries.size());
  run->deltas.resize(static_cast<std::size_t>(order * nnz * rank));
  Stopwatch sweep_clock;
  for (std::int64_t mode = 0; mode < order; ++mode) {
    run->engine->DeltaBatch(nnz, batch.entries.data(), batch.indices.data(),
                            mode, run->deltas.data() + mode * nnz * rank);
  }
  run->sweep_times.push_back(sweep_clock.ElapsedSeconds());

  run->xhat.resize(static_cast<std::size_t>(nnz));
  Stopwatch rec_clock;
  for (std::int64_t r = 0; r < rec_repeats; ++r) {
    run->engine->ReconstructBatch(nnz, batch.indices.data(), run->xhat.data());
  }
  run->rec_times.push_back(rec_clock.ElapsedSeconds() /
                           static_cast<double>(rec_repeats));
}

// Reconstruct sweeps per timed sample for one config: enough that the
// fastest variant's sample spans kMinRecSampleSeconds, measured on a
// second (warm) sweep of every variant.
std::int64_t RecRepeats(const EntryBatch& batch,
                        std::vector<VariantRun>* runs) {
  const std::int64_t nnz = static_cast<std::int64_t>(batch.entries.size());
  double fastest = kMinRecSampleSeconds;
  for (VariantRun& run : *runs) {
    run.xhat.resize(static_cast<std::size_t>(nnz));
    run.engine->ReconstructBatch(nnz, batch.indices.data(), run.xhat.data());
    Stopwatch clock;
    run.engine->ReconstructBatch(nnz, batch.indices.data(), run.xhat.data());
    fastest = std::min(fastest, clock.ElapsedSeconds());
  }
  return static_cast<std::int64_t>(
      std::ceil(kMinRecSampleSeconds / std::max(fastest, 1e-9)));
}

double MaxAbsDeviation(const std::vector<double>& a,
                       const std::vector<double>& b) {
  double max_diff = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    max_diff = std::max(max_diff, std::fabs(a[i] - b[i]));
  }
  return max_diff;
}

double SolveSeconds(const Variant& variant, const SparseTensor& x,
                    const std::vector<std::int64_t>& ranks) {
  PTuckerOptions options;
  options.core_dims = ranks;
  options.max_iterations = 2;
  options.tolerance = 0.0;
  options.delta_engine = variant.choice;
  options.adaptive_epsilon = variant.adaptive_eps;
  options.tile_width = variant.tile_width;
  const MethodOutcome outcome = RunPTucker(x, options);
  return outcome.ok ? outcome.total_seconds : -1.0;
}

}  // namespace

int main() {
  PrintHeader("DeltaEngine comparison (Fig. 6-style synthetic configs)",
              "full delta-sweep = |Omega| x N DeltaBatch calls; "
              "reconstruct sweep = |Omega| ReconstructBatch x-hats, "
              "repeated to >= 20 ms per sample; "
              "solve = 2 P-Tucker iterations; sweep times are medians "
              "of 7 interleaved rounds; "
              "accuracy = max |delta - delta_naive| over the sweep");

  const Config configs[] = {
      {3, 3000, 30000, 5},
      {3, 3000, 30000, 8},
      {4, 300, 10000, 5},
  };

  // The first two rows are the references the gate compares against:
  // naive first (the accuracy oracle), then mode-major at B=1, ε=0. The
  // rows after them are matched by engine, width and ε.
  const Variant variants[] = {
      {DeltaEngineChoice::kNaive, "naive", 0.0, 1},
      {DeltaEngineChoice::kModeMajor, "modemajor B=1", 0.0, 1},
      {DeltaEngineChoice::kCached, "cache", 0.0, 1},
      {DeltaEngineChoice::kModeMajor, "modemajor B=1 e=0.2", 0.2, 1},
      {DeltaEngineChoice::kModeMajor, "modemajor B=4", 0.0, 4},
      {DeltaEngineChoice::kModeMajor, "modemajor B=16", 0.0, 16},
      {DeltaEngineChoice::kModeMajor, "modemajor B=64", 0.0, 64},
      {DeltaEngineChoice::kModeMajor, "modemajor B=64 e=0.2", 0.2, 64},
  };

  TablePrinter table({"config", "engine", "build s", "sweep s", "speedup",
                      "accuracy", "solve s"});
  // Reconstruct-sweep rows: the same engines driving the metric /
  // truncation-scan workload (x-hat for every observed entry). Every
  // engine's reconstruct kernel is exact, including at ε > 0.
  TablePrinter rec_table({"config", "engine", "repeats", "rec s", "speedup"});
  // The gate (docs/benchmarks.md): some single config must exhibit all
  // four wins at once. The per-condition flags are reported for
  // diagnosis when the combined gate fails.
  bool some_config_all_four = false;
  bool modemajor_beat_naive = false;
  bool wide_matched_narrow = false;
  bool skip_beat_exact = false;
  bool wide_matched_narrow_rec = false;

  for (const Config& config : configs) {
    bool config_modemajor_win = false;
    bool config_wide_match = false;
    bool config_skip_win = false;
    bool config_rec_wide_match = false;
    Rng rng(900 + static_cast<std::uint64_t>(config.order * 10 + config.rank));
    const SparseTensor x =
        UniformCubicTensor(config.order, config.dim, config.nnz, rng);
    const std::vector<std::int64_t> ranks(
        static_cast<std::size_t>(config.order), config.rank);

    std::vector<Matrix> factors;
    for (std::int64_t n = 0; n < config.order; ++n) {
      Matrix factor(x.dim(n), config.rank);
      factor.FillUniform(rng);
      factors.push_back(std::move(factor));
    }
    DenseTensor core(ranks);
    core.FillUniform(rng);
    const CoreEntryList list(core);

    const std::string name = "N=" + std::to_string(config.order) +
                             " J=" + std::to_string(config.rank) +
                             " nnz=" + std::to_string(config.nnz);

    EntryBatch batch;
    for (std::int64_t e = 0; e < x.nnz(); ++e) {
      batch.entries.push_back(e);
      batch.indices.push_back(x.index(e));
    }
    const std::size_t count = std::size(variants);
    std::vector<VariantRun> runs(count);
    for (std::size_t v = 0; v < count; ++v) {
      Stopwatch build_clock;
      runs[v].engine = MakeDeltaEngine(variants[v].choice, x, list, factors,
                                       nullptr, variants[v].adaptive_eps,
                                       variants[v].tile_width);
      runs[v].build_seconds = build_clock.ElapsedSeconds();
    }
    const std::int64_t rec_repeats = RecRepeats(batch, &runs);
    for (int round = 0; round < kRounds; ++round) {
      for (std::size_t i = 0; i < count; ++i) {
        TimeRound(batch, config.order, config.rank, rec_repeats,
                  &runs[(static_cast<std::size_t>(round) + i) % count]);
      }
    }

    // Per-variant medians; runs[0] is naive (the accuracy oracle and the
    // speedup baseline), runs[1] modemajor B=1 ε=0 (the gate's reference).
    std::vector<double> sweep(count);
    std::vector<double> rec(count);
    for (std::size_t v = 0; v < count; ++v) {
      sweep[v] = obs::Percentile(runs[v].sweep_times, 50.0);
      rec[v] = obs::Percentile(runs[v].rec_times, 50.0);
    }
    for (std::size_t v = 0; v < count; ++v) {
      const Variant& variant = variants[v];
      const bool lossy = variant.adaptive_eps > 0.0;
      const double error = MaxAbsDeviation(runs[v].deltas, runs[0].deltas);
      if (!lossy && error > 1e-6) {
        std::fprintf(stderr, "delta mismatch for %s on %s: max err %.3e\n",
                     variant.label, name.c_str(), error);
        return 1;
      }
      // Reconstruction is exact on every engine — the ε budget only
      // applies to δ.
      const double rec_error = MaxAbsDeviation(runs[v].xhat, runs[0].xhat);
      if (rec_error > 1e-6) {
        std::fprintf(stderr, "x-hat mismatch for %s on %s: max err %.3e\n",
                     variant.label, name.c_str(), rec_error);
        return 1;
      }
      const bool modemajor = variant.choice == DeltaEngineChoice::kModeMajor;
      if (modemajor && variant.tile_width == 1 && !lossy) {
        config_modemajor_win = sweep[v] < sweep[0];
      }
      if (modemajor && variant.tile_width == 64 && !lossy) {
        config_wide_match = sweep[v] <= sweep[1];
        config_rec_wide_match = rec[v] <= rec[1];
      }
      if (modemajor && variant.tile_width == 1 && lossy) {
        config_skip_win = sweep[v] < sweep[1];
      }
      std::string accuracy = "exact";
      if (lossy) {
        char buffer[32];
        std::snprintf(buffer, sizeof(buffer), "%.2e", error);
        accuracy = buffer;
      }
      table.AddRow({name, variant.label,
                    FormatDouble(runs[v].build_seconds, 4),
                    FormatDouble(sweep[v], 4),
                    FormatDouble(sweep[0] / sweep[v], 2) + "x", accuracy,
                    FormatDouble(SolveSeconds(variant, x, ranks), 4)});
      rec_table.AddRow({name, variant.label, std::to_string(rec_repeats),
                        FormatDouble(rec[v], 4),
                        FormatDouble(rec[0] / rec[v], 2) + "x"});
    }
    modemajor_beat_naive |= config_modemajor_win;
    wide_matched_narrow |= config_wide_match;
    skip_beat_exact |= config_skip_win;
    wide_matched_narrow_rec |= config_rec_wide_match;
    some_config_all_four |= config_modemajor_win && config_wide_match &&
                            config_skip_win && config_rec_wide_match;
  }
  table.Print();
  std::printf("\nreconstruct sweep (x-hat for every observed entry):\n");
  rec_table.Print();

  std::printf("\nmodemajor B=1 beats naive on >=1 config:        %s\n",
              modemajor_beat_naive ? "YES" : "NO");
  std::printf("B=64 matches/beats B=1 delta on >=1 config:     %s\n",
              wide_matched_narrow ? "YES" : "NO");
  std::printf("e=0.2 beats e=0 (B=1) on >=1 config:            %s\n",
              skip_beat_exact ? "YES" : "NO");
  std::printf("B=64 reconstruct >= B=1 on >=1 config:          %s\n",
              wide_matched_narrow_rec ? "YES" : "NO");
  std::printf("all four wins on one config (the CI gate):      %s\n",
              some_config_all_four ? "YES" : "NO");
  return some_config_all_four ? 0 : 1;
}
