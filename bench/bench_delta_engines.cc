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
// Exit status is the Release CI perf gate (docs/benchmarks.md): 0 only if
// at least one single config simultaneously shows (a) modemajor B=1
// beating naive, (b) modemajor B=64 matching or beating B=1 on the
// δ-sweep, (c) modemajor ε=0.2 beating ε=0 (both B=1) on the δ-sweep, and
// (d) modemajor B=64 matching or beating B=1 on the reconstruct sweep.
#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "core/delta_engine.h"
#include "data/synthetic.h"
#include "util/random.h"
#include "obs/stopwatch.h"

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

struct SweepResult {
  double build_seconds = 0.0;
  double sweep_seconds = 0.0;      // best-of-repeats full δ-sweep
  double max_abs_error = 0.0;      // vs the naive oracle's deltas
  double rec_seconds = 0.0;        // best-of-repeats full reconstruct sweep
  double rec_max_abs_error = 0.0;  // vs the naive oracle's x̂
  std::vector<double> deltas;      // last sweep's full |Ω|·N·J delta block
  std::vector<double> xhat;        // last reconstruct sweep's |Ω| x̂ block
};

// Builds the engine (timed) and runs `repeats` full δ-sweeps through
// DeltaBatch plus `repeats` full reconstruct sweeps through
// ReconstructBatch, keeping the fastest of each. The deltas and x̂ of the
// final sweeps are retained so variants can be compared against the naive
// oracle exactly.
SweepResult RunSweep(const Variant& variant, const SparseTensor& x,
                     const CoreEntryList& list,
                     const std::vector<Matrix>& factors, std::int64_t rank,
                     int repeats) {
  SweepResult result;
  Stopwatch build_clock;
  const auto engine =
      MakeDeltaEngine(variant.choice, x, list, factors, nullptr,
                      variant.adaptive_eps, variant.tile_width);
  result.build_seconds = build_clock.ElapsedSeconds();

  const std::int64_t order = x.order();
  const std::int64_t nnz = x.nnz();
  std::vector<std::int64_t> entries(static_cast<std::size_t>(nnz));
  std::vector<const std::int64_t*> indices(static_cast<std::size_t>(nnz));
  for (std::int64_t e = 0; e < nnz; ++e) {
    entries[static_cast<std::size_t>(e)] = e;
    indices[static_cast<std::size_t>(e)] = x.index(e);
  }
  result.deltas.resize(static_cast<std::size_t>(order * nnz * rank));

  result.sweep_seconds = 1e30;
  for (int repeat = 0; repeat < repeats; ++repeat) {
    Stopwatch sweep_clock;
    for (std::int64_t mode = 0; mode < order; ++mode) {
      engine->DeltaBatch(nnz, entries.data(), indices.data(), mode,
                         result.deltas.data() + mode * nnz * rank);
    }
    result.sweep_seconds =
        std::min(result.sweep_seconds, sweep_clock.ElapsedSeconds());
  }

  result.xhat.resize(static_cast<std::size_t>(nnz));
  result.rec_seconds = 1e30;
  for (int repeat = 0; repeat < repeats; ++repeat) {
    Stopwatch rec_clock;
    engine->ReconstructBatch(nnz, indices.data(), result.xhat.data());
    result.rec_seconds =
        std::min(result.rec_seconds, rec_clock.ElapsedSeconds());
  }
  return result;
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
              "reconstruct sweep = |Omega| ReconstructBatch x-hats; "
              "solve = 2 P-Tucker iterations; best of 5 sweeps; "
              "accuracy = max |delta - delta_naive| over the sweep");

  const Config configs[] = {
      {3, 3000, 30000, 5},
      {3, 3000, 30000, 8},
      {4, 300, 10000, 5},
  };

  // The first two rows are the references the gate compares against:
  // naive first (the accuracy oracle), then mode-major at B=1, ε=0.
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
  TablePrinter rec_table({"config", "engine", "rec s", "speedup"});
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

    SweepResult naive;
    double modemajor_sweep = 0.0;
    double modemajor_rec = 0.0;
    for (const Variant& variant : variants) {
      SweepResult sweep =
          RunSweep(variant, x, list, factors, config.rank, 5);
      if (variant.choice == DeltaEngineChoice::kNaive) {
        naive = std::move(sweep);
        table.AddRow({name, variant.label,
                      FormatDouble(naive.build_seconds, 4),
                      FormatDouble(naive.sweep_seconds, 4), "1.00x", "exact",
                      FormatDouble(SolveSeconds(variant, x, ranks), 4)});
        rec_table.AddRow({name, variant.label,
                          FormatDouble(naive.rec_seconds, 4), "1.00x"});
        continue;
      }
      if (naive.deltas.size() != sweep.deltas.size()) {
        std::fprintf(stderr,
                     "naive reference missing/mismatched for %s on %s "
                     "(is kNaive still the first variant?)\n",
                     variant.label, name.c_str());
        return 1;
      }
      for (std::size_t i = 0; i < sweep.deltas.size(); ++i) {
        sweep.max_abs_error = std::max(
            sweep.max_abs_error, std::fabs(sweep.deltas[i] - naive.deltas[i]));
      }
      for (std::size_t i = 0; i < sweep.xhat.size(); ++i) {
        sweep.rec_max_abs_error = std::max(
            sweep.rec_max_abs_error, std::fabs(sweep.xhat[i] - naive.xhat[i]));
      }
      const bool lossy = variant.adaptive_eps > 0.0;
      const bool reference = variant.choice == DeltaEngineChoice::kModeMajor &&
                             variant.tile_width == 1 && !lossy;
      const bool widest = variant.choice == DeltaEngineChoice::kModeMajor &&
                          variant.tile_width == 64 && !lossy;
      if (!lossy && sweep.max_abs_error > 1e-6) {
        std::fprintf(stderr, "delta mismatch for %s on %s: max err %.3e\n",
                     variant.label, name.c_str(), sweep.max_abs_error);
        return 1;
      }
      // Reconstruction is exact on every engine — the ε budget only
      // applies to δ.
      if (sweep.rec_max_abs_error > 1e-6) {
        std::fprintf(stderr, "x-hat mismatch for %s on %s: max err %.3e\n",
                     variant.label, name.c_str(), sweep.rec_max_abs_error);
        return 1;
      }
      const double speedup = naive.sweep_seconds / sweep.sweep_seconds;
      const double rec_speedup = naive.rec_seconds / sweep.rec_seconds;
      if (reference) {
        modemajor_sweep = sweep.sweep_seconds;
        modemajor_rec = sweep.rec_seconds;
        if (speedup > 1.0) config_modemajor_win = true;
      }
      if (widest && sweep.sweep_seconds <= modemajor_sweep) {
        config_wide_match = true;
      }
      if (widest && sweep.rec_seconds <= modemajor_rec) {
        config_rec_wide_match = true;
      }
      if (lossy && variant.tile_width == 1 &&
          sweep.sweep_seconds < modemajor_sweep) {
        config_skip_win = true;
      }
      std::string accuracy = "exact";
      if (lossy) {
        char buffer[32];
        std::snprintf(buffer, sizeof(buffer), "%.2e", sweep.max_abs_error);
        accuracy = buffer;
      }
      table.AddRow({name, variant.label, FormatDouble(sweep.build_seconds, 4),
                    FormatDouble(sweep.sweep_seconds, 4),
                    FormatDouble(speedup, 2) + "x", accuracy,
                    FormatDouble(SolveSeconds(variant, x, ranks), 4)});
      rec_table.AddRow({name, variant.label,
                        FormatDouble(sweep.rec_seconds, 4),
                        FormatDouble(rec_speedup, 2) + "x"});
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
