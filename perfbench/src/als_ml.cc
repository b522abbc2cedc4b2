// als-ml: batch P-Tucker training as in the paper's Figs. 6-10.
//
// A MovieLens-sim (user, movie, year, hour) tensor is generated from the
// seed, split 90/10 into train/test and written as .tns files before any
// timing. Set-up loads both files, builds the mode index and the
// δ-engine. The untraced run sets up and calls PTuckerDecompose (fixed
// iteration count, tolerance 0, 2 threads) over and over for the run's
// seconds and reports the median set-up and iteration times and the
// held-out RMSE. The traced run
// drives the same ALS loop itself through the public core calls, timing
// each one, and checks that it ends bit-identical to PTuckerDecompose.
#include <omp.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common.h"
#include "core/delta_engine.h"
#include "core/orthogonalize.h"
#include "core/ptucker.h"
#include "core/reconstruction.h"
#include "core/row_update.h"
#include "data/movielens_sim.h"
#include "data/split.h"
#include "tensor/io.h"

namespace perfbench {

namespace {

using ptucker::CoreEntryList;
using ptucker::DeltaEngine;
using ptucker::DenseTensor;
using ptucker::Matrix;
using ptucker::PTuckerOptions;
using ptucker::PTuckerResult;
using ptucker::SparseTensor;

constexpr int kThreads = 2;
constexpr double kTestFraction = 0.1;
// Set-ups before every solve of the untraced run. Spread through the run
// like this, their median samples the host's speed over the whole run,
// not over its first seconds.
constexpr int kSetupsPerSolve = 2;

struct AlsShape {
  std::vector<std::int64_t> dims;
  std::int64_t nnz;  // observed entries before the train/test split
  std::vector<std::int64_t> ranks;
  int iterations;    // ALS iterations per solve
  int setup_repeats;  // set-ups before the traced run
};

AlsShape ShapeFor(Size size) {
  if (size == Size::kSmoke) return {{300, 100, 21, 24}, 3000, {4, 4, 2, 2}, 2, 2};
  // |Ω_train| = 200k: a working set (≈ 10 MB) well past the L2.
  return {{20000, 3000, 21, 24}, 222223, {8, 8, 4, 4}, 8, 8};
}

struct Inputs {
  std::string train_path;
  std::string test_path;
};

Inputs GenerateInputs(const RunConfig& config, const AlsShape& shape) {
  const ptucker::MovieLensData data = ptucker::SimulateMovieLens(
      MovieLensFor(shape.dims, shape.nnz, DeriveSeed(config.seed, 1)));
  ptucker::Rng split_rng(DeriveSeed(config.seed, 2));
  const ptucker::TrainTestSplit split =
      ptucker::SplitObservedEntries(data.tensor, kTestFraction, split_rng);
  Inputs inputs{config.work_dir + "/als_train.tns",
                config.work_dir + "/als_test.tns"};
  ptucker::WriteTns(inputs.train_path, split.train);
  ptucker::WriteTns(inputs.test_path, split.test);
  return inputs;
}

PTuckerOptions SolverOptions(const RunConfig& config, const AlsShape& shape) {
  PTuckerOptions options;
  options.core_dims = shape.ranks;
  options.max_iterations = shape.iterations;
  options.tolerance = 0.0;  // always run every iteration
  options.num_threads = kThreads;
  options.seed = DeriveSeed(config.seed, 3);
  return options;
}

// The factors and core PTuckerDecompose starts from (Algorithm 2 line 1).
struct AlsState {
  std::vector<Matrix> factors;
  DenseTensor core;
};

AlsState InitialState(const SparseTensor& x, const PTuckerOptions& options) {
  ptucker::Rng rng(options.seed);
  std::vector<Matrix> factors;
  for (std::int64_t n = 0; n < x.order(); ++n) {
    Matrix factor(x.dim(n), options.core_dims[static_cast<std::size_t>(n)]);
    factor.FillUniform(rng);
    factors.push_back(std::move(factor));
  }
  DenseTensor core(options.core_dims);
  core.FillUniform(rng);
  return {std::move(factors), std::move(core)};
}

std::unique_ptr<DeltaEngine> BuildEngine(const SparseTensor& x,
                                         const CoreEntryList& core_list,
                                         const std::vector<Matrix>& factors,
                                         const PTuckerOptions& options) {
  return ptucker::MakeDeltaEngine(ptucker::ResolveDeltaEngineChoice(options),
                                  x, core_list, factors, nullptr,
                                  options.adaptive_epsilon,
                                  options.tile_width);
}

struct Loaded {
  SparseTensor train;
  SparseTensor test;
  double load_ms = 0.0;
  double index_ms = 0.0;
  double engine_ms = 0.0;
  double total_s() const { return (load_ms + index_ms + engine_ms) / 1e3; }
};

// What a user pays before the first iteration: both .tns files through
// the public loader, the mode index, and the δ-engine build.
Loaded Setup(const Inputs& inputs, const AlsShape& shape,
             const PTuckerOptions& options) {
  Loaded loaded;
  double t = Now();
  loaded.train = ptucker::ReadTns(inputs.train_path, shape.dims);
  loaded.test = ptucker::ReadTns(inputs.test_path, shape.dims);
  loaded.load_ms = (Now() - t) * 1e3;
  t = Now();
  loaded.train.BuildModeIndex();
  loaded.index_ms = (Now() - t) * 1e3;
  const AlsState state = InitialState(loaded.train, options);
  t = Now();
  const CoreEntryList core_list(state.core);
  const auto engine = BuildEngine(loaded.train, core_list, state.factors, options);
  loaded.engine_ms = (Now() - t) * 1e3;
  return loaded;
}

// The times of every set-up of a run.
struct SetupTimes {
  std::vector<double> total_s, load_ms, index_ms, engine_ms;
};

// Sets up `count` times, each on the next CPU in turn, records each
// set-up's times and returns the last set-up.
Loaded RepeatSetup(const Inputs& inputs, const AlsShape& shape,
                   const PTuckerOptions& options, int count, SetupTimes* times) {
  Loaded loaded;
  for (int r = 0; r < count; ++r) {
    const ScopedCpuTurn cpu_turn(static_cast<std::int64_t>(times->total_s.size()));
    loaded = Setup(inputs, shape, options);
    times->total_s.push_back(loaded.total_s());
    times->load_ms.push_back(loaded.load_ms);
    times->index_ms.push_back(loaded.index_ms);
    times->engine_ms.push_back(loaded.engine_ms);
  }
  return loaded;
}

std::vector<double> IterationMs(const PTuckerResult& result) {
  std::vector<double> out;
  for (const auto& stats : result.iterations) out.push_back(stats.seconds * 1e3);
  return out;
}

// Table III counts for one iteration, computed from the shapes (not
// measured): δ, B/c accumulation, row solves and compulsory bytes.
struct WorkCounts {
  double delta_flops = 0, gram_flops = 0, solve_flops = 0, bytes = 0;
  std::vector<std::int64_t> rows_solved, rows_empty;
};

WorkCounts ComputeWork(const SparseTensor& x, std::int64_t core_nnz,
                       const std::vector<std::int64_t>& ranks) {
  WorkCounts work;
  const double nnz = static_cast<double>(x.nnz());
  const double order = static_cast<double>(x.order());
  double rank_sum = 0;
  for (const std::int64_t j : ranks) rank_sum += static_cast<double>(j);
  for (std::int64_t n = 0; n < x.order(); ++n) {
    const double j = static_cast<double>(ranks[static_cast<std::size_t>(n)]);
    std::int64_t solved = 0;
    for (std::int64_t i = 0; i < x.dim(n); ++i) solved += x.SliceSize(n, i) > 0;
    work.rows_solved.push_back(solved);
    work.rows_empty.push_back(x.dim(n) - solved);
    // Each (entry, core entry) pair: N−1 products and one accumulate.
    work.delta_flops += nnz * static_cast<double>(core_nnz) * order;
    // Eq. 10 rank-1 update of B and Eq. 11 axpy into c.
    work.gram_flops += nnz * (2 * j * j + 2 * j);
    // Cholesky of the J×J system plus two triangular solves (Eq. 9).
    work.solve_flops += static_cast<double>(solved) * (j * j * j / 3 + 2 * j * j);
    // Coordinates, value and the other modes' factor rows per entry,
    // plus the rewritten factor.
    work.bytes += nnz * 8 * (order + 1 + rank_sum - j) +
                  static_cast<double>(x.dim(n)) * j * 8;
  }
  work.bytes += nnz * 8 * (order + 1 + rank_sum);  // the error pass
  return work;
}

void RunUntraced(const RunConfig& config, const Inputs& inputs,
                 const AlsShape& shape, const PTuckerOptions& options,
                 Result* result) {
  SetupTimes setups;
  Loaded loaded;
  std::vector<double> iteration_ms, solve_ms;
  std::vector<double> final_errors, rmses;
  const double deadline = Now() + config.seconds;
  while (Now() < deadline || final_errors.size() < 2) {
    loaded = RepeatSetup(inputs, shape, options, kSetupsPerSolve, &setups);
    const double start = Now();
    const PTuckerResult solved = ptucker::PTuckerDecompose(loaded.train, options);
    solve_ms.push_back((Now() - start) * 1e3);
    const auto ms = IterationMs(solved);
    iteration_ms.insert(iteration_ms.end(), ms.begin(), ms.end());
    final_errors.push_back(solved.final_error);
    rmses.push_back(ptucker::TestRmse(loaded.test, solved.model.core,
                                      solved.model.factors));
    result->attempted += static_cast<std::int64_t>(ms.size());
  }
  // Same seed, same input, same threads: every solve is bit-identical.
  for (std::size_t i = 1; i < final_errors.size(); ++i) {
    result->Check(final_errors[i] == final_errors[0],
                  "als-ml: repeated PTuckerDecompose final error differs");
    result->Check(rmses[i] == rmses[0], "als-ml: repeated test RMSE differs");
  }
  result->Check(rmses[0] > 0.0 && rmses[0] < 1.0,
                "als-ml: test RMSE outside (0, 1)");
  double iteration_total_ms = 0.0;
  for (const double ms : iteration_ms) iteration_total_ms += ms;
  result->Add("setup_s", Median(setups.total_s), "s");
  result->Add("test_rmse", rmses[0], "1");
  result->Add("op_p50_ms", Median(iteration_ms), "ms");
  result->Add("op_p90_ms", Percentile(iteration_ms, 90), "ms");
  result->Add("heavy_p50_ms", Median(solve_ms), "ms");
  result->Add("heavy_p90_ms", Percentile(solve_ms, 90), "ms");
  result->Add("work_per_s",
              static_cast<double>(loaded.train.nnz()) *
                  static_cast<double>(iteration_ms.size()) /
                  (iteration_total_ms / 1e3),
              "1/s");
  Log("als-ml: iter_ms = op_p50_ms over " + std::to_string(iteration_ms.size()) +
      " iterations in " + std::to_string(solve_ms.size()) + " solves; slowest iteration " +
      std::to_string(Percentile(iteration_ms, 100)) + " ms");
}

void RunTraced(const RunConfig& config, const Loaded& loaded,
               const SetupTimes& setups, const PTuckerOptions& options,
               Result* result) {
  const SparseTensor& x = loaded.train;
  SpanRecorder spans;

  // Untraced reference: the library's own loop.
  const PTuckerResult reference = ptucker::PTuckerDecompose(x, options);
  const double reference_iter_ms = Median(IterationMs(reference));

  // The same loop driven from here, one span per public call.
  AlsState state = InitialState(x, options);
  double final_error = 0.0;
  std::int64_t core_nnz = 0;
  std::vector<double> kernel_ms, wait_ms, delta_ms;
  {
    ptucker::OmpEnvironmentGuard omp_guard(options.num_threads,
                                           options.scheduling);
    CoreEntryList core_list(state.core);
    core_nnz = core_list.size();
    std::unique_ptr<DeltaEngine> engine;
    {
      SpanRecorder::Scope span(&spans, "core.engine_build");
      engine = BuildEngine(x, core_list, state.factors, options);
    }
    ptucker::RowUpdateOptions row_options;
    row_options.lambda = options.lambda;
    row_options.sample_rate = options.sample_rate;
    row_options.seed = options.seed;
    for (int iteration = 1; iteration <= options.max_iterations; ++iteration) {
      row_options.iteration = iteration;
      double kernel = 0.0;
      const double start = Now();
      {
        SpanRecorder::Scope span(&spans, "core.iteration");
        for (std::int64_t mode = 0; mode < x.order(); ++mode) {
          const double t = Now();
          SpanRecorder::Scope mode_span(&spans,
                                        "core.row_update.m" + std::to_string(mode));
          Matrix& factor = state.factors[static_cast<std::size_t>(mode)];
          Matrix old_factor;
          if (engine->WantsFactorSnapshot()) old_factor = factor;
          ptucker::UpdateFactorRows(x, mode, nullptr, 0, *engine, &factor,
                                    row_options);
          engine->OnFactorUpdated(mode, old_factor);
          kernel += Now() - t;
        }
        const double t = Now();
        SpanRecorder::Scope error_span(&spans, "core.error");
        ptucker::ReconstructionError(x, *engine);
        kernel += Now() - t;
      }
      kernel_ms.push_back(kernel * 1e3);
      wait_ms.push_back((Now() - start - kernel) * 1e3);
      // δ alone, outside the iteration: reads the factors, changes nothing.
      double checksum = 0.0;
      const double t = Now();
      for (std::int64_t mode = 0; mode < x.order(); ++mode) {
        SpanRecorder::Scope span(&spans, "core.delta.m" + std::to_string(mode));
        checksum += DeltaSweep(x, *engine, mode,
                               options.core_dims[static_cast<std::size_t>(mode)]);
      }
      delta_ms.push_back((Now() - t) * 1e3);
      result->Check(std::isfinite(checksum), "als-ml: δ sweep is not finite");
      result->attempted += 1;
    }
    SpanRecorder::Scope span(&spans, "core.orthogonalize");
    ptucker::OrthogonalizeFactors(&state.factors, &state.core);
    final_error = ptucker::ReconstructionError(x, CoreEntryList(state.core),
                                               state.factors);
  }
  result->Check(final_error == reference.final_error,
                "als-ml: external ALS loop final error " +
                    std::to_string(final_error) + " != PTuckerDecompose's " +
                    std::to_string(reference.final_error));

  // Fig. 10: one thread against two.
  PTuckerOptions one_thread = options;
  one_thread.num_threads = 1;
  one_thread.max_iterations = 2;
  const double one_thread_ms =
      Median(IterationMs(ptucker::PTuckerDecompose(x, one_thread)));

  const double iter_ms = Median(spans.DurationsMs("core.iteration"));
  const double load_ms = Median(setups.load_ms);
  const double index_ms = Median(setups.index_ms);
  const double engine_ms = Median(setups.engine_ms);
  result->Add("setup.load_ms", load_ms, "ms");
  result->Add("setup.build_ms", index_ms + engine_ms, "ms");
  result->Add("op.kernel_ms", Median(kernel_ms), "ms");
  result->Add("op.wait_ms", Median(wait_ms), "ms");
  result->Add("core.delta_ms", Median(delta_ms), "ms");
  result->Add("bench.trace_overhead_pct",
              (iter_ms - reference_iter_ms) / reference_iter_ms * 100.0, "%");

  // The per-phase split of one iteration (medians over the iterations);
  // the phases plus core.unattributed_ms add up to core.iter_ms.
  const double error_ms = Median(spans.DurationsMs("core.error"));
  double phases_ms = error_ms;
  double delta_total_ms = 0.0;
  result->Detail("core.iter_ms", iter_ms, "ms");
  for (std::int64_t mode = 0; mode < x.order(); ++mode) {
    const std::string m = ".m" + std::to_string(mode);
    const double row_ms = Median(spans.DurationsMs("core.row_update" + m));
    const double mode_delta_ms = Median(spans.DurationsMs("core.delta" + m));
    result->Detail("core.row_update_ms" + m, row_ms, "ms");
    result->Detail("core.delta_ms" + m, mode_delta_ms, "ms");
    result->Detail("core.gram_solve_ms" + m, row_ms - mode_delta_ms, "ms");
    phases_ms += row_ms;
    delta_total_ms += mode_delta_ms;
  }
  result->Detail("core.error_ms", error_ms, "ms");
  result->Detail("core.unattributed_ms", iter_ms - phases_ms, "ms");
  result->Detail("tensor.load_ms", load_ms, "ms");
  result->Detail("tensor.mode_index_ms", index_ms, "ms");
  result->Detail("core.engine_build_ms", engine_ms, "ms");

  const WorkCounts work = ComputeWork(x, core_nnz, options.core_dims);
  result->Detail("core.entries (computed)", static_cast<double>(x.nnz()), "count");
  for (std::int64_t mode = 0; mode < x.order(); ++mode) {
    const std::string m = ".m" + std::to_string(mode);
    const auto n = static_cast<std::size_t>(mode);
    result->Detail("core.rows_solved" + m + " (computed)",
                   static_cast<double>(work.rows_solved[n]), "count");
    result->Detail("core.rows_empty" + m + " (computed)",
                   static_cast<double>(work.rows_empty[n]), "count");
  }
  result->Detail("core.delta_flops (computed)", work.delta_flops, "flop");
  result->Detail("core.gram_flops (computed)", work.gram_flops, "flop");
  result->Detail("core.solve_flops (computed)", work.solve_flops, "flop");
  result->Detail("core.bytes_computed (computed)", work.bytes, "B");
  result->Detail("core.delta_gflops", work.delta_flops / (delta_total_ms * 1e6),
                 "GFLOP/s");
  result->Detail("core.speedup_2t", one_thread_ms / reference_iter_ms, "x");
  if (!config.trace_out.empty() && !spans.WriteChromeTrace(config.trace_out)) {
    Log("als-ml: cannot write " + config.trace_out);
  }
}

}  // namespace

void RunAlsMl(const RunConfig& config, Result* result) {
  const AlsShape shape = ShapeFor(config.size);
  const Inputs inputs = GenerateInputs(config, shape);
  const PTuckerOptions options = SolverOptions(config, shape);
  if (config.trace) {
    SetupTimes setups;
    const Loaded loaded =
        RepeatSetup(inputs, shape, options, shape.setup_repeats, &setups);
    RunTraced(config, loaded, setups, options, result);
  } else {
    RunUntraced(config, inputs, shape, options, result);
  }
}

}  // namespace perfbench
