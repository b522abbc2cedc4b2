#include "core/reconstruction.h"

#include <algorithm>
#include <cmath>

#include "core/delta_engine.h"
#include "util/parallel.h"

namespace ptucker {

namespace {

// Per-thread worker of SquaredResidualSum: buffers consecutive entries
// into a tile of the engine's preferred width, reconstructs the tile with
// one ReconstructBatch call, and adds the squared residuals in entry
// order. ReconstructBatch equals a per-entry Reconstruct loop on every
// engine, and with the blocked deterministic sum's static partition the
// additions happen in exactly the per-entry order — so the sum is
// bit-identical to the unbatched flow for any batch width.
class ResidualWorker {
 public:
  ResidualWorker(const SparseTensor& x, const DeltaEngine& engine,
                 std::int64_t batch)
      : x_(&x),
        engine_(&engine),
        batch_(batch),
        indices_(static_cast<std::size_t>(batch)),
        observed_(static_cast<std::size_t>(batch)),
        predicted_(static_cast<std::size_t>(batch)) {}

  void operator()(std::int64_t e, double* local) {
    indices_[static_cast<std::size_t>(pending_)] = x_->index(e);
    observed_[static_cast<std::size_t>(pending_)] = x_->value(e);
    if (++pending_ == batch_) Flush(local);
  }

  void Flush(double* local) {
    if (pending_ == 0) return;
    engine_->ReconstructBatch(pending_, indices_.data(), predicted_.data());
    for (std::int64_t i = 0; i < pending_; ++i) {
      const double residual = observed_[static_cast<std::size_t>(i)] -
                              predicted_[static_cast<std::size_t>(i)];
      *local += residual * residual;
    }
    pending_ = 0;
  }

 private:
  const SparseTensor* x_;
  const DeltaEngine* engine_;
  std::int64_t batch_;
  std::int64_t pending_ = 0;
  std::vector<const std::int64_t*> indices_;
  std::vector<double> observed_;
  std::vector<double> predicted_;
};

// Σ (X_α − x̂_α)² in parallel; the building block of both metrics.
// Deterministic combine order so fixed-seed solves are bit-reproducible;
// tiled through ReconstructBatch.
double SquaredResidualSum(const SparseTensor& x, const DeltaEngine& engine) {
  double lane_sums[kReductionLanes];
  SquaredResidualLaneSums(x, engine, 0, kReductionLanes, lane_sums);
  return FoldLaneSums(lane_sums, kReductionLanes);
}

}  // namespace

void SquaredResidualLaneSums(const SparseTensor& x, const DeltaEngine& engine,
                             std::int64_t lane_begin, std::int64_t lane_end,
                             double* lane_sums) {
  const std::int64_t batch =
      std::max<std::int64_t>(1, engine.PreferredBatch());
  DeterministicParallelLaneSums(
      x.nnz(), lane_begin, lane_end, lane_sums,
      [&] { return ResidualWorker(x, engine, batch); });
}

double ReconstructionError(const SparseTensor& x, const DeltaEngine& engine) {
  return std::sqrt(SquaredResidualSum(x, engine));
}

double ReconstructionError(const SparseTensor& x, const CoreEntryList& core,
                           const std::vector<Matrix>& factors) {
  const NaiveDeltaEngine engine(core, factors);
  return ReconstructionError(x, engine);
}

double ReconstructionError(const SparseTensor& x, const DenseTensor& core,
                           const std::vector<Matrix>& factors) {
  return ReconstructionError(x, CoreEntryList(core), factors);
}

double TestRmse(const SparseTensor& test, const DeltaEngine& engine) {
  if (test.nnz() == 0) return 0.0;
  return std::sqrt(SquaredResidualSum(test, engine) /
                   static_cast<double>(test.nnz()));
}

double TestRmse(const SparseTensor& test, const CoreEntryList& core,
                const std::vector<Matrix>& factors) {
  const NaiveDeltaEngine engine(core, factors);
  return TestRmse(test, engine);
}

double TestRmse(const SparseTensor& test, const DenseTensor& core,
                const std::vector<Matrix>& factors) {
  return TestRmse(test, CoreEntryList(core), factors);
}

void PredictEntries(std::int64_t count, const std::int64_t* const* indices,
                    const DeltaEngine& engine, double* out) {
  const std::int64_t batch =
      std::max<std::int64_t>(1, engine.PreferredBatch());
#pragma omp parallel
  {
    // With static scheduling each thread's entries are consecutive, so a
    // buffered tile always maps to a contiguous span of the output and
    // ReconstructBatch can write it directly.
    std::vector<const std::int64_t*> tile(static_cast<std::size_t>(batch));
    std::int64_t tile_start = 0;
    std::int64_t pending = 0;
    const auto flush = [&] {
      if (pending == 0) return;
      engine.ReconstructBatch(pending, tile.data(), out + tile_start);
      pending = 0;
    };
#pragma omp for schedule(static)
    for (std::int64_t e = 0; e < count; ++e) {
      if (pending == 0) tile_start = e;
      tile[static_cast<std::size_t>(pending)] = indices[e];
      if (++pending == batch) flush();
    }
    flush();
  }
}

std::vector<double> PredictEntries(const SparseTensor& query,
                                   const DeltaEngine& engine) {
  std::vector<const std::int64_t*> indices(
      static_cast<std::size_t>(query.nnz()));
  for (std::int64_t e = 0; e < query.nnz(); ++e) {
    indices[static_cast<std::size_t>(e)] = query.index(e);
  }
  std::vector<double> predictions(indices.size());
  PredictEntries(query.nnz(), indices.data(), engine, predictions.data());
  return predictions;
}

std::vector<double> PredictEntries(const SparseTensor& query,
                                   const DenseTensor& core,
                                   const std::vector<Matrix>& factors) {
  const CoreEntryList list(core);
  const NaiveDeltaEngine engine(list, factors);
  return PredictEntries(query, engine);
}

}  // namespace ptucker
