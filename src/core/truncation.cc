#include "core/truncation.h"

#include <algorithm>
#include <numeric>

#include <omp.h>

#include "core/delta_engine.h"
#include "util/logging.h"
#include "util/memory_tracker.h"
#include "util/parallel.h"

namespace ptucker {

namespace {

// Per-thread worker of ComputePartialErrors: buffers consecutive observed
// entries into a tile of the engine's preferred width, computes every
// c_αβ of the tile with one ProductsBatch call, and applies the Eq. 13
// update in entry order. ProductsBatch equals a per-entry ComputeProducts
// loop on every engine and the blocked deterministic sum keeps the
// per-entry static partition, so the scores — and therefore the set of
// truncated entries — are bit-identical to the unbatched flow for any
// batch width.
class PartialErrorWorker {
 public:
  PartialErrorWorker(const SparseTensor& x, const DeltaEngine& engine,
                     std::int64_t n_core, std::int64_t batch)
      : x_(&x),
        engine_(&engine),
        n_core_(n_core),
        batch_(batch),
        products_(static_cast<std::size_t>(batch * n_core)),
        indices_(static_cast<std::size_t>(batch)),
        observed_(static_cast<std::size_t>(batch)) {}

  void operator()(std::int64_t e, double* local) {
    indices_[static_cast<std::size_t>(pending_)] = x_->index(e);
    observed_[static_cast<std::size_t>(pending_)] = x_->value(e);
    if (++pending_ == batch_) Flush(local);
  }

  void Flush(double* local) {
    if (pending_ == 0) return;
    engine_->ProductsBatch(pending_, indices_.data(), products_.data());
    for (std::int64_t i = 0; i < pending_; ++i) {
      Accumulate(observed_[static_cast<std::size_t>(i)],
                 products_.data() + i * n_core_, local);
    }
    pending_ = 0;
  }

 private:
  // One entry's Eq. 13 contribution: one pass over its c_αβ computes the
  // reconstruction x̂_α, a second folds each product into R(β).
  void Accumulate(double observed, const double* products,
                  double* local) const {
    double reconstruction = 0.0;
    for (std::int64_t b = 0; b < n_core_; ++b) {
      reconstruction += products[b];
    }
    const double residual = observed - reconstruction;
    for (std::int64_t b = 0; b < n_core_; ++b) {
      const double c = products[b];
      // (X−x̂)² − (X−x̂+c)² = −c·(c + 2(X−x̂)) — Eq. 13 in terms of
      // the residual.
      local[b] -= c * (c + 2.0 * residual);
    }
  }

  const SparseTensor* x_;
  const DeltaEngine* engine_;
  std::int64_t n_core_;
  std::int64_t batch_;
  std::int64_t pending_ = 0;
  std::vector<double> products_;
  std::vector<const std::int64_t*> indices_;
  std::vector<double> observed_;
};

}  // namespace

std::vector<double> ComputePartialErrors(const SparseTensor& x,
                                         const CoreEntryList& core,
                                         const std::vector<Matrix>& factors,
                                         const DeltaEngine* engine,
                                         MemoryTracker* tracker) {
  const std::int64_t n_core = core.size();
  const std::size_t core_count = static_cast<std::size_t>(n_core);
  std::vector<double> result(core_count, 0.0);
  const NaiveDeltaEngine fallback(core, factors);
  const DeltaEngine& delta_engine = engine != nullptr ? *engine : fallback;
  const std::int64_t batch =
      std::max<std::int64_t>(1, delta_engine.PreferredBatch());

  // The per-thread tile scratch (batch·|G| products plus the tile's
  // coordinate pointers and values) is intermediate data like any other;
  // charge it for the duration of the scan.
  const std::int64_t scratch_bytes =
      static_cast<std::int64_t>(omp_get_max_threads()) *
      static_cast<std::int64_t>(sizeof(double)) *
      (batch * n_core + 2 * batch);
  ScopedCharge scratch_charge(tracker, scratch_bytes);

  // Per-thread accumulators merged in thread order (no atomics on the hot
  // path, deterministic run-to-run for a fixed thread count).
  DeterministicParallelBlockedVectorSum(
      x.nnz(), core_count, result.data(), [&] {
        return PartialErrorWorker(x, delta_engine, n_core, batch);
      });
  return result;
}

std::int64_t TruncateNoisyEntries(const SparseTensor& x, DenseTensor* core,
                                  CoreEntryList* core_list,
                                  const std::vector<Matrix>& factors,
                                  double truncation_rate,
                                  DeltaEngine* engine,
                                  MemoryTracker* tracker) {
  PTUCKER_CHECK(truncation_rate >= 0.0 && truncation_rate < 1.0);
  const std::int64_t n_core = core_list->size();
  std::int64_t to_remove = static_cast<std::int64_t>(
      truncation_rate * static_cast<double>(n_core));
  to_remove = std::min(to_remove, n_core - 1);  // keep the model alive
  if (to_remove <= 0) return 0;

  const std::vector<double> partial_errors =
      ComputePartialErrors(x, *core_list, factors, engine, tracker);

  // Rank descending by R(β); nth_element is enough — Algorithm 4 only
  // needs the top-p set, not a full sort.
  std::vector<std::int64_t> order(static_cast<std::size_t>(n_core));
  std::iota(order.begin(), order.end(), 0);
  std::nth_element(order.begin(), order.begin() + to_remove, order.end(),
                   [&](std::int64_t a, std::int64_t b) {
                     return partial_errors[static_cast<std::size_t>(a)] >
                            partial_errors[static_cast<std::size_t>(b)];
                   });

  std::vector<char> remove(static_cast<std::size_t>(n_core), 0);
  for (std::int64_t r = 0; r < to_remove; ++r) {
    remove[static_cast<std::size_t>(order[static_cast<std::size_t>(r)])] = 1;
  }
  const std::int64_t removed = core_list->Remove(remove, core);
  if (engine != nullptr) engine->OnCoreEntriesRemoved(remove);
  return removed;
}

}  // namespace ptucker
