#include "core/row_update.h"

#include <algorithm>
#include <stdexcept>
#include <vector>

#include "core/delta_engine.h"
#include "linalg/blas.h"
#include "linalg/cholesky.h"
#include "linalg/lu.h"
#include "util/random.h"

namespace ptucker {

namespace {

// Mixes the run seed with a (iteration, mode, row) key so every row draws
// an independent, reproducible subsample stream.
std::uint64_t SampleStreamSeed(std::uint64_t seed, int iteration,
                               std::int64_t mode, std::int64_t row) {
  std::uint64_t h = seed ^ 0x9e3779b97f4a7c15ULL;
  for (const std::uint64_t word :
       {static_cast<std::uint64_t>(iteration), static_cast<std::uint64_t>(mode),
        static_cast<std::uint64_t>(row)}) {
    h ^= word + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
    h *= 0xff51afd7ed558ccdULL;
    h ^= h >> 33;
  }
  return h;
}

// Solves row (B + λI) = c, writing the Jn results into `row`.
// Cholesky first (B + λI is SPD for λ > 0, Theorem 1); LU fallback covers
// λ = 0 with rank-deficient B; as a last resort the row is zeroed.
void SolveRow(const Matrix& b_plus_lambda, const double* c, double* row,
              std::int64_t rank) {
  if (CholeskySolveRow(b_plus_lambda, c, row)) return;
  LuDecomposition lu(b_plus_lambda);
  if (lu.ok()) {
    lu.Solve(c, row);
    return;
  }
  for (std::int64_t j = 0; j < rank; ++j) row[j] = 0.0;
}

}  // namespace

void UpdateFactorRows(const SparseTensor& x, std::int64_t mode,
                      const std::int64_t* rows, std::int64_t num_rows,
                      const DeltaEngine& engine, Matrix* factor,
                      const RowUpdateOptions& options) {
  if (factor == nullptr) {
    throw std::invalid_argument("row update: factor must not be null");
  }
  if (mode < 0 || mode >= x.order()) {
    throw std::invalid_argument("row update: mode out of range");
  }
  if (!x.has_mode_index()) {
    throw std::invalid_argument(
        "row update: call SparseTensor::BuildModeIndex() first");
  }
  if (factor->rows() != x.dim(mode)) {
    throw std::invalid_argument(
        "row update: factor row count does not match the tensor dimension");
  }
  const std::int64_t rank = factor->cols();
  const std::int64_t n_rows = rows == nullptr ? x.dim(mode) : num_rows;
  if (rows != nullptr) {
    for (std::int64_t i = 0; i < num_rows; ++i) {
      if (rows[i] < 0 || rows[i] >= x.dim(mode)) {
        throw std::invalid_argument("row update: row index out of range");
      }
    }
  }

  // Row updates hand the engine tiles of `batch` entries at a time; only
  // engines with a real batch kernel ask for more than one.
  const std::int64_t batch =
      std::max<std::int64_t>(1, engine.PreferredBatch());
  const bool subsample = options.sample_rate < 1.0;
  Matrix& factor_ref = *factor;

#pragma omp parallel
  {
    // Per-thread intermediate data (Fig. 4): B, c, the δ tile, and
    // the row. The tile buffers batch entries between DeltaBatch
    // calls.
    Matrix b(rank, rank);
    std::vector<double> c(static_cast<std::size_t>(rank));
    std::vector<double> new_row(static_cast<std::size_t>(rank));
    std::vector<double> deltas(static_cast<std::size_t>(batch * rank));
    std::vector<std::int64_t> tile_entries(static_cast<std::size_t>(batch));
    std::vector<const std::int64_t*> tile_index(
        static_cast<std::size_t>(batch));
    std::vector<double> tile_values(static_cast<std::size_t>(batch));

    // schedule(runtime): dynamic under the paper's careful
    // distribution of work, static for the naive ablation.
#pragma omp for schedule(runtime)
    for (std::int64_t i = 0; i < n_rows; ++i) {
      const std::int64_t row_index = rows == nullptr ? i : rows[i];
      const auto slice = x.Slice(mode, row_index);
      if (slice.empty()) {
        // No observations touch this row: the regularized minimum is 0.
        for (std::int64_t j = 0; j < rank; ++j) factor_ref(row_index, j) = 0.0;
        continue;
      }
      b.Fill(0.0);
      std::fill(c.begin(), c.end(), 0.0);
      Rng sampler(subsample ? SampleStreamSeed(options.seed, options.iteration,
                                               mode, row_index)
                            : 0);
      // Tiled δ, then the Eq. 10 / Eq. 11 accumulations. The per-tile
      // results are consumed in entry order, so B and c accumulate in
      // exactly the per-entry order regardless of the batch width —
      // trajectories do not depend on how the engine tiles δ.
      std::int64_t pending = 0;
      const auto flush_tile = [&] {
        if (pending == 0) return;
        engine.DeltaBatch(pending, tile_entries.data(), tile_index.data(),
                          mode, deltas.data());
        SymmetricTileUpdate(b, deltas.data(), pending);    // Eq. 10
        for (std::int64_t t = 0; t < pending; ++t) {
          Axpy(tile_values[static_cast<std::size_t>(t)],
               deltas.data() + t * rank, c.data(), rank);  // Eq. 11
        }
        pending = 0;
      };
      const auto accumulate_entry = [&](std::int64_t entry) {
        tile_entries[static_cast<std::size_t>(pending)] = entry;
        tile_index[static_cast<std::size_t>(pending)] = x.index(entry);
        tile_values[static_cast<std::size_t>(pending)] = x.value(entry);
        if (++pending == batch) flush_tile();
      };
      std::int64_t used = 0;
      for (const std::int64_t entry : slice) {
        if (subsample && sampler.Uniform() >= options.sample_rate) {
          continue;
        }
        ++used;
        accumulate_entry(entry);
      }
      if (subsample && used == 0) {
        // Keep every observed row anchored to at least one entry.
        accumulate_entry(slice.front());
      }
      flush_tile();
      for (std::int64_t j = 0; j < rank; ++j) b(j, j) += options.lambda;
      SolveRow(b, c.data(), new_row.data(), rank);      // Eq. 9
      for (std::int64_t j = 0; j < rank; ++j) {
        factor_ref(row_index, j) = new_row[static_cast<std::size_t>(j)];
      }
    }
  }
}

}  // namespace ptucker
