/// \file
/// \brief The pluggable δ-computation layer: every δ(n,α) (Eq. 12) and
/// x̂_α (Eq. 4) in the solvers flows through a DeltaEngine, selected by
/// PTuckerOptions::delta_engine. See docs/architecture.md for the layer
/// overview and the walkthrough for adding an engine.
#ifndef PTUCKER_CORE_DELTA_ENGINE_H_
#define PTUCKER_CORE_DELTA_ENGINE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/cache_table.h"
#include "core/delta.h"
#include "core/options.h"
#include "linalg/factor_view.h"
#include "linalg/matrix.h"
#include "tensor/sparse_tensor.h"
#include "util/memory_tracker.h"
#include "util/span.h"

namespace ptucker {

/// Owns every δ(n,α) (Eq. 12) and x̂_α (Eq. 4) computation of the solvers.
///
/// The β-scan over the nonzero core entries is the hottest loop in the
/// library — P-Tucker's row update is O(|Ω|·N·|G|·N) around it — and the
/// paper offers two layouts for it (the entry-major list of Algorithm 3
/// and the Pres cache table of §III-C). This interface makes the layout
/// pluggable so callers never special-case it:
///
///   - NaiveDeltaEngine     entry-major scan; the correctness oracle.
///   - ModeMajorDeltaEngine per-mode regrouped core views with tiled batch
///                          kernels (width B) and an optional VeST-style
///                          group skip under an error budget ε (exact at
///                          ε = 0). The default.
///   - CachedDeltaEngine    the §III-C Pres table behind the same calls.
///
/// Engines hold a non-owning view of the core entry list and non-owning
/// FactorViews of the factor storage; both referents must outlive the
/// engine. Construction from owning `std::vector<Matrix>` converts to
/// views, so the training path is unchanged; the serving plane constructs
/// from FactorViews directly (e.g. over an mmap-ed snapshot) with zero
/// copies. Factor *values* may change in place at any time (row-wise ALS
/// does); structural changes to the core list must be announced through
/// the On* hooks so engines with derived state (reordered views, the Pres
/// table) stay consistent.
///
/// Adding another engine (e.g. a GPU kernel) means subclassing
/// DeltaEngine, overriding ComputeDelta and/or the batch kernels (DeltaBatch,
/// ReconstructBatch, ProductsBatch — plus any optional bulk kernels worth
/// specializing), handling the three hooks, and wiring a new enumerator
/// through DeltaEngineChoice + DeltaEngineCatalog() + MakeDeltaEngine.
/// See docs/architecture.md and docs/delta_engines.md for the full
/// walkthrough.
class DeltaEngine {
 public:
  /// Binds the engine to a (non-owning) view of the core entry list and
  /// views of the owning factor matrices; both must outlive the engine.
  DeltaEngine(const CoreEntryList& core, const std::vector<Matrix>& factors)
      : core_(&core), factors_(MakeFactorViews(factors)) {}

  /// Binds the engine directly to factor views (serving plane); the core
  /// list and the storage behind the views must outlive the engine.
  DeltaEngine(const CoreEntryList& core, std::vector<FactorView> factors)
      : core_(&core), factors_(std::move(factors)) {}
  virtual ~DeltaEngine() = default;  ///< Engines own only derived state.

  DeltaEngine(const DeltaEngine&) = delete;             ///< non-copyable
  DeltaEngine& operator=(const DeltaEngine&) = delete;  ///< non-copyable

  /// The enumerator this engine was built for (kind() never is kAuto).
  virtual DeltaEngineChoice kind() const = 0;
  /// Canonical catalog name (the `--delta-engine` token).
  virtual const char* name() const = 0;

  /// δ(n,α) of Eq. 12 for the entry with coordinates `entry_index`:
  /// delta[j] = Σ_{β∈G, βn=j} G_β Π_{k≠n} A(k)(ik, jk). `delta` holds
  /// Jn = factors[mode].cols() doubles (overwritten). `entry` is the
  /// observed-entry id in the tensor the engine was created over, or a
  /// negative value for coordinates outside it.
  virtual void ComputeDelta(std::int64_t entry,
                            const std::int64_t* entry_index, std::int64_t mode,
                            double* delta) const = 0;

  /// Batch δ: deltas for a tile of `count` entries against the same mode,
  /// written contiguously (`deltas[i·Jn .. (i+1)·Jn)` belongs to tile
  /// entry i). `entries[i]` and `entry_indices[i]` follow the ComputeDelta
  /// conventions. The base implementation is a per-entry loop, so every
  /// engine supports the batch call; ModeMajorDeltaEngine overrides it
  /// with a kernel that streams each core group once per tile instead of
  /// once per entry. Per-entry results are identical to `count`
  /// ComputeDelta calls.
  virtual void DeltaBatch(std::int64_t count, const std::int64_t* entries,
                          const std::int64_t* const* entry_indices,
                          std::int64_t mode, double* deltas) const;

  /// Tile width DeltaBatch callers should aim for: >1 only when the
  /// engine has a kernel that actually amortizes work across the tile.
  /// Callers may pass any count regardless — engines chunk internally.
  virtual std::int64_t PreferredBatch() const { return 1; }

  /// Full reconstruction x̂_α (Eq. 4) at arbitrary coordinates.
  virtual double Reconstruct(const std::int64_t* entry_index) const;

  /// Batch x̂: out[i] = Reconstruct(entry_indices[i]) for a tile of
  /// `count` entries. The base implementation is a per-entry loop;
  /// ModeMajorDeltaEngine overrides it with a kernel that streams each
  /// core group once per tile. Per-entry results are identical to `count`
  /// Reconstruct calls, so metric paths may tile freely.
  virtual void ReconstructBatch(std::int64_t count,
                                const std::int64_t* const* entry_indices,
                                double* out) const;

  /// products[b] = c_αβ = G_β Π_k A(k)(ik, jk) for every core entry, in
  /// list order — the per-pair terms of the partial error R(β) (Eq. 13).
  virtual void ComputeProducts(const std::int64_t* entry_index,
                               double* products) const;

  /// Batch c_αβ: the ComputeProducts vector for each of `count` entries,
  /// written contiguously (`products[i·|G| .. (i+1)·|G|)` belongs to tile
  /// entry i). The base implementation is a per-entry loop;
  /// ModeMajorDeltaEngine overrides it with a kernel that streams each
  /// core group once per tile. Per-entry results are identical to `count`
  /// ComputeProducts calls, so the truncation scorer may tile freely.
  virtual void ProductsBatch(std::int64_t count,
                             const std::int64_t* const* entry_indices,
                             double* products) const;

  /// Σ_b g[b] · Π_k A(k)(ik, jk) — one row of the core-update design
  /// matrix P applied to `g` (list order). Note: excludes G_β.
  virtual double DesignDot(const std::int64_t* entry_index,
                           const double* g) const;

  /// z[b] += scale · Π_k A(k)(ik, jk) — one row of Pᵀ applied to a scalar
  /// (list order). Note: excludes G_β.
  virtual void DesignAccumulate(const std::int64_t* entry_index, double scale,
                                double* z) const;

  /// True when OnFactorUpdated needs the pre-update factor values; callers
  /// then snapshot the factor before running the mode's row updates.
  virtual bool WantsFactorSnapshot() const { return false; }

  /// Mode `mode`'s factor rows were rewritten (Algorithm 3 finished the
  /// mode). `old_factor` holds the pre-update values when
  /// WantsFactorSnapshot() is true, and may be empty otherwise.
  virtual void OnFactorUpdated(std::int64_t mode, const Matrix& old_factor);

  /// CoreEntryList::RefreshValues ran (same sparsity pattern, new values).
  virtual void OnCoreValuesChanged() {}

  /// CoreEntryList::Remove ran with `removed` flagging the *old* entry
  /// ids; the list is already compacted.
  virtual void OnCoreEntriesRemoved(const std::vector<char>& removed);

  /// Bytes of engine-owned derived state (0 for the naive engine).
  virtual std::int64_t ByteSize() const { return 0; }

 protected:
  /// The core entry list the engine was bound to (non-owning).
  const CoreEntryList& core() const { return *core_; }
  /// Views of the factor matrices the engine was bound to (non-owning).
  const std::vector<FactorView>& factors() const { return factors_; }

 private:
  const CoreEntryList* core_;
  std::vector<FactorView> factors_;
};

/// Entry-major scan of the core list — exactly the free functions
/// ComputeDelta / ReconstructFromList behind the engine interface. No
/// derived state, so every hook is a no-op. Kept as the oracle the other
/// engines are tested against.
class NaiveDeltaEngine final : public DeltaEngine {
 public:
  using DeltaEngine::DeltaEngine;

  DeltaEngineChoice kind() const override { return DeltaEngineChoice::kNaive; }
  const char* name() const override { return "naive"; }

  void ComputeDelta(std::int64_t entry, const std::int64_t* entry_index,
                    std::int64_t mode, double* delta) const override;
};

/// The production engine: per-mode regrouped core views, tiled batch
/// kernels and an optional VeST-style group skip, in one class.
///
/// **Layout.** One reordered copy of the core entries per mode, grouped by
/// β_n with the mode-n column factored out into the group id. The inner
/// product is branch-free (no `if (k == mode)`), reads the remaining N−1
/// column indices contiguously, and accumulates each delta[β_n] in a
/// register per group instead of scattering. Kernels that carry the
/// mode-n coefficient (Reconstruct, ComputeProducts, the design ops) skip
/// a whole group when its row coefficient is zero. The views cost
/// Θ(N·|G|) extra memory, charged to the tracker for the engine's
/// lifetime, and are maintained incrementally: RefreshValues only rewrites
/// the value arrays through a stored permutation, and Remove compacts each
/// view in place — neither re-sorts.
///
/// **Tiles (`tile_width` B).** DeltaBatch, ReconstructBatch and
/// ProductsBatch evaluate up to B entries at once (cuFasterTucker-style,
/// Li et al., PAPERS.md): each core group's value/column stream is read
/// once per tile instead of once per entry, and the B accumulators are
/// independent dependency chains. Tiles of at least kSimdMinTile entries
/// first pack the tile's factor rows into transposed scratch so the
/// `#pragma omp simd` lane loops read unit-stride vectors; shorter tiles,
/// orders or ranks past the pack bounds, and builds without OpenMP SIMD
/// take a scalar kernel that computes the same bits. Single-entry tiles
/// run the per-entry kernels, so B = 1 is the plain per-entry scan. Every
/// lane keeps the per-entry multiply/accumulate order, so batch results
/// are bit-identical to the per-entry kernels at every width.
///
/// **Group skip (`epsilon` ε).** Per view, the groups whose cumulative
/// magnitude Σ|G_β| fits in ε · Σ_β |G_β| (greedy smallest-weight-first,
/// VeST, Park et al., PAPERS.md) are flagged; ComputeDelta and DeltaBatch
/// write 0 for flagged groups and never stream them, so the δ-sweep drops
/// roughly an ε fraction of its inner products. The absolute error of
/// each skipped component is bounded by its group weight times the
/// product of the largest participating factor magnitudes. Only δ is
/// lossy: x̂, c_αβ and the design ops stay exact, so error metrics and
/// truncation scores never degrade. At ε = 0 there are no flags at all
/// (the kernels get `nullptr`) and δ is exact. Flags are recomputed
/// whenever the core list changes (RefreshValues / Remove).
class ModeMajorDeltaEngine final : public DeltaEngine {
 public:
  /// Hard upper bound on the tile width (sizes the kernels' stack
  /// buffers); wider requests are clamped.
  static constexpr std::int64_t kMaxTile = 64;

  /// Shortest tile the SIMD kernels are worth entering: the transposed
  /// row pack is amortized only once a tile spans many vector registers,
  /// so shorter tiles (including partial trailing tiles) take the scalar
  /// kernel, which computes identical bits.
  static constexpr std::int64_t kSimdMinTile = 32;

  /// Widest non-mode slot count (order − 1) the SIMD kernels pack for;
  /// higher orders take the scalar kernel.
  static constexpr std::int64_t kMaxPackWidth = 3;

  /// Largest per-mode rank the SIMD kernels pack for (bounds the stack
  /// scratch at kMaxPackWidth·kMaxTile·kMaxPackRank doubles); larger
  /// ranks take the scalar kernel.
  static constexpr std::int64_t kMaxPackRank = 32;

  /// Charges the view bytes to `tracker` (throws OutOfMemoryBudget when
  /// over budget) before building. `tile_width` must be >= 1 (clamped to
  /// kMaxTile); `epsilon` must be in [0, 1).
  ModeMajorDeltaEngine(const CoreEntryList& core,
                       const std::vector<Matrix>& factors,
                       MemoryTracker* tracker,
                       std::int64_t tile_width = kDefaultTileWidth,
                       double epsilon = 0.0);

  /// Same, bound directly to factor views (serving plane — this is the
  /// engine ModelSnapshot builds zero-copy over an mmap-ed snapshot).
  ModeMajorDeltaEngine(const CoreEntryList& core,
                       std::vector<FactorView> factors,
                       MemoryTracker* tracker,
                       std::int64_t tile_width = kDefaultTileWidth,
                       double epsilon = 0.0);
  /// Releases the view bytes charged to the tracker.
  ~ModeMajorDeltaEngine() override;

  DeltaEngineChoice kind() const override {
    return DeltaEngineChoice::kModeMajor;
  }
  const char* name() const override { return "modemajor"; }

  void ComputeDelta(std::int64_t entry, const std::int64_t* entry_index,
                    std::int64_t mode, double* delta) const override;
  double Reconstruct(const std::int64_t* entry_index) const override;
  void ComputeProducts(const std::int64_t* entry_index,
                       double* products) const override;
  double DesignDot(const std::int64_t* entry_index,
                   const double* g) const override;
  void DesignAccumulate(const std::int64_t* entry_index, double scale,
                        double* z) const override;

  void DeltaBatch(std::int64_t count, const std::int64_t* entries,
                  const std::int64_t* const* entry_indices, std::int64_t mode,
                  double* deltas) const override;
  void ReconstructBatch(std::int64_t count,
                        const std::int64_t* const* entry_indices,
                        double* out) const override;
  void ProductsBatch(std::int64_t count,
                     const std::int64_t* const* entry_indices,
                     double* products) const override;
  std::int64_t PreferredBatch() const override { return tile_; }

  void OnCoreValuesChanged() override;
  void OnCoreEntriesRemoved(const std::vector<char>& removed) override;

  std::int64_t ByteSize() const override { return charged_bytes_; }

  /// The error budget ε the engine was built with.
  double epsilon() const { return epsilon_; }

  /// Groups currently skipped in mode `mode`'s view (for tests/benches).
  std::int64_t SkippedGroups(std::int64_t mode) const;

 private:
  /// Core entries of one mode, grouped by that mode's coordinate β_n.
  /// Group j spans [offsets[j], offsets[j+1]); within a group, entries keep
  /// list order, so per-group sums reassociate nothing vs the naive scan.
  struct ModeView {
    std::vector<std::int64_t> offsets;   ///< Jn + 1 group boundaries
    std::vector<std::int32_t> cols;      ///< |G| × (N−1) β_k for k≠n, k asc.
    std::vector<double> values;          ///< |G| grouped G_β
    std::vector<std::int32_t> list_pos;  ///< grouped position → list id
  };

  /// Supported tensor order; the stack-resident factor-row pointer arrays
  /// in the hot kernels are sized by this.
  static constexpr std::int64_t kMaxOrder = 32;

  const ModeView& view(std::int64_t mode) const {
    return views_[static_cast<std::size_t>(mode)];
  }

  /// Mode `mode`'s per-group skip flags, or nullptr when nothing is
  /// skipped (always at ε = 0).
  const char* Skips(std::int64_t mode) const;

  std::int64_t ExpectedBytes() const;
  void BuildViews();
  void RecomputeSkips();

  /// The per-entry δ kernel; a group flagged in `skip` (may be nullptr)
  /// is written as 0 without being streamed.
  void ComputeDeltaGrouped(const std::int64_t* entry_index, std::int64_t mode,
                           const char* skip, double* delta) const;

  /// The runtime check in front of every SIMD kernel: true when the tile
  /// is long enough to amortize the row pack and the non-`mode` factor
  /// ranks fit the pack scratch (width ∈ [1, kMaxPackWidth], every rank
  /// <= kMaxPackRank) in a build with OpenMP SIMD.
  bool SimdEligible(std::int64_t count, std::int64_t mode) const;

  /// δ tile kernels (scalar: per-lane row pointers; SIMD: transposed row
  /// pack). Both honor `skip` like ComputeDeltaGrouped and produce the
  /// same bits.
  void TileKernelScalar(const std::int64_t* const* entry_indices,
                        std::int64_t count, std::int64_t mode,
                        const char* skip, double* deltas) const;
  void TileKernelSimd(const std::int64_t* const* entry_indices,
                      std::int64_t count, std::int64_t mode, const char* skip,
                      double* deltas) const;

  /// x̂ tile kernels against view 0, carrying each lane's mode-0
  /// coefficient exactly like Reconstruct (group skipped per lane when its
  /// coefficient is zero).
  void ReconstructTileScalar(const std::int64_t* const* entry_indices,
                             std::int64_t count, double* out) const;
  void ReconstructTileSimd(const std::int64_t* const* entry_indices,
                           std::int64_t count, double* out) const;

  /// c_αβ tile kernels against view 0, scattered to list order per lane
  /// (stride core().size()), preserving ComputeProducts' multiply order and
  /// its exact-0 writes for zero coefficients.
  void ProductsTileScalar(const std::int64_t* const* entry_indices,
                          std::int64_t count, double* products) const;
  void ProductsTileSimd(const std::int64_t* const* entry_indices,
                        std::int64_t count, double* products) const;

  std::vector<ModeView> views_;
  MemoryTracker* tracker_;
  std::int64_t charged_bytes_ = 0;
  std::int64_t tile_;
  double epsilon_;
  std::vector<std::vector<char>> skip_;  // per mode, per group; empty at ε = 0
};

/// The §III-C Pres table (CacheTable) behind the engine interface: δ by
/// dividing the cached full product by the mode-n coefficient, with the
/// after-mode rescale applied through the OnFactorUpdated hook. Core
/// structure/value changes rebuild the table (the table is keyed by the
/// entry pattern). Reconstruction and the design ops fall back to the
/// entry-major scan — the table's time-for-memory trade only pays in δ.
class CachedDeltaEngine final : public DeltaEngine {
 public:
  /// Builds the Pres table over the observed entries of `x` (charged to
  /// `tracker`; throws OutOfMemoryBudget when over budget).
  CachedDeltaEngine(const SparseTensor& x, const CoreEntryList& core,
                    const std::vector<Matrix>& factors,
                    MemoryTracker* tracker);

  DeltaEngineChoice kind() const override { return DeltaEngineChoice::kCached; }
  const char* name() const override { return "cache"; }

  void ComputeDelta(std::int64_t entry, const std::int64_t* entry_index,
                    std::int64_t mode, double* delta) const override;

  bool WantsFactorSnapshot() const override { return true; }
  void OnFactorUpdated(std::int64_t mode, const Matrix& old_factor) override;
  void OnCoreValuesChanged() override;
  void OnCoreEntriesRemoved(const std::vector<char>& removed) override;

  std::int64_t ByteSize() const override { return table_->ByteSize(); }

  /// The underlying Pres table (for tests and the Fig. 8 bench).
  const CacheTable& table() const { return *table_; }

 private:
  void RebuildTable();

  const SparseTensor* x_;
  MemoryTracker* tracker_;
  std::unique_ptr<CacheTable> table_;
};

/// One row of the engine name table: the enumerator, its canonical CLI
/// token, an optional accepted alias, and a one-line summary. The CLI
/// parser and its --help text are both generated from this table, so the
/// accepted spellings and the documentation cannot drift apart.
struct DeltaEngineDescriptor {
  DeltaEngineChoice choice;
  const char* name;     ///< canonical --delta-engine token
  const char* alias;    ///< accepted alternative spelling, or nullptr
  const char* summary;  ///< one-line help text
};

/// The authoritative list of selectable engines, in help-display order
/// (kAuto first). Every DeltaEngineChoice enumerator has exactly one row.
Span<const DeltaEngineDescriptor> DeltaEngineCatalog();

/// Catalog row whose name or alias equals `name`, or nullptr if unknown.
const DeltaEngineDescriptor* FindDeltaEngineByName(const std::string& name);

/// Canonical CLI token of `choice` (from the catalog).
const char* DeltaEngineChoiceName(DeltaEngineChoice choice);

/// The one resolver of kAuto: an explicit `requested` engine wins; kAuto
/// maps the kCache variant to kCached and everything else to kModeMajor
/// (built at PTuckerOptions::tile_width, kDefaultTileWidth by default).
/// Never returns kAuto. Callers without a variant (the streaming
/// pipeline) pass kMemory.
DeltaEngineChoice ResolveDeltaEngineChoice(DeltaEngineChoice requested,
                                           PTuckerVariant variant);

/// ResolveDeltaEngineChoice(options.delta_engine, options.variant).
DeltaEngineChoice ResolveDeltaEngineChoice(const PTuckerOptions& options);

/// Builds the requested engine over `x`, `core` and `factors` (all
/// outliving the engine). `choice` must not be kAuto — resolve it first.
/// `x` and `tracker` may go unused depending on the engine.
/// `adaptive_epsilon` and `tile_width` are the kModeMajor engine's ε and B
/// (PTuckerOptions carries both; see those fields for semantics).
std::unique_ptr<DeltaEngine> MakeDeltaEngine(
    DeltaEngineChoice choice, const SparseTensor& x, const CoreEntryList& core,
    const std::vector<Matrix>& factors, MemoryTracker* tracker,
    double adaptive_epsilon = 0.0, std::int64_t tile_width = kDefaultTileWidth);

}  // namespace ptucker

#endif  // PTUCKER_CORE_DELTA_ENGINE_H_
