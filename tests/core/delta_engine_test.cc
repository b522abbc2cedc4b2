// Equivalence and maintenance tests for the pluggable δ-engines: the
// mode-major engine (tile width B ∈ {1, 4, 32, 64}) and the cached engine
// must agree with the naive entry-major oracle on every kernel, stay
// consistent through core-list mutations (Remove, RefreshValues) and
// factor updates, and hold across thread counts. Every batch entry point
// (DeltaBatch, ReconstructBatch, ProductsBatch) must equal its per-entry
// loop on every engine, the group skip at ε > 0 must stay inside its
// documented error budget, and the solver-level guarantees are pinned:
// exact engines produce the same trajectories — including the batched
// truncation and metric paths at every tile width — each
// bit-reproducibly.
#include "core/delta_engine.h"

#include <cmath>
#include <memory>
#include <vector>

#include <gtest/gtest.h>
#include <omp.h>

#include "core/ptucker.h"
#include "core/reconstruction.h"
#include "core/truncation.h"
#include "data/synthetic.h"
#include "util/random.h"

namespace ptucker {
namespace {

// Scopes omp_set_num_threads so a test can pin the team size.
class ThreadCountGuard {
 public:
  explicit ThreadCountGuard(int threads) : saved_(omp_get_max_threads()) {
    omp_set_num_threads(threads);
  }
  ~ThreadCountGuard() { omp_set_num_threads(saved_); }

 private:
  int saved_;
};

struct Ctx {
  SparseTensor x;
  DenseTensor core;
  CoreEntryList list;
  std::vector<Matrix> factors;
};

// order-many tensor dims / uniform core rank, with ~30% of the core
// zeroed so the entry list is genuinely sparse and groups are ragged.
Ctx MakeCtx(std::int64_t order, std::int64_t rank, std::uint64_t seed) {
  Rng rng(seed);
  Ctx s;
  std::vector<std::int64_t> dims;
  std::vector<std::int64_t> ranks;
  for (std::int64_t k = 0; k < order; ++k) {
    dims.push_back(12 - k);
    ranks.push_back(rank);
  }
  s.x = UniformSparseTensor(dims, 150, rng);
  s.core = DenseTensor(ranks);
  s.core.FillUniform(rng);
  for (std::int64_t linear = 0; linear < s.core.size(); ++linear) {
    if (rng.Uniform() < 0.3) s.core[linear] = 0.0;
  }
  if (s.core.CountNonZeros() == 0) s.core[0] = 0.5;
  s.list = CoreEntryList(s.core);
  for (std::int64_t k = 0; k < order; ++k) {
    Matrix factor(s.x.dim(k), rank);
    factor.FillUniform(rng);
    // Sprinkle exact zeros so the group-level skip and the cache's
    // division fallback both execute.
    for (std::int64_t i = 0; i < factor.rows(); ++i) {
      for (std::int64_t j = 0; j < factor.cols(); ++j) {
        if (rng.Uniform() < 0.1) factor(i, j) = 0.0;
      }
    }
    s.factors.push_back(std::move(factor));
  }
  return s;
}

struct Engines {
  NaiveDeltaEngine naive;
  ModeMajorDeltaEngine mode_major;  // B = 1: the per-entry scan
  CachedDeltaEngine cached;
  ModeMajorDeltaEngine tiled4;
  ModeMajorDeltaEngine tiled32;
  ModeMajorDeltaEngine tiled64;

  explicit Engines(const Ctx& s)
      : naive(s.list, s.factors),
        mode_major(s.list, s.factors, nullptr, 1),
        cached(s.x, s.list, s.factors, nullptr),
        tiled4(s.list, s.factors, nullptr, 4),
        tiled32(s.list, s.factors, nullptr, 32),
        tiled64(s.list, s.factors, nullptr, 64) {}

  // The engines with derived state, for broadcasting the mutation hooks.
  std::vector<DeltaEngine*> All() {
    return {&naive, &mode_major, &cached, &tiled4, &tiled32, &tiled64};
  }
};

// DeltaBatch over every observed entry at once must equal the per-entry
// ComputeDelta loop bit-for-bit — for every engine, including partial
// final tiles (nnz is no multiple of the tile widths).
void ExpectBatchMatchesLoop(const Ctx& s, const DeltaEngine& engine) {
  const std::int64_t order = s.x.order();
  const std::int64_t nnz = s.x.nnz();
  std::vector<std::int64_t> entries(static_cast<std::size_t>(nnz));
  std::vector<const std::int64_t*> indices(static_cast<std::size_t>(nnz));
  for (std::int64_t e = 0; e < nnz; ++e) {
    entries[static_cast<std::size_t>(e)] = e;
    indices[static_cast<std::size_t>(e)] = s.x.index(e);
  }
  for (std::int64_t mode = 0; mode < order; ++mode) {
    const std::int64_t rank = s.core.dim(mode);
    std::vector<double> batched(static_cast<std::size_t>(nnz * rank));
    engine.DeltaBatch(nnz, entries.data(), indices.data(), mode,
                      batched.data());
    std::vector<double> single(static_cast<std::size_t>(rank));
    for (std::int64_t e = 0; e < nnz; ++e) {
      engine.ComputeDelta(e, s.x.index(e), mode, single.data());
      for (std::int64_t j = 0; j < rank; ++j) {
        EXPECT_EQ(batched[static_cast<std::size_t>(e * rank + j)],
                  single[static_cast<std::size_t>(j)])
            << engine.name() << " batch, entry " << e << " mode " << mode;
      }
    }
  }
}

// ReconstructBatch over every observed entry at once must equal the
// per-entry Reconstruct loop bit-for-bit — for every engine, including
// partial final tiles and (for the mode-major engine at B >= its SIMD
// threshold) the packed SIMD reconstruct kernel.
void ExpectReconstructBatchMatchesLoop(const Ctx& s,
                                       const DeltaEngine& engine) {
  const std::int64_t nnz = s.x.nnz();
  std::vector<const std::int64_t*> indices(static_cast<std::size_t>(nnz));
  for (std::int64_t e = 0; e < nnz; ++e) {
    indices[static_cast<std::size_t>(e)] = s.x.index(e);
  }
  std::vector<double> batched(static_cast<std::size_t>(nnz));
  engine.ReconstructBatch(nnz, indices.data(), batched.data());
  for (std::int64_t e = 0; e < nnz; ++e) {
    EXPECT_EQ(batched[static_cast<std::size_t>(e)],
              engine.Reconstruct(s.x.index(e)))
        << engine.name() << " reconstruct batch, entry " << e;
  }
}

// ProductsBatch over every observed entry at once must equal the
// per-entry ComputeProducts loop bit-for-bit — same coverage notes as
// ExpectReconstructBatchMatchesLoop.
void ExpectProductsBatchMatchesLoop(const Ctx& s, const DeltaEngine& engine) {
  const std::int64_t nnz = s.x.nnz();
  const std::int64_t n_core = s.list.size();
  std::vector<const std::int64_t*> indices(static_cast<std::size_t>(nnz));
  for (std::int64_t e = 0; e < nnz; ++e) {
    indices[static_cast<std::size_t>(e)] = s.x.index(e);
  }
  std::vector<double> batched(static_cast<std::size_t>(nnz * n_core));
  engine.ProductsBatch(nnz, indices.data(), batched.data());
  std::vector<double> single(static_cast<std::size_t>(n_core));
  for (std::int64_t e = 0; e < nnz; ++e) {
    engine.ComputeProducts(s.x.index(e), single.data());
    for (std::int64_t b = 0; b < n_core; ++b) {
      EXPECT_EQ(batched[static_cast<std::size_t>(e * n_core + b)],
                single[static_cast<std::size_t>(b)])
          << engine.name() << " products batch, entry " << e << " core " << b;
    }
  }
}

// Asserts every engine kernel agrees with the naive oracle within 1e-12
// over all observed entries, that the mode-major engine is bit-identical
// at every tile width, and that every batch entry point equals its
// per-entry loop on every engine.
void ExpectEnginesAgree(const Ctx& s, const Engines& e) {
  {
    const std::int64_t order = s.x.order();
    std::vector<double> reference;
    std::vector<double> actual;
    const DeltaEngine* regrouped[] = {&e.tiled4, &e.tiled32, &e.tiled64};
    for (std::int64_t entry = 0; entry < s.x.nnz(); ++entry) {
      for (std::int64_t mode = 0; mode < order; ++mode) {
        const std::int64_t rank = s.core.dim(mode);
        reference.assign(static_cast<std::size_t>(rank), 0.0);
        actual.assign(static_cast<std::size_t>(rank), 0.0);
        e.mode_major.ComputeDelta(entry, s.x.index(entry), mode,
                                  reference.data());
        for (const DeltaEngine* engine : regrouped) {
          engine->ComputeDelta(entry, s.x.index(entry), mode, actual.data());
          for (std::int64_t j = 0; j < rank; ++j) {
            EXPECT_EQ(actual[static_cast<std::size_t>(j)],
                      reference[static_cast<std::size_t>(j)])
                << engine->name() << " delta, entry " << entry << " mode "
                << mode;
          }
        }
      }
    }
  }
  const DeltaEngine* all_engines[] = {&e.naive,  &e.mode_major, &e.cached,
                                      &e.tiled4, &e.tiled32,    &e.tiled64};
  for (const DeltaEngine* engine : all_engines) {
    ExpectBatchMatchesLoop(s, *engine);
    ExpectReconstructBatchMatchesLoop(s, *engine);
    ExpectProductsBatchMatchesLoop(s, *engine);
  }
  const std::int64_t order = s.x.order();
  const std::int64_t n_core = s.list.size();
  std::vector<double> g(static_cast<std::size_t>(n_core));
  for (std::int64_t b = 0; b < n_core; ++b) {
    g[static_cast<std::size_t>(b)] = 0.25 + 0.5 * static_cast<double>(b % 3);
  }
  for (std::int64_t entry = 0; entry < s.x.nnz(); ++entry) {
    const std::int64_t* idx = s.x.index(entry);
    for (std::int64_t mode = 0; mode < order; ++mode) {
      const std::int64_t rank = s.core.dim(mode);
      std::vector<double> expected(static_cast<std::size_t>(rank));
      std::vector<double> actual(static_cast<std::size_t>(rank));
      e.naive.ComputeDelta(entry, idx, mode, expected.data());
      e.mode_major.ComputeDelta(entry, idx, mode, actual.data());
      for (std::int64_t j = 0; j < rank; ++j) {
        EXPECT_NEAR(actual[static_cast<std::size_t>(j)],
                    expected[static_cast<std::size_t>(j)], 1e-12)
            << "modemajor delta, entry " << entry << " mode " << mode;
      }
      e.cached.ComputeDelta(entry, idx, mode, actual.data());
      for (std::int64_t j = 0; j < rank; ++j) {
        EXPECT_NEAR(actual[static_cast<std::size_t>(j)],
                    expected[static_cast<std::size_t>(j)], 1e-12)
            << "cached delta, entry " << entry << " mode " << mode;
      }
      // The cached engine must also handle unknown coordinates.
      e.cached.ComputeDelta(-1, idx, mode, actual.data());
      for (std::int64_t j = 0; j < rank; ++j) {
        EXPECT_NEAR(actual[static_cast<std::size_t>(j)],
                    expected[static_cast<std::size_t>(j)], 1e-12)
            << "cached fallback delta, entry " << entry << " mode " << mode;
      }
    }

    const double expected_hat = e.naive.Reconstruct(idx);
    EXPECT_NEAR(e.mode_major.Reconstruct(idx), expected_hat, 1e-12);
    EXPECT_NEAR(e.cached.Reconstruct(idx), expected_hat, 1e-12);

    std::vector<double> expected_products(static_cast<std::size_t>(n_core));
    std::vector<double> actual_products(static_cast<std::size_t>(n_core));
    e.naive.ComputeProducts(idx, expected_products.data());
    e.mode_major.ComputeProducts(idx, actual_products.data());
    for (std::int64_t b = 0; b < n_core; ++b) {
      EXPECT_NEAR(actual_products[static_cast<std::size_t>(b)],
                  expected_products[static_cast<std::size_t>(b)], 1e-12);
    }

    EXPECT_NEAR(e.mode_major.DesignDot(idx, g.data()),
                e.naive.DesignDot(idx, g.data()), 1e-12);

    std::vector<double> expected_z(static_cast<std::size_t>(n_core), 0.5);
    std::vector<double> actual_z(static_cast<std::size_t>(n_core), 0.5);
    e.naive.DesignAccumulate(idx, 1.5, expected_z.data());
    e.mode_major.DesignAccumulate(idx, 1.5, actual_z.data());
    for (std::int64_t b = 0; b < n_core; ++b) {
      EXPECT_NEAR(actual_z[static_cast<std::size_t>(b)],
                  expected_z[static_cast<std::size_t>(b)], 1e-12);
    }
  }
}

struct Param {
  std::int64_t order;
  std::int64_t rank;
  int threads;
};

std::vector<Param> AllParams() {
  std::vector<Param> params;
  for (const std::int64_t order : {3, 4}) {
    for (const std::int64_t rank : {2, 5}) {
      for (const int threads : {1, 4, 13}) {
        params.push_back({order, rank, threads});
      }
    }
  }
  return params;
}

class DeltaEngineEquivalence : public ::testing::TestWithParam<Param> {};

TEST_P(DeltaEngineEquivalence, AllKernelsMatchNaive) {
  const Param p = GetParam();
  ThreadCountGuard guard(p.threads);
  Ctx s = MakeCtx(p.order, p.rank, 17 * static_cast<std::uint64_t>(p.order) +
                                       static_cast<std::uint64_t>(p.rank));
  Engines e(s);
  ExpectEnginesAgree(s, e);
}

TEST_P(DeltaEngineEquivalence, ConsistentAfterRemove) {
  const Param p = GetParam();
  ThreadCountGuard guard(p.threads);
  Ctx s = MakeCtx(p.order, p.rank, 31 * static_cast<std::uint64_t>(p.order) +
                                       static_cast<std::uint64_t>(p.rank));
  Engines e(s);

  // Flag ~every 4th entry (always keeping at least one).
  std::vector<char> remove(static_cast<std::size_t>(s.list.size()), 0);
  for (std::int64_t b = 0; b + 1 < s.list.size(); b += 4) {
    remove[static_cast<std::size_t>(b)] = 1;
  }
  s.list.Remove(remove, &s.core);
  for (DeltaEngine* engine : e.All()) engine->OnCoreEntriesRemoved(remove);
  ExpectEnginesAgree(s, e);
}

TEST_P(DeltaEngineEquivalence, ConsistentAfterRefreshValues) {
  const Param p = GetParam();
  ThreadCountGuard guard(p.threads);
  Ctx s = MakeCtx(p.order, p.rank, 47 * static_cast<std::uint64_t>(p.order) +
                                       static_cast<std::uint64_t>(p.rank));
  Engines e(s);

  // Rewrite the core values on the existing pattern.
  std::vector<std::int64_t> index(static_cast<std::size_t>(s.core.order()));
  for (std::int64_t b = 0; b < s.list.size(); ++b) {
    const std::int32_t* beta = s.list.index(b);
    for (std::int64_t k = 0; k < s.core.order(); ++k) {
      index[static_cast<std::size_t>(k)] = beta[k];
    }
    s.core.at(index.data()) = 0.1 + 0.01 * static_cast<double>(b);
  }
  s.list.RefreshValues(s.core);
  for (DeltaEngine* engine : e.All()) engine->OnCoreValuesChanged();
  ExpectEnginesAgree(s, e);
}

TEST_P(DeltaEngineEquivalence, ConsistentAfterFactorUpdate) {
  const Param p = GetParam();
  ThreadCountGuard guard(p.threads);
  Ctx s = MakeCtx(p.order, p.rank, 63 * static_cast<std::uint64_t>(p.order) +
                                       static_cast<std::uint64_t>(p.rank));
  Engines e(s);

  const std::int64_t mode = s.x.order() - 1;
  Matrix old_factor = s.factors[static_cast<std::size_t>(mode)];
  Rng rng(99);
  s.factors[static_cast<std::size_t>(mode)].FillUniform(rng);
  for (DeltaEngine* engine : e.All()) engine->OnFactorUpdated(mode, old_factor);
  ExpectEnginesAgree(s, e);
}

INSTANTIATE_TEST_SUITE_P(
    OrdersRanksThreads, DeltaEngineEquivalence,
    ::testing::ValuesIn(AllParams()),
    [](const ::testing::TestParamInfo<Param>& info) {
      return "order" + std::to_string(info.param.order) + "_rank" +
             std::to_string(info.param.rank) + "_threads" +
             std::to_string(info.param.threads);
    });

TEST(DeltaEngineTest, AdaptiveStaysWithinErrorBudget) {
  // The group skip's documented bound: per (entry, mode), the summed
  // absolute δ error is at most ε · Σ_β |G_β| · max|A|^(N−1) — the skipped
  // groups' magnitude mass times the largest possible factor product.
  Ctx s = MakeCtx(3, 5, 23);
  const std::int64_t order = s.x.order();
  NaiveDeltaEngine oracle(s.list, s.factors);
  double total_mass = 0.0;
  for (std::int64_t b = 0; b < s.list.size(); ++b) {
    total_mass += std::fabs(s.list.value(b));
  }
  double max_factor = 0.0;
  for (const Matrix& factor : s.factors) {
    for (std::int64_t i = 0; i < factor.rows(); ++i) {
      for (std::int64_t j = 0; j < factor.cols(); ++j) {
        max_factor = std::max(max_factor, std::fabs(factor(i, j)));
      }
    }
  }
  for (const double eps : {0.05, 0.45}) {
    ModeMajorDeltaEngine adaptive(s.list, s.factors, nullptr, 1, eps);
    const double bound =
        eps * total_mass * std::pow(max_factor, static_cast<double>(order - 1));
    for (std::int64_t entry = 0; entry < s.x.nnz(); ++entry) {
      for (std::int64_t mode = 0; mode < order; ++mode) {
        const std::int64_t rank = s.core.dim(mode);
        std::vector<double> exact(static_cast<std::size_t>(rank));
        std::vector<double> lossy(static_cast<std::size_t>(rank));
        oracle.ComputeDelta(entry, s.x.index(entry), mode, exact.data());
        adaptive.ComputeDelta(entry, s.x.index(entry), mode, lossy.data());
        double summed_error = 0.0;
        for (std::int64_t j = 0; j < rank; ++j) {
          summed_error += std::fabs(lossy[static_cast<std::size_t>(j)] -
                                    exact[static_cast<std::size_t>(j)]);
        }
        EXPECT_LE(summed_error, bound + 1e-12)
            << "eps " << eps << " entry " << entry << " mode " << mode;
      }
    }
  }
}

TEST(DeltaEngineTest, AdaptiveSkipsGroupsOnlyAtPositiveEpsilon) {
  Ctx s = MakeCtx(3, 5, 29);
  ModeMajorDeltaEngine exact(s.list, s.factors, nullptr, 1, 0.0);
  ModeMajorDeltaEngine lossy(s.list, s.factors, nullptr, 1, 0.45);
  std::int64_t exact_skips = 0;
  std::int64_t lossy_skips = 0;
  for (std::int64_t mode = 0; mode < s.x.order(); ++mode) {
    exact_skips += exact.SkippedGroups(mode);
    lossy_skips += lossy.SkippedGroups(mode);
  }
  // At ε = 0 nothing is flagged at all.
  EXPECT_EQ(exact_skips, 0);
  EXPECT_GT(lossy_skips, 0);
  EXPECT_EQ(lossy.epsilon(), 0.45);
}

TEST(DeltaEngineTest, CatalogCoversEveryChoiceAndParsesNames) {
  // One row per enumerator, names round-trip, alias resolves, unknown
  // names are rejected — the CLI parser and --help both lean on this.
  EXPECT_EQ(DeltaEngineCatalog().size(), 4u);
  for (const DeltaEngineDescriptor& descriptor : DeltaEngineCatalog()) {
    const DeltaEngineDescriptor* found =
        FindDeltaEngineByName(descriptor.name);
    ASSERT_NE(found, nullptr);
    EXPECT_EQ(found->choice, descriptor.choice);
    EXPECT_STREQ(DeltaEngineChoiceName(descriptor.choice), descriptor.name);
  }
  const DeltaEngineDescriptor* alias = FindDeltaEngineByName("cached");
  ASSERT_NE(alias, nullptr);
  EXPECT_EQ(alias->choice, DeltaEngineChoice::kCached);
  const DeltaEngineDescriptor* tiled = FindDeltaEngineByName("tiled");
  ASSERT_NE(tiled, nullptr);
  EXPECT_EQ(tiled->choice, DeltaEngineChoice::kModeMajor);
  EXPECT_EQ(FindDeltaEngineByName("warp"), nullptr);
  EXPECT_EQ(FindDeltaEngineByName("adaptive"), nullptr);
}

TEST(DeltaEngineTest, ModeMajorDeltaIsBitIdenticalToNaive) {
  // The mode-major layout preserves the naive scan's per-group operation
  // order exactly, so δ must match bit-for-bit (not just within 1e-12).
  Ctx s = MakeCtx(3, 5, 5);
  Engines e(s);
  for (std::int64_t entry = 0; entry < s.x.nnz(); ++entry) {
    for (std::int64_t mode = 0; mode < 3; ++mode) {
      const std::int64_t rank = s.core.dim(mode);
      std::vector<double> expected(static_cast<std::size_t>(rank));
      std::vector<double> actual(static_cast<std::size_t>(rank));
      e.naive.ComputeDelta(entry, s.x.index(entry), mode, expected.data());
      e.mode_major.ComputeDelta(entry, s.x.index(entry), mode, actual.data());
      for (std::int64_t j = 0; j < rank; ++j) {
        EXPECT_EQ(actual[static_cast<std::size_t>(j)],
                  expected[static_cast<std::size_t>(j)]);
      }
    }
  }
}

TEST(DeltaEngineTest, ModeMajorChargesAndReleasesTracker) {
  Ctx s = MakeCtx(3, 5, 7);
  MemoryTracker tracker;
  {
    ModeMajorDeltaEngine engine(s.list, s.factors, &tracker);
    EXPECT_GT(tracker.current_bytes(), 0);
    EXPECT_EQ(tracker.current_bytes(), engine.ByteSize());

    // Removing entries shrinks the views and the charge with them.
    const std::int64_t before = tracker.current_bytes();
    std::vector<char> remove(static_cast<std::size_t>(s.list.size()), 0);
    remove[0] = 1;
    remove[1] = 1;
    s.list.Remove(remove, &s.core);
    engine.OnCoreEntriesRemoved(remove);
    EXPECT_LT(tracker.current_bytes(), before);
    EXPECT_EQ(tracker.current_bytes(), engine.ByteSize());
  }
  EXPECT_EQ(tracker.current_bytes(), 0);
}

TEST(DeltaEngineTest, ModeMajorBudgetTriggersOom) {
  Ctx s = MakeCtx(3, 5, 9);
  MemoryTracker tracker(16);  // tiny budget
  EXPECT_THROW(ModeMajorDeltaEngine(s.list, s.factors, &tracker),
               OutOfMemoryBudget);
}

TEST(DeltaEngineTest, FactoryResolvesAutoFromVariant) {
  PTuckerOptions options;
  EXPECT_EQ(ResolveDeltaEngineChoice(options), DeltaEngineChoice::kModeMajor);
  options.variant = PTuckerVariant::kCache;
  EXPECT_EQ(ResolveDeltaEngineChoice(options), DeltaEngineChoice::kCached);
  options.delta_engine = DeltaEngineChoice::kNaive;
  EXPECT_EQ(ResolveDeltaEngineChoice(options), DeltaEngineChoice::kNaive);

  Ctx s = MakeCtx(3, 2, 11);
  const auto engine =
      MakeDeltaEngine(DeltaEngineChoice::kModeMajor, s.x, s.list, s.factors,
                      nullptr, /*adaptive_epsilon=*/0.0, /*tile_width=*/1);
  EXPECT_EQ(engine->kind(), DeltaEngineChoice::kModeMajor);
  EXPECT_STREQ(engine->name(), "modemajor");
  EXPECT_EQ(engine->PreferredBatch(), 1);

  const auto adaptive =
      MakeDeltaEngine(DeltaEngineChoice::kModeMajor, s.x, s.list, s.factors,
                      nullptr, /*adaptive_epsilon=*/0.2);
  EXPECT_EQ(adaptive->kind(), DeltaEngineChoice::kModeMajor);
  EXPECT_EQ(static_cast<const ModeMajorDeltaEngine&>(*adaptive).epsilon(),
            0.2);

  const auto tiled =
      MakeDeltaEngine(DeltaEngineChoice::kModeMajor, s.x, s.list, s.factors,
                      nullptr, /*adaptive_epsilon=*/0.0, /*tile_width=*/32);
  EXPECT_EQ(tiled->kind(), DeltaEngineChoice::kModeMajor);
  EXPECT_EQ(tiled->PreferredBatch(), 32);

  // Wider-than-kMaxTile requests are clamped, not rejected.
  const ModeMajorDeltaEngine clamped(s.list, s.factors, nullptr, 10000);
  EXPECT_EQ(clamped.PreferredBatch(), ModeMajorDeltaEngine::kMaxTile);
}

TEST(DeltaEngineTest, AutoResolvesToModeMajorAtWidth64) {
  // What PTuckerDecompose, the distributed solver and the ingest pipeline
  // build when nothing is pinned: the mode-major engine at the default
  // tile width of 64, exact.
  const PTuckerOptions options;
  EXPECT_EQ(kDefaultTileWidth, 64);
  ASSERT_EQ(ResolveDeltaEngineChoice(options), DeltaEngineChoice::kModeMajor);
  EXPECT_EQ(ResolveDeltaEngineChoice(DeltaEngineChoice::kAuto,
                                     PTuckerVariant::kMemory),
            DeltaEngineChoice::kModeMajor);
  EXPECT_EQ(ResolveDeltaEngineChoice(DeltaEngineChoice::kAuto,
                                     PTuckerVariant::kApprox),
            DeltaEngineChoice::kModeMajor);
  Ctx s = MakeCtx(3, 2, 12);
  const auto engine = MakeDeltaEngine(
      ResolveDeltaEngineChoice(options), s.x, s.list, s.factors, nullptr,
      options.adaptive_epsilon, options.tile_width);
  EXPECT_EQ(engine->kind(), DeltaEngineChoice::kModeMajor);
  EXPECT_EQ(engine->PreferredBatch(), 64);
  EXPECT_EQ(static_cast<const ModeMajorDeltaEngine&>(*engine).epsilon(), 0.0);
}

TEST(DeltaEngineTest, DeltaBatchMatchesComputeDeltaAtEveryWidthAndEpsilon) {
  // The tile kernels (scalar below kSimdMinTile, packed SIMD from it on)
  // honor the group-skip flags exactly like the per-entry kernel, so
  // DeltaBatch at any B equals ComputeDelta at the same ε bit for bit.
  for (const std::int64_t order : {3, 4}) {
    Ctx s = MakeCtx(order, 5, 51 + static_cast<std::uint64_t>(order));
    for (const double eps : {0.0, 0.2}) {
      const ModeMajorDeltaEngine per_entry(s.list, s.factors, nullptr, 1,
                                           eps);
      if (eps > 0.0) {
        std::int64_t skipped = 0;
        for (std::int64_t mode = 0; mode < order; ++mode) {
          skipped += per_entry.SkippedGroups(mode);
        }
        EXPECT_GT(skipped, 0) << "order " << order;
      }
      for (const std::int64_t tile :
           {std::int64_t{1}, std::int64_t{4}, std::int64_t{32},
            std::int64_t{64}}) {
        const ModeMajorDeltaEngine engine(s.list, s.factors, nullptr, tile,
                                          eps);
        const std::int64_t nnz = s.x.nnz();
        std::vector<std::int64_t> entries(static_cast<std::size_t>(nnz));
        std::vector<const std::int64_t*> indices(
            static_cast<std::size_t>(nnz));
        for (std::int64_t e = 0; e < nnz; ++e) {
          entries[static_cast<std::size_t>(e)] = e;
          indices[static_cast<std::size_t>(e)] = s.x.index(e);
        }
        for (std::int64_t mode = 0; mode < order; ++mode) {
          const std::int64_t rank = s.core.dim(mode);
          std::vector<double> batched(static_cast<std::size_t>(nnz * rank));
          engine.DeltaBatch(nnz, entries.data(), indices.data(), mode,
                            batched.data());
          std::vector<double> single(static_cast<std::size_t>(rank));
          for (std::int64_t e = 0; e < nnz; ++e) {
            per_entry.ComputeDelta(e, s.x.index(e), mode, single.data());
            for (std::int64_t j = 0; j < rank; ++j) {
              EXPECT_EQ(batched[static_cast<std::size_t>(e * rank + j)],
                        single[static_cast<std::size_t>(j)])
                  << "order " << order << " eps " << eps << " tile " << tile
                  << " entry " << e << " mode " << mode;
            }
          }
        }
      }
    }
  }
}

TEST(DeltaEngineTest, TruncationKeepsEnginesConsistent) {
  // TruncateNoisyEntries must both score through the engine and notify it
  // of the removal, so the compacted views still match the oracle.
  Ctx s = MakeCtx(3, 5, 13);
  ModeMajorDeltaEngine engine(s.list, s.factors, nullptr);
  const std::int64_t removed =
      TruncateNoisyEntries(s.x, &s.core, &s.list, s.factors, 0.3, &engine);
  EXPECT_GT(removed, 0);
  NaiveDeltaEngine oracle(s.list, s.factors);
  for (std::int64_t entry = 0; entry < s.x.nnz(); ++entry) {
    for (std::int64_t mode = 0; mode < 3; ++mode) {
      const std::int64_t rank = s.core.dim(mode);
      std::vector<double> expected(static_cast<std::size_t>(rank));
      std::vector<double> actual(static_cast<std::size_t>(rank));
      oracle.ComputeDelta(entry, s.x.index(entry), mode, expected.data());
      engine.ComputeDelta(entry, s.x.index(entry), mode, actual.data());
      for (std::int64_t j = 0; j < rank; ++j) {
        EXPECT_NEAR(actual[static_cast<std::size_t>(j)],
                    expected[static_cast<std::size_t>(j)], 1e-12);
      }
    }
  }
}

TEST(DeltaEngineTest, BatchedMetricsMatchPerEntryBitForBit) {
  // The metric paths tile entries through ReconstructBatch; since the
  // tiled kernels are bit-identical to mode-major per entry and the
  // blocked deterministic sums add residuals in entry order, whole
  // metrics must be EXPECT_EQ across engines and tile widths — including
  // widths that exercise the packed SIMD kernel (B >= kSimdMinTile) and
  // partial trailing tiles (nnz is no multiple of any width here).
  Ctx s = MakeCtx(3, 5, 37);
  ModeMajorDeltaEngine mode_major(s.list, s.factors, nullptr, 1);
  const double expected_error = ReconstructionError(s.x, mode_major);
  const double expected_rmse = TestRmse(s.x, mode_major);
  const std::vector<double> expected_pred = PredictEntries(s.x, mode_major);
  for (const std::int64_t tile :
       {std::int64_t{1}, std::int64_t{4}, std::int64_t{32},
        std::int64_t{33}}) {
    const ModeMajorDeltaEngine tiled(s.list, s.factors, nullptr, tile);
    EXPECT_EQ(ReconstructionError(s.x, tiled), expected_error)
        << "tile " << tile;
    EXPECT_EQ(TestRmse(s.x, tiled), expected_rmse) << "tile " << tile;
    const std::vector<double> pred = PredictEntries(s.x, tiled);
    ASSERT_EQ(pred.size(), expected_pred.size());
    for (std::size_t i = 0; i < pred.size(); ++i) {
      EXPECT_EQ(pred[i], expected_pred[i]) << "tile " << tile << " entry "
                                           << i;
    }
  }
  const ModeMajorDeltaEngine adaptive0(s.list, s.factors, nullptr,
                                       kDefaultTileWidth, 0.0);
  EXPECT_EQ(ReconstructionError(s.x, adaptive0), expected_error);
}

TEST(DeltaEngineTest, BatchedPartialErrorsMatchPerEntryBitForBit) {
  // The truncation scorer tiles entries through ProductsBatch; the scores
  // (and therefore the removal set) must be EXPECT_EQ across engines and
  // tile widths, and the per-thread tile scratch must be charged to the
  // tracker only for the duration of the scan.
  Ctx s = MakeCtx(4, 5, 41);
  ModeMajorDeltaEngine mode_major(s.list, s.factors, nullptr, 1);
  const std::vector<double> expected =
      ComputePartialErrors(s.x, s.list, s.factors, &mode_major);
  for (const std::int64_t tile :
       {std::int64_t{1}, std::int64_t{4}, std::int64_t{32}}) {
    const ModeMajorDeltaEngine tiled(s.list, s.factors, nullptr, tile);
    MemoryTracker tracker;
    const std::vector<double> scores =
        ComputePartialErrors(s.x, s.list, s.factors, &tiled, &tracker);
    ASSERT_EQ(scores.size(), expected.size());
    for (std::size_t b = 0; b < scores.size(); ++b) {
      EXPECT_EQ(scores[b], expected[b]) << "tile " << tile << " core " << b;
    }
    EXPECT_GT(tracker.peak_bytes(), 0) << "tile " << tile;
    EXPECT_EQ(tracker.current_bytes(), 0) << "tile " << tile;
  }
}

// --- Solver-level guarantees across engines. ---

PTuckerResult Solve(const SparseTensor& x, DeltaEngineChoice engine,
                    PTuckerVariant variant = PTuckerVariant::kMemory,
                    bool update_core = false, double adaptive_epsilon = 0.0,
                    std::int64_t tile_width = kDefaultTileWidth) {
  PTuckerOptions options;
  options.core_dims = {3, 3, 3};
  options.max_iterations = 5;
  options.tolerance = 0.0;
  options.delta_engine = engine;
  options.variant = variant;
  options.update_core = update_core;
  options.adaptive_epsilon = adaptive_epsilon;
  options.tile_width = tile_width;
  return PTuckerDecompose(x, options);
}

class DeltaEngineTrajectories : public ::testing::Test {
 protected:
  void SetUp() override {
    Rng rng(21);
    x_ = UniformSparseTensor({14, 12, 10}, 400, rng);
  }
  SparseTensor x_;
};

TEST_F(DeltaEngineTrajectories, AllEnginesProduceTheSameTrajectory) {
  const PTuckerResult naive = Solve(x_, DeltaEngineChoice::kNaive);
  const PTuckerResult mode_major = Solve(x_, DeltaEngineChoice::kModeMajor);
  const PTuckerResult cached = Solve(x_, DeltaEngineChoice::kCached);
  ASSERT_EQ(naive.iterations.size(), mode_major.iterations.size());
  ASSERT_EQ(naive.iterations.size(), cached.iterations.size());
  for (std::size_t i = 0; i < naive.iterations.size(); ++i) {
    EXPECT_NEAR(mode_major.iterations[i].error, naive.iterations[i].error,
                1e-7)
        << "iter " << i;
    EXPECT_NEAR(cached.iterations[i].error, naive.iterations[i].error, 1e-7)
        << "iter " << i;
  }
}

TEST_F(DeltaEngineTrajectories, RegroupedEnginesMatchModeMajorBitForBit) {
  // The mode-major engine at ε = 0 computes bit-identical δ at any tile
  // width and the row update consumes it in the same entry order, so
  // whole solver trajectories — not just single kernels — must match the
  // per-entry (B = 1) flow exactly.
  const PTuckerResult mode_major = Solve(
      x_, DeltaEngineChoice::kModeMajor, PTuckerVariant::kMemory, false, 0.0,
      /*tile_width=*/1);
  const PTuckerResult adaptive =
      Solve(x_, DeltaEngineChoice::kModeMajor, PTuckerVariant::kMemory, false,
            /*adaptive_epsilon=*/0.0);
  for (const std::int64_t tile : {std::int64_t{4}, std::int64_t{32},
                                  std::int64_t{64}}) {
    const PTuckerResult tiled =
        Solve(x_, DeltaEngineChoice::kModeMajor, PTuckerVariant::kMemory,
              false, 0.0, tile);
    ASSERT_EQ(tiled.iterations.size(), mode_major.iterations.size());
    for (std::size_t i = 0; i < tiled.iterations.size(); ++i) {
      EXPECT_EQ(tiled.iterations[i].error, mode_major.iterations[i].error)
          << "tile " << tile << " iter " << i;
    }
  }
  ASSERT_EQ(adaptive.iterations.size(), mode_major.iterations.size());
  for (std::size_t i = 0; i < adaptive.iterations.size(); ++i) {
    EXPECT_EQ(adaptive.iterations[i].error, mode_major.iterations[i].error)
        << "iter " << i;
  }
}

TEST_F(DeltaEngineTrajectories, TiledTruncationTrajectoriesMatchModeMajor) {
  // Under P-TUCKER-APPROX the truncation scorer runs through
  // ProductsBatch and the error metric through ReconstructBatch, both
  // tiled. The scores, the removal sets, and the error trajectory must
  // stay bit-identical to the mode-major per-entry flow at every width.
  const PTuckerResult mode_major =
      Solve(x_, DeltaEngineChoice::kModeMajor, PTuckerVariant::kApprox, false,
            0.0, /*tile_width=*/1);
  for (const std::int64_t tile :
       {std::int64_t{4}, std::int64_t{32}, std::int64_t{64}}) {
    const PTuckerResult tiled = Solve(x_, DeltaEngineChoice::kModeMajor,
                                      PTuckerVariant::kApprox, false, 0.0,
                                      tile);
    ASSERT_EQ(tiled.iterations.size(), mode_major.iterations.size());
    for (std::size_t i = 0; i < tiled.iterations.size(); ++i) {
      EXPECT_EQ(tiled.iterations[i].error, mode_major.iterations[i].error)
          << "tile " << tile << " iter " << i;
      EXPECT_EQ(tiled.iterations[i].core_nnz,
                mode_major.iterations[i].core_nnz)
          << "tile " << tile << " iter " << i;
    }
    EXPECT_EQ(tiled.final_error, mode_major.final_error) << "tile " << tile;
  }
}

TEST_F(DeltaEngineTrajectories, AdaptiveWithBudgetTradesBoundedAccuracy) {
  // ε > 0 degrades δ but the solve must stay well-behaved: same iteration
  // count, finite errors, and a final model in the same quality ballpark
  // as the exact engine (the documented speed-for-accuracy trade).
  const PTuckerResult exact = Solve(x_, DeltaEngineChoice::kModeMajor);
  const PTuckerResult lossy =
      Solve(x_, DeltaEngineChoice::kModeMajor, PTuckerVariant::kMemory, false,
            /*adaptive_epsilon=*/0.4);
  ASSERT_EQ(lossy.iterations.size(), exact.iterations.size());
  for (std::size_t i = 0; i < lossy.iterations.size(); ++i) {
    EXPECT_TRUE(std::isfinite(lossy.iterations[i].error)) << "iter " << i;
  }
  EXPECT_GT(lossy.final_error, 0.0);
  EXPECT_LE(lossy.final_error, 1.5 * exact.final_error);
}

TEST_F(DeltaEngineTrajectories, EachEngineIsRunToRunDeterministic) {
  struct Run {
    DeltaEngineChoice choice;
    double eps;
  };
  for (const Run run :
       {Run{DeltaEngineChoice::kNaive, 0.0},
        Run{DeltaEngineChoice::kModeMajor, 0.0},
        Run{DeltaEngineChoice::kCached, 0.0},
        Run{DeltaEngineChoice::kModeMajor, 0.4}}) {
    // Give the lossy/batched engine non-trivial knobs so determinism is
    // exercised on the interesting code paths.
    const DeltaEngineChoice choice = run.choice;
    const double eps = run.eps;
    const PTuckerResult a =
        Solve(x_, choice, PTuckerVariant::kMemory, false, eps, 4);
    const PTuckerResult b =
        Solve(x_, choice, PTuckerVariant::kMemory, false, eps, 4);
    ASSERT_EQ(a.iterations.size(), b.iterations.size());
    for (std::size_t i = 0; i < a.iterations.size(); ++i) {
      EXPECT_EQ(a.iterations[i].error, b.iterations[i].error)
          << "engine " << static_cast<int>(choice) << " iter " << i;
    }
  }
}

TEST_F(DeltaEngineTrajectories, EnginesAgreeUnderApproxTruncation) {
  const PTuckerResult naive =
      Solve(x_, DeltaEngineChoice::kNaive, PTuckerVariant::kApprox);
  const PTuckerResult mode_major =
      Solve(x_, DeltaEngineChoice::kModeMajor, PTuckerVariant::kApprox);
  ASSERT_EQ(naive.iterations.size(), mode_major.iterations.size());
  for (std::size_t i = 0; i < naive.iterations.size(); ++i) {
    EXPECT_NEAR(mode_major.iterations[i].error, naive.iterations[i].error,
                1e-7);
    EXPECT_EQ(mode_major.iterations[i].core_nnz, naive.iterations[i].core_nnz);
  }
}

TEST_F(DeltaEngineTrajectories, EnginesAgreeUnderCoreUpdate) {
  const PTuckerResult naive = Solve(x_, DeltaEngineChoice::kNaive,
                                    PTuckerVariant::kMemory, true);
  const PTuckerResult mode_major = Solve(x_, DeltaEngineChoice::kModeMajor,
                                         PTuckerVariant::kMemory, true);
  ASSERT_EQ(naive.iterations.size(), mode_major.iterations.size());
  for (std::size_t i = 0; i < naive.iterations.size(); ++i) {
    EXPECT_NEAR(mode_major.iterations[i].error, naive.iterations[i].error,
                1e-6);
  }
}

}  // namespace
}  // namespace ptucker
