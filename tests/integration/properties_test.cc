// Property-based sweeps over randomized workloads: the paper's theorems
// (monotone convergence, SPD row systems, orthogonal invariance) must hold
// for every shape/seed combination, not just hand-picked cases.
#include <cmath>
#include <vector>
#include <set>

#include <gtest/gtest.h>

#include "core/ptucker.h"
#include "core/reconstruction.h"
#include "data/synthetic.h"
#include "linalg/qr.h"
#include "tensor/nmode.h"
#include "util/random.h"

namespace ptucker {
namespace {

struct PropertyCase {
  int order;
  std::int64_t dim;
  std::int64_t rank;
  std::int64_t nnz;
  std::uint64_t seed;
};

void PrintTo(const PropertyCase& c, std::ostream* os) {
  *os << "order=" << c.order << " dim=" << c.dim << " rank=" << c.rank
      << " nnz=" << c.nnz << " seed=" << c.seed;
}

class PTuckerPropertySweep : public ::testing::TestWithParam<PropertyCase> {};

TEST_P(PTuckerPropertySweep, TheoremsHold) {
  const PropertyCase param = GetParam();
  Rng rng(param.seed);
  SparseTensor x =
      UniformCubicTensor(param.order, param.dim, param.nnz, rng);

  PTuckerOptions options;
  options.core_dims.assign(static_cast<std::size_t>(param.order),
                           param.rank);
  options.max_iterations = 5;
  options.seed = param.seed * 7 + 1;
  PTuckerResult result = PTuckerDecompose(x, options);

  // Theorem 2: monotone non-increasing error, bounded below by 0.
  for (std::size_t i = 1; i < result.iterations.size(); ++i) {
    ASSERT_LE(result.iterations[i].error,
              result.iterations[i - 1].error + 1e-9);
    ASSERT_GE(result.iterations[i].error, 0.0);
  }

  // The trivial upper bound: the final fit is no worse than predicting
  // all zeros.
  EXPECT_LE(result.final_error, x.FrobeniusNorm() + 1e-9);

  // Output contract: orthonormal factors, finite core.
  for (const auto& factor : result.model.factors) {
    ASSERT_LT(OrthonormalityDefect(factor), 1e-8);
  }
  for (std::int64_t i = 0; i < result.model.core.size(); ++i) {
    ASSERT_TRUE(std::isfinite(result.model.core[i]));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, PTuckerPropertySweep,
    ::testing::Values(PropertyCase{2, 15, 3, 100, 1},
                      PropertyCase{3, 10, 2, 200, 2},
                      PropertyCase{3, 12, 4, 400, 3},
                      PropertyCase{4, 8, 2, 300, 4},
                      PropertyCase{5, 6, 2, 250, 5},
                      PropertyCase{6, 5, 2, 200, 6},
                      PropertyCase{3, 30, 3, 60, 7},   // very sparse
                      PropertyCase{3, 6, 2, 216, 8},   // fully dense
                      PropertyCase{2, 40, 5, 800, 9},
                      PropertyCase{4, 7, 3, 500, 10}));

class SkewedWorkloadSweep : public ::testing::TestWithParam<double> {};

TEST_P(SkewedWorkloadSweep, MonotoneUnderSkew) {
  // Dynamic-scheduling workloads: heavy slice imbalance must not affect
  // correctness.
  const double skew = GetParam();
  Rng rng(static_cast<std::uint64_t>(skew * 100) + 3);
  SparseTensor x = SkewedSparseTensor({40, 40, 40}, 800, skew, rng);
  PTuckerOptions options;
  options.core_dims = {3, 3, 3};
  options.max_iterations = 4;
  PTuckerResult result = PTuckerDecompose(x, options);
  for (std::size_t i = 1; i < result.iterations.size(); ++i) {
    ASSERT_LE(result.iterations[i].error,
              result.iterations[i - 1].error + 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(Skews, SkewedWorkloadSweep,
                         ::testing::Values(0.0, 0.5, 1.0, 1.5));

class RankSweep : public ::testing::TestWithParam<int> {};

TEST_P(RankSweep, HigherRankFitsNoWorse) {
  // More capacity can only improve the final training fit (up to solver
  // noise): run rank J and rank J+1 on the same tensor.
  const int rank = GetParam();
  Rng rng(50 + rank);
  SparseTensor x = UniformCubicTensor(3, 15, 500, rng);

  PTuckerOptions options;
  options.max_iterations = 10;
  options.core_dims = {rank, rank, rank};
  const double err_low = PTuckerDecompose(x, options).final_error;
  options.core_dims = {rank + 1, rank + 1, rank + 1};
  const double err_high = PTuckerDecompose(x, options).final_error;
  // Different random inits make this stochastic; allow 10% slack.
  EXPECT_LT(err_high, err_low * 1.10);
}

INSTANTIATE_TEST_SUITE_P(Ranks, RankSweep, ::testing::Values(1, 2, 4, 6));

TEST(NumericalEdgeCases, ConstantValueTensor) {
  // All observed values identical: the solver must fit them (nearly)
  // exactly with rank 1.
  SparseTensor x({10, 10, 10});
  Rng rng(1);
  std::set<std::vector<std::int64_t>> seen;  // Ω has no repeats
  while (x.nnz() < 200) {
    const std::vector<std::int64_t> index = {
        static_cast<std::int64_t>(rng.UniformInt(10)),
        static_cast<std::int64_t>(rng.UniformInt(10)),
        static_cast<std::int64_t>(rng.UniformInt(10))};
    if (!seen.insert(index).second) continue;
    x.AddEntry(index, 0.5);
  }
  x.BuildModeIndex();
  PTuckerOptions options;
  options.core_dims = {1, 1, 1};
  options.max_iterations = 20;
  options.lambda = 1e-6;
  PTuckerResult result = PTuckerDecompose(x, options);
  EXPECT_LT(result.final_error, 0.05);
}

TEST(NumericalEdgeCases, TinyValuesStayFinite) {
  SparseTensor x({8, 8});
  Rng rng(2);
  std::set<std::vector<std::int64_t>> seen;  // Ω has no repeats
  while (x.nnz() < 40) {
    const std::vector<std::int64_t> index = {
        static_cast<std::int64_t>(rng.UniformInt(8)),
        static_cast<std::int64_t>(rng.UniformInt(8))};
    if (!seen.insert(index).second) continue;
    x.AddEntry(index, rng.Uniform() * 1e-15);
  }
  x.BuildModeIndex();
  PTuckerOptions options;
  options.core_dims = {2, 2};
  options.max_iterations = 5;
  PTuckerResult result = PTuckerDecompose(x, options);
  EXPECT_TRUE(std::isfinite(result.final_error));
}

TEST(NumericalEdgeCases, SingleEntryTensor) {
  SparseTensor x({5, 5});
  x.AddEntry({2, 3}, 0.7);
  x.BuildModeIndex();
  PTuckerOptions options;
  options.core_dims = {1, 1};
  options.max_iterations = 10;
  options.lambda = 1e-9;
  PTuckerResult result = PTuckerDecompose(x, options);
  EXPECT_LT(result.final_error, 1e-3);
}

TEST(NumericalEdgeCases, RankOneEveryMode) {
  Rng rng(3);
  SparseTensor x = UniformCubicTensor(4, 6, 100, rng);
  PTuckerOptions options;
  options.core_dims = {1, 1, 1, 1};
  options.max_iterations = 6;
  PTuckerResult result = PTuckerDecompose(x, options);
  EXPECT_TRUE(std::isfinite(result.final_error));
  EXPECT_EQ(result.model.core.size(), 1);
}

}  // namespace
}  // namespace ptucker
