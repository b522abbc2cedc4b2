// FactorView tests: the non-owning view mirrors Matrix's const API
// element-for-element, and a δ-engine constructed from views computes
// bit-identical results to one constructed from the owning matrices —
// the contract the zero-copy serving plane (serve/snapshot_v2.h) rests
// on.
#include "linalg/factor_view.h"

#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "core/delta_engine.h"
#include "tensor/dense_tensor.h"
#include "util/random.h"

namespace ptucker {
namespace {

TEST(FactorViewTest, MirrorsMatrixConstApi) {
  Rng rng(3);
  Matrix m(5, 3);
  m.FillUniform(rng);
  const FactorView view(m);
  EXPECT_EQ(view.rows(), m.rows());
  EXPECT_EQ(view.cols(), m.cols());
  EXPECT_EQ(view.size(), m.size());
  EXPECT_EQ(view.data(), m.data());  // a view, not a copy
  for (std::int64_t i = 0; i < m.rows(); ++i) {
    EXPECT_EQ(view.Row(i), m.Row(i));
    for (std::int64_t j = 0; j < m.cols(); ++j) {
      EXPECT_EQ(view(i, j), m(i, j));
    }
  }
}

TEST(FactorViewTest, MakeFactorViewsCoversEveryFactor) {
  Rng rng(4);
  std::vector<Matrix> factors;
  for (std::int64_t n = 0; n < 3; ++n) {
    Matrix factor(6 + n, 2);
    factor.FillUniform(rng);
    factors.push_back(std::move(factor));
  }
  const std::vector<FactorView> views = MakeFactorViews(factors);
  ASSERT_EQ(views.size(), factors.size());
  for (std::size_t n = 0; n < factors.size(); ++n) {
    EXPECT_EQ(views[n].data(), factors[n].data());
    EXPECT_EQ(views[n].rows(), factors[n].rows());
    EXPECT_EQ(views[n].cols(), factors[n].cols());
  }
}

// Engines built from owning matrices and from views over the same bits
// must agree exactly on every kernel — construction path cannot change
// results.
TEST(FactorViewTest, ViewBuiltEnginesMatchMatrixBuiltEnginesExactly) {
  Rng rng(9);
  const std::vector<std::int64_t> dims = {11, 9, 8};
  const std::vector<std::int64_t> ranks = {3, 2, 2};
  DenseTensor core(ranks);
  core.FillUniform(rng);
  const CoreEntryList list(core);
  std::vector<Matrix> factors;
  for (std::size_t n = 0; n < dims.size(); ++n) {
    Matrix factor(dims[n], ranks[n]);
    factor.FillUniform(rng);
    factors.push_back(std::move(factor));
  }

  const auto compare = [&](const DeltaEngine& by_matrix,
                           const DeltaEngine& by_view) {
    std::vector<std::int64_t> index(dims.size(), 0);
    std::vector<double> delta_m(8);
    std::vector<double> delta_v(8);
    for (std::uint64_t q = 0; q < 25; ++q) {
      for (std::size_t n = 0; n < dims.size(); ++n) {
        index[n] = static_cast<std::int64_t>(
            rng.UniformInt(static_cast<std::uint64_t>(dims[n])));
      }
      EXPECT_EQ(by_matrix.Reconstruct(index.data()),
                by_view.Reconstruct(index.data()));
      for (std::size_t mode = 0; mode < dims.size(); ++mode) {
        const std::size_t rank = static_cast<std::size_t>(
            ranks[mode]);
        by_matrix.ComputeDelta(-1, index.data(),
                               static_cast<std::int64_t>(mode),
                               delta_m.data());
        by_view.ComputeDelta(-1, index.data(),
                             static_cast<std::int64_t>(mode),
                             delta_v.data());
        for (std::size_t j = 0; j < rank; ++j) {
          EXPECT_EQ(delta_m[j], delta_v[j]) << "mode " << mode;
        }
      }
    }
  };

  {
    const ModeMajorDeltaEngine by_matrix(list, factors, nullptr);
    const ModeMajorDeltaEngine by_view(list, MakeFactorViews(factors),
                                       nullptr);
    compare(by_matrix, by_view);
  }
  {
    const ModeMajorDeltaEngine by_matrix(list, factors, nullptr, 1, 0.0);
    const ModeMajorDeltaEngine by_view(list, MakeFactorViews(factors),
                                       nullptr, 1, 0.0);
    compare(by_matrix, by_view);
  }
  {
    const ModeMajorDeltaEngine by_matrix(list, factors, nullptr, 32);
    const ModeMajorDeltaEngine by_view(list, MakeFactorViews(factors),
                                       nullptr, 32);
    compare(by_matrix, by_view);
  }
}

}  // namespace
}  // namespace ptucker
