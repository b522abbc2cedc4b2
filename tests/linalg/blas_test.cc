#include "linalg/blas.h"

#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "util/random.h"

namespace ptucker {
namespace {

Matrix RandomMatrix(std::int64_t rows, std::int64_t cols, std::uint64_t seed) {
  Rng rng(seed);
  Matrix m(rows, cols);
  m.FillUniform(rng);
  return m;
}

TEST(BlasTest, MatMulSmallKnown) {
  Matrix a(2, 2, {1, 2, 3, 4});
  Matrix b(2, 2, {5, 6, 7, 8});
  Matrix c = MatMul(a, b);
  EXPECT_DOUBLE_EQ(c(0, 0), 19);
  EXPECT_DOUBLE_EQ(c(0, 1), 22);
  EXPECT_DOUBLE_EQ(c(1, 0), 43);
  EXPECT_DOUBLE_EQ(c(1, 1), 50);
}

TEST(BlasTest, MatMulIdentity) {
  Matrix a = RandomMatrix(4, 6, 1);
  EXPECT_TRUE(AllClose(MatMul(Matrix::Identity(4), a), a, 1e-14));
  EXPECT_TRUE(AllClose(MatMul(a, Matrix::Identity(6)), a, 1e-14));
}

TEST(BlasTest, MatTMulMatchesExplicitTranspose) {
  Matrix a = RandomMatrix(5, 3, 2);
  Matrix b = RandomMatrix(5, 4, 3);
  EXPECT_TRUE(AllClose(MatTMul(a, b), MatMul(a.Transposed(), b), 1e-12));
}

TEST(BlasTest, MatMulTMatchesExplicitTranspose) {
  Matrix a = RandomMatrix(4, 6, 4);
  Matrix b = RandomMatrix(3, 6, 5);
  EXPECT_TRUE(AllClose(MatMulT(a, b), MatMul(a, b.Transposed()), 1e-12));
}

TEST(BlasTest, MatMulAssociativity) {
  Matrix a = RandomMatrix(3, 4, 6);
  Matrix b = RandomMatrix(4, 5, 7);
  Matrix c = RandomMatrix(5, 2, 8);
  EXPECT_TRUE(AllClose(MatMul(MatMul(a, b), c), MatMul(a, MatMul(b, c)),
                       1e-12));
}

TEST(BlasTest, MatVec) {
  Matrix a(2, 3, {1, 2, 3, 4, 5, 6});
  const double x[3] = {1, 0, -1};
  double y[2];
  MatVec(a, x, y);
  EXPECT_DOUBLE_EQ(y[0], -2);
  EXPECT_DOUBLE_EQ(y[1], -2);
}

TEST(BlasTest, MatTVec) {
  Matrix a(2, 3, {1, 2, 3, 4, 5, 6});
  const double x[2] = {1, -1};
  double y[3];
  MatTVec(a, x, y);
  EXPECT_DOUBLE_EQ(y[0], -3);
  EXPECT_DOUBLE_EQ(y[1], -3);
  EXPECT_DOUBLE_EQ(y[2], -3);
}

TEST(BlasTest, DotAxpyNorm) {
  const double x[3] = {1, 2, 3};
  double y[3] = {4, 5, 6};
  EXPECT_DOUBLE_EQ(Dot(x, y, 3), 32);
  Axpy(2.0, x, y, 3);
  EXPECT_DOUBLE_EQ(y[0], 6);
  EXPECT_DOUBLE_EQ(y[2], 12);
  const double z[2] = {3, 4};
  EXPECT_DOUBLE_EQ(Norm2(z, 2), 5);
}

TEST(BlasTest, SymmetricRank1Update) {
  Matrix b(3, 3);
  const double x[3] = {1, 2, 3};
  SymmetricRank1Update(b, x);
  SymmetricRank1Update(b, x);
  for (std::int64_t i = 0; i < 3; ++i) {
    for (std::int64_t j = 0; j < 3; ++j) {
      EXPECT_DOUBLE_EQ(b(i, j), 2.0 * x[i] * x[j]);
    }
  }
}

TEST(BlasTest, SymmetricRank1UpdateKeepsSymmetry) {
  Rng rng(11);
  Matrix b(5, 5);
  std::vector<double> x(5);
  for (int round = 0; round < 10; ++round) {
    for (auto& v : x) v = rng.Normal();
    SymmetricRank1Update(b, x.data());
  }
  for (std::int64_t i = 0; i < 5; ++i) {
    for (std::int64_t j = 0; j < 5; ++j) {
      EXPECT_DOUBLE_EQ(b(i, j), b(j, i));
    }
  }
}

TEST(BlasTest, SymmetricTileUpdateMatchesRank1SequenceBitForBit) {
  // The tile Gram kernel must reproduce the per-entry rank-1 sequence
  // exactly — including across several tiles into the same B, and with
  // exact zeros (the rank-1 kernel skips those rows), negative zeros and
  // negative components in the δ rows.
  for (const std::int64_t n : {1, 3, 8, 13}) {
    for (const std::int64_t tile : {1, 7, 64}) {
      Rng rng(static_cast<std::uint64_t>(100 * n + tile));
      const std::int64_t tiles = 3;
      std::vector<double> x(static_cast<std::size_t>(tiles * tile * n));
      for (std::size_t k = 0; k < x.size(); ++k) {
        const double u = rng.Uniform();
        x[k] = u < 0.15 ? 0.0 : (u < 0.2 ? -0.0 : rng.Normal());
      }
      Matrix expected(n, n);
      Matrix actual(n, n);
      for (std::int64_t t = 0; t < tiles * tile; ++t) {
        SymmetricRank1Update(expected, x.data() + t * n);
      }
      for (std::int64_t t = 0; t < tiles; ++t) {
        SymmetricTileUpdate(actual, x.data() + t * tile * n, tile);
      }
      for (std::int64_t i = 0; i < n; ++i) {
        for (std::int64_t j = 0; j < n; ++j) {
          EXPECT_EQ(actual(i, j), expected(i, j))
              << "n " << n << " tile " << tile << " at " << i << "," << j;
          EXPECT_EQ(std::signbit(actual(i, j)), std::signbit(expected(i, j)))
              << "n " << n << " tile " << tile << " at " << i << "," << j;
        }
      }
    }
  }
}

// Property sweep: MatMul dimensions compose for many shapes.
class MatMulShapeTest
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(MatMulShapeTest, ShapesAndValues) {
  const auto [m, k, n] = GetParam();
  Matrix a = RandomMatrix(m, k, 100 + m);
  Matrix b = RandomMatrix(k, n, 200 + n);
  Matrix c = MatMul(a, b);
  ASSERT_EQ(c.rows(), m);
  ASSERT_EQ(c.cols(), n);
  // Check one random element against a scalar loop.
  Rng rng(m * 31 + n);
  const std::int64_t i = static_cast<std::int64_t>(rng.UniformInt(m));
  const std::int64_t j = static_cast<std::int64_t>(rng.UniformInt(n));
  double expected = 0.0;
  for (std::int64_t t = 0; t < k; ++t) expected += a(i, t) * b(t, j);
  EXPECT_NEAR(c(i, j), expected, 1e-12);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, MatMulShapeTest,
    ::testing::Values(std::make_tuple(1, 1, 1), std::make_tuple(2, 3, 4),
                      std::make_tuple(7, 1, 5), std::make_tuple(1, 9, 1),
                      std::make_tuple(16, 16, 16), std::make_tuple(5, 30, 2)));

}  // namespace
}  // namespace ptucker
