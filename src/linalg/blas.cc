#include "linalg/blas.h"

#include <cmath>
#include <vector>

#include "util/logging.h"

namespace ptucker {

Matrix MatMul(const Matrix& a, const Matrix& b) {
  PTUCKER_CHECK(a.cols() == b.rows());
  Matrix result(a.rows(), b.cols());
  // i-k-j loop order keeps inner accesses sequential in row-major layout.
  for (std::int64_t i = 0; i < a.rows(); ++i) {
    double* out = result.Row(i);
    const double* lhs = a.Row(i);
    for (std::int64_t k = 0; k < a.cols(); ++k) {
      const double scale = lhs[k];
      if (scale == 0.0) continue;
      const double* rhs = b.Row(k);
      for (std::int64_t j = 0; j < b.cols(); ++j) out[j] += scale * rhs[j];
    }
  }
  return result;
}

Matrix MatTMul(const Matrix& a, const Matrix& b) {
  PTUCKER_CHECK(a.rows() == b.rows());
  Matrix result(a.cols(), b.cols());
  for (std::int64_t k = 0; k < a.rows(); ++k) {
    const double* lhs = a.Row(k);
    const double* rhs = b.Row(k);
    for (std::int64_t i = 0; i < a.cols(); ++i) {
      const double scale = lhs[i];
      if (scale == 0.0) continue;
      double* out = result.Row(i);
      for (std::int64_t j = 0; j < b.cols(); ++j) out[j] += scale * rhs[j];
    }
  }
  return result;
}

Matrix MatMulT(const Matrix& a, const Matrix& b) {
  PTUCKER_CHECK(a.cols() == b.cols());
  Matrix result(a.rows(), b.rows());
  for (std::int64_t i = 0; i < a.rows(); ++i) {
    const double* lhs = a.Row(i);
    double* out = result.Row(i);
    for (std::int64_t j = 0; j < b.rows(); ++j) {
      out[j] = Dot(lhs, b.Row(j), a.cols());
    }
  }
  return result;
}

void MatVec(const Matrix& a, const double* x, double* y) {
  for (std::int64_t i = 0; i < a.rows(); ++i) {
    y[i] = Dot(a.Row(i), x, a.cols());
  }
}

void MatTVec(const Matrix& a, const double* x, double* y) {
  for (std::int64_t j = 0; j < a.cols(); ++j) y[j] = 0.0;
  for (std::int64_t i = 0; i < a.rows(); ++i) {
    Axpy(x[i], a.Row(i), y, a.cols());
  }
}

double Dot(const double* x, const double* y, std::int64_t n) {
  double sum = 0.0;
  for (std::int64_t i = 0; i < n; ++i) sum += x[i] * y[i];
  return sum;
}

void Axpy(double alpha, const double* x, double* y, std::int64_t n) {
  for (std::int64_t i = 0; i < n; ++i) y[i] += alpha * x[i];
}

double Norm2(const double* x, std::int64_t n) {
  return std::sqrt(Dot(x, x, n));
}

void SymmetricRank1Update(Matrix& b, const double* x) {
  PTUCKER_CHECK(b.rows() == b.cols());
  const std::int64_t n = b.rows();
  for (std::int64_t i = 0; i < n; ++i) {
    const double scale = x[i];
    if (scale == 0.0) continue;
    Axpy(scale, x, b.Row(i), n);
  }
}

void SymmetricTileUpdate(Matrix& b, const double* x, std::int64_t count) {
  PTUCKER_CHECK(b.rows() == b.cols());
  const std::int64_t n = b.rows();
  // Row i of the upper triangle is held in `acc` across the whole tile,
  // so each B(i,j) is one running sum over t in order. A rank-1 sequence
  // adds the same products in the same order; the terms it skips for
  // x_t[i] == 0 are ±0 here, which leave any sum that is not −0 unchanged
  // (and a sum that starts at +0 never becomes −0), hence the same bits
  // for finite x.
  constexpr std::int64_t kStackRank = 64;
  double stack_acc[kStackRank];
  std::vector<double> heap_acc;
  double* acc = stack_acc;
  if (n > kStackRank) {
    heap_acc.resize(static_cast<std::size_t>(n));
    acc = heap_acc.data();
  }
  for (std::int64_t i = 0; i < n; ++i) {
    double* row = b.Row(i);
    for (std::int64_t j = i; j < n; ++j) acc[j] = row[j];
    const double* xt = x;
    for (std::int64_t t = 0; t < count; ++t, xt += n) {
      const double scale = xt[i];
      for (std::int64_t j = i; j < n; ++j) acc[j] += scale * xt[j];
    }
    for (std::int64_t j = i; j < n; ++j) row[j] = acc[j];
  }
  for (std::int64_t i = 1; i < n; ++i) {
    for (std::int64_t j = 0; j < i; ++j) b(i, j) = b(j, i);
  }
}

}  // namespace ptucker
