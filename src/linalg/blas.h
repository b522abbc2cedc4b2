#ifndef PTUCKER_LINALG_BLAS_H_
#define PTUCKER_LINALG_BLAS_H_

#include <cstdint>

#include "linalg/matrix.h"

namespace ptucker {

/// Dense kernels in the BLAS spirit, sized for this library's needs:
/// factor-matrix Gram products (J x J, J <= ~16) and matricized-tensor
/// products in the HOOI baselines.

/// result = a * b. Shapes must agree (a.cols == b.rows).
Matrix MatMul(const Matrix& a, const Matrix& b);

/// result = aᵀ * b, computed without materializing the transpose.
Matrix MatTMul(const Matrix& a, const Matrix& b);

/// result = a * bᵀ, computed without materializing the transpose.
Matrix MatMulT(const Matrix& a, const Matrix& b);

/// y = A x for a length-cols vector x; y has length rows.
void MatVec(const Matrix& a, const double* x, double* y);

/// y = Aᵀ x for a length-rows vector x; y has length cols.
void MatTVec(const Matrix& a, const double* x, double* y);

/// Dot product of two length-n vectors.
double Dot(const double* x, const double* y, std::int64_t n);

/// y += alpha * x (length n).
void Axpy(double alpha, const double* x, double* y, std::int64_t n);

/// Euclidean norm of a length-n vector.
double Norm2(const double* x, std::int64_t n);

/// Rank-1 symmetric update: B += x xᵀ for a length-n vector x and an n x n
/// matrix B. This is the hot kernel building `B(n,in)` (Eq. 10).
void SymmetricRank1Update(Matrix& b, const double* x);

/// Tile Gram update: B += Σ_t x_t x_tᵀ over the `count` rows x_t of the
/// row-major count × n block `x` (n = B's order, B symmetric) — the Eq. 10
/// accumulation of one δ tile. Each upper-triangle B(i,j) accumulates
/// its count products in t order, then the lower triangle is mirrored,
/// so for finite x and a B holding no −0 (e.g. zero-filled) the result
/// is bit-identical to `count` sequential SymmetricRank1Update calls, at
/// about half the flops.
void SymmetricTileUpdate(Matrix& b, const double* x, std::int64_t count);

}  // namespace ptucker

#endif  // PTUCKER_LINALG_BLAS_H_
