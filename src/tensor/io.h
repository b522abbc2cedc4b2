#ifndef PTUCKER_TENSOR_IO_H_
#define PTUCKER_TENSOR_IO_H_

#include <cstdint>
#include <string>

#include "tensor/sparse_tensor.h"

namespace ptucker {

/// Tensor I/O in the FROSTT `.tns` text format used by the paper's public
/// datasets: one nonzero per line, N whitespace-separated 1-based indices
/// followed by the value; lines starting with '#' are comments.
///
/// All readers throw std::runtime_error with a line-numbered message on
/// malformed input.

/// Largest `.tns` index accepted (1-based): 2^53, the largest integer
/// range a double token represents exactly. Larger, fractional, NaN or
/// non-positive indices are rejected with a line-numbered parse error.
inline constexpr std::int64_t kMaxTnsIndex = std::int64_t{1} << 53;

/// Largest mode dimensionality ReadTns / ParseTns infer from the indices
/// when no `dims` are given: 2^27 rows (above every FROSTT tensor's
/// largest mode). A bigger inferred dim — one stray huge index — would
/// size the mode index and factor matrices past any memory, so it fails
/// with a parse error naming this budget instead of std::bad_alloc.
/// Callers that really need larger modes pass `dims` explicitly.
inline constexpr std::int64_t kMaxInferredTnsDim = std::int64_t{1} << 27;

/// Reads a `.tns` file. Mode dimensionalities are the per-mode maximum
/// index unless `dims` is non-empty, in which case indices are validated
/// against it.
SparseTensor ReadTns(const std::string& path,
                     const std::vector<std::int64_t>& dims = {});

/// Parses `.tns` content from a string (same rules as ReadTns).
SparseTensor ParseTns(const std::string& content,
                      const std::vector<std::int64_t>& dims = {});

/// Writes FROSTT text (1-based indices).
void WriteTns(const std::string& path, const SparseTensor& tensor);

/// Serializes `.tns` content to a string.
std::string FormatTns(const SparseTensor& tensor);

/// Compact binary round-trip format ("PTNB"): order, dims, nnz, indices,
/// values, all little-endian 64-bit.
void WriteBinary(const std::string& path, const SparseTensor& tensor);
SparseTensor ReadBinary(const std::string& path);

/// The nonzeros of a dense tensor as a SparseTensor (used to serialize a
/// fitted — possibly truncated — core tensor in FROSTT format).
SparseTensor SparseFromDense(const class DenseTensor& tensor);

}  // namespace ptucker

#endif  // PTUCKER_TENSOR_IO_H_
