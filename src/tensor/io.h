#ifndef PTUCKER_TENSOR_IO_H_
#define PTUCKER_TENSOR_IO_H_

#include <cstdint>
#include <string>

#include "tensor/sparse_tensor.h"

namespace ptucker {

/// Tensor I/O in the FROSTT `.tns` text format used by the paper's public
/// datasets: one nonzero per line, N 1-based indices followed by the value.
///
/// Accepted syntax:
/// - tokens are separated by any C-locale whitespace (' ', '\t', '\v',
///   '\f', '\r'), so CRLF files load; a line whose first character other
///   than ' ', '\t' or '\r' is '#' is a comment, and blank lines are
///   skipped;
/// - every token is a decimal number as std::istream's operator>> reads
///   one: an optional '+' or '-', digits with an optional '.', an optional
///   exponent, correctly rounded. `inf`, `nan`, hex and values above the
///   largest double are rejected; values below the smallest subnormal
///   read as a signed zero;
/// - a token is whitespace-delimited as a whole: "1e", "0x10" or "2-3" is
///   one malformed token, never a number plus a remainder;
/// - indices are read as doubles and must be integers in [1, kMaxTnsIndex];
///   every line has the same number of indices.
///
/// All readers throw std::runtime_error on malformed input; `.tns` errors
/// name the line.

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
/// against it. The file is read in 1 MiB blocks, parsed straight into the
/// tensor's flat index and value arrays: besides the tensor, the reader
/// holds one block (more only for a line longer than a block) and one
/// line's tokens. It runs on the calling thread and starts none.
SparseTensor ReadTns(const std::string& path,
                     const std::vector<std::int64_t>& dims = {});

/// Parses `.tns` content from a string (same rules as ReadTns).
SparseTensor ParseTns(const std::string& content,
                      const std::vector<std::int64_t>& dims = {});

/// Writes FROSTT text (1-based indices).
void WriteTns(const std::string& path, const SparseTensor& tensor);

/// Serializes `.tns` content to a string.
std::string FormatTns(const SparseTensor& tensor);

/// Compact binary round-trip format ("PTNB"): order, dims, nnz, then per
/// entry its indices and value, all little-endian 64-bit. ReadBinary checks
/// the order, the dims (> 0), the entry count against the file size and
/// every index against its dim, and throws std::runtime_error naming the
/// file on any failure.
void WriteBinary(const std::string& path, const SparseTensor& tensor);
SparseTensor ReadBinary(const std::string& path);

/// The nonzeros of a dense tensor as a SparseTensor (used to serialize a
/// fitted — possibly truncated — core tensor in FROSTT format).
SparseTensor SparseFromDense(const class DenseTensor& tensor);

}  // namespace ptucker

#endif  // PTUCKER_TENSOR_IO_H_
