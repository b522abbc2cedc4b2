#ifndef PTUCKER_TENSOR_SPARSE_TENSOR_H_
#define PTUCKER_TENSOR_SPARSE_TENSOR_H_

#include <cstdint>
#include <string>
#include <vector>

#include "util/span.h"

namespace ptucker {

/// Sparse N-order tensor in coordinate (COO) format with an optional
/// per-mode slice index.
///
/// This is the paper's `X` with observable entries Ω. The slice index
/// materializes `Ω(n, in)` — the subset of observed entries whose mode-n
/// coordinate equals `in` — which is the access pattern of the row-wise
/// update rule (Eqs. 9-11): updating row `in` of `A(n)` touches exactly
/// `Slice(n, in)`.
///
/// Storage: indices are a flat nnz x order array (entry-major), values are
/// parallel. The mode index is CSR-like per mode: `slice_ptr[in] ..
/// slice_ptr[in+1]` delimits entry ids in slice `in`.
class SparseTensor {
 public:
  SparseTensor() = default;

  /// Creates an empty tensor with the given mode dimensionalities.
  explicit SparseTensor(std::vector<std::int64_t> dims);

  /// Adopts `indices` (nnz x order, entry-major, 0-based) and the parallel
  /// `values` without copying them. Throws std::runtime_error naming the
  /// fault if a dim is not positive, the two sizes disagree, or an index
  /// is outside its mode (the entry and mode are named).
  SparseTensor(std::vector<std::int64_t> dims,
               std::vector<std::int64_t> indices, std::vector<double> values);

  std::int64_t order() const {
    return static_cast<std::int64_t>(dims_.size());
  }
  const std::vector<std::int64_t>& dims() const { return dims_; }
  std::int64_t dim(std::int64_t mode) const {
    return dims_[static_cast<std::size_t>(mode)];
  }

  /// Number of observable entries |Ω|.
  std::int64_t nnz() const {
    return static_cast<std::int64_t>(values_.size());
  }

  void Reserve(std::int64_t entries);

  /// Appends an observed entry. `index` must have `order()` coordinates,
  /// each within bounds. Invalidates the mode index.
  void AddEntry(const std::int64_t* index, double value);
  void AddEntry(const std::vector<std::int64_t>& index, double value);

  /// Coordinates of entry `e` (length `order()`).
  const std::int64_t* index(std::int64_t e) const {
    return indices_.data() + static_cast<std::size_t>(e * order());
  }
  std::int64_t index(std::int64_t e, std::int64_t mode) const {
    return indices_[static_cast<std::size_t>(e * order() + mode)];
  }

  double value(std::int64_t e) const {
    return values_[static_cast<std::size_t>(e)];
  }
  void set_value(std::int64_t e, double v) {
    values_[static_cast<std::size_t>(e)] = v;
  }

  const std::vector<double>& values() const { return values_; }

  /// Compacts out every entry `e` with `remove[e] != 0`, preserving the
  /// relative order of the survivors (entry ids shift down). `remove`
  /// must have `nnz()` flags. Invalidates the mode index. Returns the
  /// number of entries removed.
  std::int64_t RemoveEntries(const std::vector<char>& remove);

  /// √(Σ x²) over observed entries (Definition 1 restricted to Ω).
  double FrobeniusNorm() const;

  /// Builds (or rebuilds) the per-mode slice index. O(N·(|Ω| + Σ In)).
  void BuildModeIndex();
  bool has_mode_index() const { return mode_index_built_; }

  /// Entry ids in Ω(mode, i). Requires BuildModeIndex().
  Span<const std::int64_t> Slice(std::int64_t mode, std::int64_t i) const;

  /// |Ω(mode, i)| without touching entry ids. Requires BuildModeIndex().
  std::int64_t SliceSize(std::int64_t mode, std::int64_t i) const;

  /// Bytes held by indices+values (used for memory accounting).
  std::int64_t ByteSize() const;

 private:
  std::vector<std::int64_t> dims_;
  std::vector<std::int64_t> indices_;  // nnz * order, entry-major
  std::vector<double> values_;

  bool mode_index_built_ = false;
  // Per mode: CSR-style offsets (size dim+1) and entry ids (size nnz).
  std::vector<std::vector<std::int64_t>> slice_ptr_;
  std::vector<std::vector<std::int64_t>> slice_entries_;
};

/// The Ω contract at a solver boundary: every entry's coordinate is
/// unique (COO would silently count a repeat twice in the loss). Throws
/// std::invalid_argument "<context>: tensor has duplicate coordinates"
/// naming the two entries and their shared 0-based coordinate. Hashes
/// the full coordinate tuple, so it holds for any shape (no linearized
/// key to overflow); O(nnz) expected time, 16–32 bytes per entry of
/// scratch.
void CheckUniqueCoordinates(const SparseTensor& x, const std::string& context);

}  // namespace ptucker

#endif  // PTUCKER_TENSOR_SPARSE_TENSOR_H_
