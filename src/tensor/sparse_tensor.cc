#include "tensor/sparse_tensor.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

#include "tensor/index.h"
#include "util/logging.h"

namespace ptucker {

SparseTensor::SparseTensor(std::vector<std::int64_t> dims)
    : dims_(std::move(dims)) {
  for (std::int64_t d : dims_) PTUCKER_CHECK(d > 0);
}

SparseTensor::SparseTensor(std::vector<std::int64_t> dims,
                           std::vector<std::int64_t> indices,
                           std::vector<double> values)
    : dims_(std::move(dims)),
      indices_(std::move(indices)),
      values_(std::move(values)) {
  const std::size_t n_modes = dims_.size();
  for (std::size_t k = 0; k < n_modes; ++k) {
    if (dims_[k] <= 0) {
      throw std::runtime_error("SparseTensor: mode " + std::to_string(k) +
                               " has non-positive dim " +
                               std::to_string(dims_[k]));
    }
  }
  if ((n_modes == 0 && !values_.empty()) ||
      indices_.size() != values_.size() * n_modes) {
    throw std::runtime_error(
        "SparseTensor: " + std::to_string(indices_.size()) +
        " indices do not fit " + std::to_string(values_.size()) +
        " entries of order " + std::to_string(n_modes));
  }
  for (std::int64_t e = 0; e < nnz(); ++e) {
    if (IndexInBounds(index(e), dims_)) continue;
    std::size_t k = 0;
    while (index(e)[k] >= 0 && index(e)[k] < dims_[k]) ++k;
    throw std::runtime_error("SparseTensor: index " +
                             std::to_string(index(e)[k]) + " of entry " +
                             std::to_string(e) + " is outside mode " +
                             std::to_string(k) + " (dim " +
                             std::to_string(dims_[k]) + ")");
  }
}

void SparseTensor::Reserve(std::int64_t entries) {
  indices_.reserve(static_cast<std::size_t>(entries * order()));
  values_.reserve(static_cast<std::size_t>(entries));
}

void SparseTensor::AddEntry(const std::int64_t* index, double value) {
  PTUCKER_CHECK(IndexInBounds(index, dims_));
  indices_.insert(indices_.end(), index, index + order());
  values_.push_back(value);
  mode_index_built_ = false;
}

void SparseTensor::AddEntry(const std::vector<std::int64_t>& index,
                            double value) {
  PTUCKER_CHECK(static_cast<std::int64_t>(index.size()) == order());
  AddEntry(index.data(), value);
}

std::int64_t SparseTensor::RemoveEntries(const std::vector<char>& remove) {
  PTUCKER_CHECK(static_cast<std::int64_t>(remove.size()) == nnz());
  const std::int64_t n_modes = order();
  const std::int64_t entries = nnz();
  std::int64_t kept = 0;
  for (std::int64_t e = 0; e < entries; ++e) {
    if (remove[static_cast<std::size_t>(e)]) continue;
    if (kept != e) {
      for (std::int64_t m = 0; m < n_modes; ++m) {
        indices_[static_cast<std::size_t>(kept * n_modes + m)] =
            indices_[static_cast<std::size_t>(e * n_modes + m)];
      }
      values_[static_cast<std::size_t>(kept)] =
          values_[static_cast<std::size_t>(e)];
    }
    ++kept;
  }
  indices_.resize(static_cast<std::size_t>(kept * n_modes));
  values_.resize(static_cast<std::size_t>(kept));
  mode_index_built_ = false;
  return entries - kept;
}

double SparseTensor::FrobeniusNorm() const {
  double sum = 0.0;
  for (double v : values_) sum += v * v;
  return std::sqrt(sum);
}

void SparseTensor::BuildModeIndex() {
  const std::int64_t n_modes = order();
  const std::int64_t entries = nnz();
  slice_ptr_.assign(static_cast<std::size_t>(n_modes), {});
  slice_entries_.assign(static_cast<std::size_t>(n_modes), {});

  for (std::int64_t mode = 0; mode < n_modes; ++mode) {
    auto& ptr = slice_ptr_[static_cast<std::size_t>(mode)];
    auto& ids = slice_entries_[static_cast<std::size_t>(mode)];
    ptr.assign(static_cast<std::size_t>(dim(mode)) + 1, 0);
    ids.resize(static_cast<std::size_t>(entries));

    // Counting sort of entry ids by their mode coordinate.
    for (std::int64_t e = 0; e < entries; ++e) {
      ++ptr[static_cast<std::size_t>(index(e, mode)) + 1];
    }
    for (std::size_t i = 1; i < ptr.size(); ++i) ptr[i] += ptr[i - 1];
    std::vector<std::int64_t> cursor(ptr.begin(), ptr.end() - 1);
    for (std::int64_t e = 0; e < entries; ++e) {
      const std::size_t slice = static_cast<std::size_t>(index(e, mode));
      ids[static_cast<std::size_t>(cursor[slice]++)] = e;
    }
  }
  mode_index_built_ = true;
}

Span<const std::int64_t> SparseTensor::Slice(std::int64_t mode,
                                             std::int64_t i) const {
  PTUCKER_CHECK(mode_index_built_);
  const auto& ptr = slice_ptr_[static_cast<std::size_t>(mode)];
  const auto& ids = slice_entries_[static_cast<std::size_t>(mode)];
  const std::int64_t begin = ptr[static_cast<std::size_t>(i)];
  const std::int64_t end = ptr[static_cast<std::size_t>(i) + 1];
  return {ids.data() + begin, static_cast<std::size_t>(end - begin)};
}

std::int64_t SparseTensor::SliceSize(std::int64_t mode, std::int64_t i) const {
  PTUCKER_CHECK(mode_index_built_);
  const auto& ptr = slice_ptr_[static_cast<std::size_t>(mode)];
  return ptr[static_cast<std::size_t>(i) + 1] - ptr[static_cast<std::size_t>(i)];
}

std::int64_t SparseTensor::ByteSize() const {
  return static_cast<std::int64_t>(indices_.size() * sizeof(std::int64_t) +
                                   values_.size() * sizeof(double));
}

void CheckUniqueCoordinates(const SparseTensor& x, const std::string& context) {
  // Open-addressing set of entry ids, load factor <= 1/2, keyed by a
  // splitmix64 chain over the coordinate tuple.
  const std::int64_t order = x.order();
  std::size_t capacity = 2;
  while (capacity < 2 * static_cast<std::size_t>(x.nnz())) capacity <<= 1;
  std::vector<std::int64_t> slots(capacity, -1);
  for (std::int64_t e = 0; e < x.nnz(); ++e) {
    const std::int64_t* index = x.index(e);
    std::uint64_t hash = 0;
    for (std::int64_t n = 0; n < order; ++n) {
      hash = (hash ^ static_cast<std::uint64_t>(index[n])) +
             0x9E3779B97F4A7C15ULL;
      hash = (hash ^ (hash >> 30)) * 0xBF58476D1CE4E5B9ULL;
      hash = (hash ^ (hash >> 27)) * 0x94D049BB133111EBULL;
      hash ^= hash >> 31;
    }
    std::size_t slot = hash & (capacity - 1);
    for (; slots[slot] >= 0; slot = (slot + 1) & (capacity - 1)) {
      const std::int64_t other = slots[slot];
      if (!std::equal(index, index + order, x.index(other))) continue;
      std::string coordinate;
      for (std::int64_t n = 0; n < order; ++n) {
        coordinate += (n == 0 ? "" : ", ") + std::to_string(index[n]);
      }
      throw std::invalid_argument(
          context + ": tensor has duplicate coordinates (entries " +
          std::to_string(other) + " and " + std::to_string(e) +
          " share the 0-based coordinate (" + coordinate + "))");
    }
    slots[slot] = e;
  }
}

}  // namespace ptucker
