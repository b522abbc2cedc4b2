#include "tensor/sparse_tensor.h"

#include <cmath>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "data/synthetic.h"
#include "util/random.h"

namespace ptucker {
namespace {

SparseTensor MakeSmall() {
  SparseTensor t({3, 4, 2});
  t.AddEntry({0, 0, 0}, 1.0);
  t.AddEntry({1, 2, 1}, -2.0);
  t.AddEntry({2, 3, 0}, 0.5);
  t.AddEntry({1, 0, 1}, 3.0);
  return t;
}

TEST(SparseTensorTest, BasicAccessors) {
  SparseTensor t = MakeSmall();
  EXPECT_EQ(t.order(), 3);
  EXPECT_EQ(t.nnz(), 4);
  EXPECT_EQ(t.dim(0), 3);
  EXPECT_EQ(t.dim(2), 2);
  EXPECT_EQ(t.index(1, 1), 2);
  EXPECT_EQ(t.value(1), -2.0);
}

TEST(SparseTensorTest, FrobeniusNorm) {
  SparseTensor t({2, 2});
  t.AddEntry({0, 0}, 3.0);
  t.AddEntry({1, 1}, 4.0);
  EXPECT_DOUBLE_EQ(t.FrobeniusNorm(), 5.0);
}

TEST(SparseTensorTest, SetValue) {
  SparseTensor t = MakeSmall();
  t.set_value(0, 9.0);
  EXPECT_EQ(t.value(0), 9.0);
}

TEST(SparseTensorTest, ModeIndexPartitionsEntries) {
  SparseTensor t = MakeSmall();
  t.BuildModeIndex();
  for (std::int64_t mode = 0; mode < t.order(); ++mode) {
    std::int64_t total = 0;
    std::set<std::int64_t> seen;
    for (std::int64_t i = 0; i < t.dim(mode); ++i) {
      for (std::int64_t e : t.Slice(mode, i)) {
        EXPECT_EQ(t.index(e, mode), i);
        seen.insert(e);
        ++total;
      }
      EXPECT_EQ(t.SliceSize(mode, i),
                static_cast<std::int64_t>(t.Slice(mode, i).size()));
    }
    EXPECT_EQ(total, t.nnz());
    EXPECT_EQ(static_cast<std::int64_t>(seen.size()), t.nnz());
  }
}

TEST(SparseTensorTest, SliceContents) {
  SparseTensor t = MakeSmall();
  t.BuildModeIndex();
  // Mode 0, slice 1 holds entries 1 and 3.
  auto slice = t.Slice(0, 1);
  std::set<std::int64_t> ids(slice.begin(), slice.end());
  EXPECT_EQ(ids, (std::set<std::int64_t>{1, 3}));
  // Empty slice.
  SparseTensor t2({5, 5});
  t2.AddEntry({0, 0}, 1.0);
  t2.BuildModeIndex();
  EXPECT_TRUE(t2.Slice(0, 3).empty());
}

TEST(SparseTensorTest, AddEntryInvalidatesModeIndex) {
  SparseTensor t = MakeSmall();
  t.BuildModeIndex();
  EXPECT_TRUE(t.has_mode_index());
  t.AddEntry({0, 1, 1}, 4.0);
  EXPECT_FALSE(t.has_mode_index());
  t.BuildModeIndex();
  EXPECT_EQ(t.SliceSize(0, 0), 2);
}

TEST(SparseTensorTest, ByteSizeGrowsWithEntries) {
  SparseTensor t({10, 10});
  const std::int64_t empty = t.ByteSize();
  t.AddEntry({1, 1}, 1.0);
  EXPECT_GT(t.ByteSize(), empty);
}

TEST(SparseTensorDeathTest, OutOfBoundsEntryChecks) {
  SparseTensor t({2, 2});
  EXPECT_DEATH(t.AddEntry({2, 0}, 1.0), "CHECK failed");
}

// Property: the mode index is consistent on random tensors of any order.
class ModeIndexSweep : public ::testing::TestWithParam<int> {};

TEST_P(ModeIndexSweep, RandomTensorPartition) {
  const int order = GetParam();
  Rng rng(order);
  std::int64_t total = 1;
  for (int k = 0; k < order; ++k) total *= 6;
  SparseTensor t =
      UniformCubicTensor(order, 6, std::min<std::int64_t>(50, total), rng);
  for (std::int64_t mode = 0; mode < order; ++mode) {
    std::int64_t total = 0;
    for (std::int64_t i = 0; i < t.dim(mode); ++i) {
      total += t.SliceSize(mode, i);
      for (std::int64_t e : t.Slice(mode, i)) {
        ASSERT_EQ(t.index(e, mode), i);
      }
    }
    EXPECT_EQ(total, t.nnz());
  }
}

INSTANTIATE_TEST_SUITE_P(Orders, ModeIndexSweep,
                         ::testing::Values(1, 2, 3, 4, 5, 6));

TEST(SparseTensorTest, RemoveEntriesCompactsInOrder) {
  SparseTensor t = MakeSmall();
  t.BuildModeIndex();
  // Drop entries 1 and 3; survivors keep their relative order with ids
  // shifted down.
  const std::vector<char> remove = {0, 1, 0, 1};
  EXPECT_EQ(t.RemoveEntries(remove), 2);
  ASSERT_EQ(t.nnz(), 2);
  EXPECT_EQ(t.value(0), 1.0);
  EXPECT_EQ(t.index(0, 0), 0);
  EXPECT_EQ(t.value(1), 0.5);
  EXPECT_EQ(t.index(1, 0), 2);
  // The mode index is invalidated, and rebuilding it sees only the
  // survivors.
  EXPECT_FALSE(t.has_mode_index());
  t.BuildModeIndex();
  EXPECT_EQ(t.SliceSize(0, 1), 0);  // both mode-0=1 entries removed
  EXPECT_EQ(t.SliceSize(0, 2), 1);
}

TEST(SparseTensorTest, RemoveEntriesEdgeCases) {
  SparseTensor t = MakeSmall();
  EXPECT_EQ(t.RemoveEntries(std::vector<char>(4, 0)), 0);  // no-op
  EXPECT_EQ(t.nnz(), 4);
  EXPECT_EQ(t.RemoveEntries(std::vector<char>(4, 1)), 4);  // remove all
  EXPECT_EQ(t.nnz(), 0);
}

TEST(SparseTensorTest, AdoptingConstructorChecksItsInput) {
  const SparseTensor t({2, 3}, {0, 2, 1, 0}, {1.5, -2.0});
  EXPECT_EQ(t.nnz(), 2);
  EXPECT_EQ(t.index(1, 0), 1);
  EXPECT_EQ(t.value(1), -2.0);
  EXPECT_EQ(SparseTensor({2, 3}, {}, {}).nnz(), 0);
  // Each fault is a named std::runtime_error, not an abort.
  EXPECT_THROW(SparseTensor({2, 0}, {}, {}), std::runtime_error);
  EXPECT_THROW(SparseTensor({2, 3}, {0, 2, 1}, {1.5, -2.0}),
               std::runtime_error);
  EXPECT_THROW(SparseTensor({}, {}, {1.0}), std::runtime_error);
  EXPECT_THROW(SparseTensor({2, 3}, {0, 2, 1, 3}, {1.5, -2.0}),
               std::runtime_error);
  EXPECT_THROW(SparseTensor({2, 3}, {0, 2, -1, 0}, {1.5, -2.0}),
               std::runtime_error);
}

TEST(SparseTensorTest, CheckUniqueCoordinatesNamesTheRepeat) {
  SparseTensor t = MakeSmall();
  EXPECT_NO_THROW(CheckUniqueCoordinates(t, "test"));
  EXPECT_NO_THROW(CheckUniqueCoordinates(SparseTensor({2, 3}), "test"));
  const std::vector<std::int64_t> repeat(t.index(1), t.index(1) + t.order());
  t.AddEntry(repeat, 9.0);
  try {
    CheckUniqueCoordinates(t, "test");
    FAIL() << "duplicate coordinates were accepted";
  } catch (const std::invalid_argument& e) {
    const std::string want =
        "test: tensor has duplicate coordinates (entries 1 and " +
        std::to_string(t.nnz() - 1) + " share the 0-based coordinate";
    EXPECT_NE(std::string(e.what()).find(want), std::string::npos)
        << e.what();
  }
}

TEST(SparseTensorTest, CheckUniqueCoordinatesHoldsPastInt64Linearization) {
  // Ten modes of 2^40: a linearized key would need 400 bits. Entries that
  // agree on every coordinate but one are still told apart, and a true
  // repeat is still found.
  const std::int64_t wide = std::int64_t{1} << 40;
  SparseTensor t(std::vector<std::int64_t>(10, wide));
  std::vector<std::int64_t> index(10, wide - 1);
  for (std::int64_t n = 0; n < 10; ++n) {
    index[static_cast<std::size_t>(n)] = n;
    t.AddEntry(index, 1.0);
    index[static_cast<std::size_t>(n)] = wide - 1;
  }
  EXPECT_NO_THROW(CheckUniqueCoordinates(t, "wide"));
  index[3] = 3;
  t.AddEntry(index, 2.0);
  EXPECT_THROW(CheckUniqueCoordinates(t, "wide"), std::invalid_argument);
}

TEST(SparseTensorDeathTest, RemoveEntriesFlagCountMustMatchNnz) {
  SparseTensor t = MakeSmall();
  EXPECT_DEATH(t.RemoveEntries(std::vector<char>(3, 0)), "CHECK failed");
}

}  // namespace
}  // namespace ptucker
