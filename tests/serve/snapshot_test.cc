// Model-level snapshot tests: LoadSnapshot round trips of fitted models,
// rejection of corrupt files by the owning-model loader, the writer's
// consistency checks, and warm-start trajectory continuation through
// PTuckerOptions::init_snapshot. Format-level checks (every-offset
// corruption sweeps, hostile headers, IVF sections) live in
// snapshot_v2_test.cc.
#include "serve/snapshot_v2.h"

#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>

#include <gtest/gtest.h>

#include "core/ptucker.h"
#include "data/synthetic.h"
#include "util/random.h"

namespace ptucker {
namespace {

SparseTensor MakeTensor(std::uint64_t seed = 7) {
  Rng rng(seed);
  return UniformSparseTensor({20, 15, 12}, 900, rng);
}

TuckerFactorization TrainModel(const SparseTensor& x, int iterations,
                               bool orthogonalize = true) {
  PTuckerOptions options;
  options.core_dims = {3, 4, 2};
  options.max_iterations = iterations;
  options.tolerance = 0.0;
  options.orthogonalize_output = orthogonalize;
  return PTuckerDecompose(x, options).model;
}

std::string TempPath(const char* name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

void ExpectBitIdentical(const TuckerFactorization& a,
                        const TuckerFactorization& b) {
  ASSERT_EQ(a.factors.size(), b.factors.size());
  for (std::size_t n = 0; n < a.factors.size(); ++n) {
    ASSERT_TRUE(a.factors[n].SameShape(b.factors[n]));
    EXPECT_EQ(a.factors[n].MaxAbsDiff(b.factors[n]), 0.0) << "factor " << n;
  }
  ASSERT_EQ(a.core.dims(), b.core.dims());
  EXPECT_EQ(MaxAbsDiff(a.core, b.core), 0.0);
}

TEST(SnapshotTest, FileRoundTripIsBitIdentical) {
  const SparseTensor x = MakeTensor();
  const TuckerFactorization model = TrainModel(x, 3);
  const std::string path = TempPath("snapshot_test_rt.ptks");
  for (const bool with_centroids : {false, true}) {
    SaveSnapshotV2(path, model, with_centroids);
    ExpectBitIdentical(model, LoadSnapshot(path));
  }
  std::filesystem::remove(path);
}

TEST(SnapshotTest, StoresOnlyCoreNonzeros) {
  const SparseTensor x = MakeTensor();
  TuckerFactorization model = TrainModel(x, 2, /*orthogonalize=*/false);
  // Sparsify the core the way P-TUCKER-APPROX truncation does; the
  // snapshot must round-trip the zeros and shrink with them.
  const std::string dense_bytes = SerializeSnapshotV2(model, nullptr);
  for (std::int64_t i = 0; i < model.core.size(); i += 2) model.core[i] = 0.0;
  const std::string sparse_bytes = SerializeSnapshotV2(model, nullptr);
  EXPECT_LT(sparse_bytes.size(), dense_bytes.size());

  const std::string path = TempPath("snapshot_test_sparse.ptks");
  SaveSnapshotV2(path, model, /*with_centroids=*/false);
  EXPECT_EQ(MmapSnapshot::Open(path)->core_nnz(), model.core.CountNonZeros());
  ExpectBitIdentical(model, LoadSnapshot(path));
  std::filesystem::remove(path);
}

// LoadSnapshot copies every byte into an owning model, so it verifies the
// payload CRC: a flipped bit in a factor value must fail loudly, naming
// the file, instead of warm-starting from a silently wrong model.
TEST(SnapshotTest, LoadRejectsCorruptFactorPayload) {
  const TuckerFactorization model = TrainModel(MakeTensor(), 1);
  std::string bytes = SerializeSnapshotV2(model, nullptr);
  std::uint64_t payload_offset = 0;  // factor 0 starts the payload
  std::memcpy(&payload_offset, bytes.data() + 40, sizeof(payload_offset));
  bytes[static_cast<std::size_t>(payload_offset) + 3] ^= 0x01;
  const std::string path = TempPath("snapshot_test_corrupt.ptks");
  {
    std::ofstream out(path, std::ios::binary);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
  try {
    LoadSnapshot(path);
    FAIL() << "corrupt factor payload not rejected";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find(path), std::string::npos) << what;
    EXPECT_NE(what.find("payload CRC"), std::string::npos) << what;
  }
  std::filesystem::remove(path);
}

// The warm-start contract: checkpoint after k iterations (no
// orthogonalization), resume through init_snapshot, and the resumed run
// reproduces the straight run's remaining iterations bit-for-bit —
// row-wise ALS is deterministic in the (factors, core) state.
TEST(SnapshotTest, WarmStartContinuesTrajectoryBitIdentically) {
  const SparseTensor x = MakeTensor(21);
  PTuckerOptions options;
  options.core_dims = {3, 3, 3};
  options.tolerance = 0.0;
  options.orthogonalize_output = false;

  options.max_iterations = 6;
  const PTuckerResult straight = PTuckerDecompose(x, options);

  options.max_iterations = 3;
  const PTuckerResult half = PTuckerDecompose(x, options);
  const std::string path = TempPath("snapshot_test_warm.ptks");
  SaveSnapshotV2(path, half.model, /*with_centroids=*/false);
  const TuckerFactorization checkpoint = LoadSnapshot(path);
  std::filesystem::remove(path);

  options.init_snapshot = &checkpoint;
  const PTuckerResult resumed = PTuckerDecompose(x, options);

  ASSERT_EQ(straight.iterations.size(), 6u);
  ASSERT_EQ(resumed.iterations.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(resumed.iterations[i].error, straight.iterations[i + 3].error)
        << "iteration " << i;
  }
  EXPECT_EQ(resumed.final_error, straight.final_error);
  ExpectBitIdentical(resumed.model, straight.model);
}

TEST(SnapshotTest, WarmStartShapeMismatchThrows) {
  const SparseTensor x = MakeTensor();
  const TuckerFactorization model = TrainModel(x, 1);  // ranks {3,4,2}
  PTuckerOptions options;
  options.core_dims = {3, 4, 3};  // mode-2 rank disagrees
  options.init_snapshot = &model;
  EXPECT_THROW(PTuckerDecompose(x, options), std::invalid_argument);

  Rng rng(3);
  const SparseTensor other = UniformSparseTensor({9, 15, 12}, 200, rng);
  options.core_dims = {3, 4, 2};
  EXPECT_THROW(PTuckerDecompose(other, options), std::invalid_argument);
}

TEST(SnapshotTest, SerializeRejectsInconsistentModel) {
  const TuckerFactorization trained = TrainModel(MakeTensor(), 1);
  {
    TuckerFactorization model = trained;
    model.factors.pop_back();  // factor count != core order
    EXPECT_THROW(SerializeSnapshotV2(model, nullptr), std::runtime_error);
  }
  {
    TuckerFactorization model = trained;
    model.factors[1] = Matrix(15, 3);  // cols != core rank 4
    EXPECT_THROW(SerializeSnapshotV2(model, nullptr), std::runtime_error);
  }
}

}  // namespace
}  // namespace ptucker
