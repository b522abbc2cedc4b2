#include "tensor/io.h"

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "data/synthetic.h"
#include "util/random.h"

namespace ptucker {
namespace {

std::string TempPath(const std::string& name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

TEST(TnsParseTest, BasicContent) {
  const std::string content =
      "# a comment\n"
      "1 1 1 1.5\n"
      "\n"
      "2 3 1 -2.0\n";
  SparseTensor t = ParseTns(content);
  EXPECT_EQ(t.order(), 3);
  EXPECT_EQ(t.nnz(), 2);
  EXPECT_EQ(t.dim(0), 2);
  EXPECT_EQ(t.dim(1), 3);
  EXPECT_EQ(t.dim(2), 1);
  EXPECT_EQ(t.index(1, 1), 2);  // 1-based on disk -> 0-based in memory
  EXPECT_EQ(t.value(0), 1.5);
}

TEST(TnsParseTest, ExplicitDims) {
  SparseTensor t = ParseTns("1 1 0.5\n", {10, 20});
  EXPECT_EQ(t.dim(0), 10);
  EXPECT_EQ(t.dim(1), 20);
}

TEST(TnsParseTest, RejectsOutOfBoundsForExplicitDims) {
  EXPECT_THROW(ParseTns("5 1 0.5\n", {4, 4}), std::runtime_error);
}

TEST(TnsParseTest, RejectsNonNumeric) {
  EXPECT_THROW(ParseTns("1 abc 0.5\n"), std::runtime_error);
}

TEST(TnsParseTest, RejectsZeroIndex) {
  EXPECT_THROW(ParseTns("0 1 0.5\n"), std::runtime_error);
}

TEST(TnsParseTest, RejectsFractionalIndex) {
  EXPECT_THROW(ParseTns("1.5 1 0.5\n"), std::runtime_error);
}

TEST(TnsParseTest, RejectsIndexOutsideTheExactDoubleRange) {
  // 1e300 cannot be cast to int64 without undefined behaviour; the parser
  // must range-check the token first and name the line.
  try {
    ParseTns("1 1 0.5\n1e300 1 0.5\n");
    FAIL() << "expected a parse error";
  } catch (const std::runtime_error& error) {
    EXPECT_NE(std::string(error.what()).find("line 2"), std::string::npos)
        << error.what();
  }
  EXPECT_THROW(ParseTns("9007199254740994 1 0.5\n"), std::runtime_error);
  EXPECT_THROW(ParseTns("-1e300 1 0.5\n"), std::runtime_error);
  // 2^53 itself passes the range check and reaches the explicit dims'
  // bounds check.
  EXPECT_THROW(ParseTns("9007199254740992 1 0.5\n", {4, 4}),
               std::runtime_error);
}

TEST(TnsParseTest, RejectsInferredDimAboveTheBudget) {
  // One huge index with inferred dims used to size a 10^14-row mode and
  // die in std::bad_alloc; now it is a named parse error.
  try {
    ParseTns("99999999999999 1 1 0.5\n");
    FAIL() << "expected a parse error";
  } catch (const std::runtime_error& error) {
    EXPECT_NE(std::string(error.what()).find("kMaxInferredTnsDim"),
              std::string::npos)
        << error.what();
  }
  // A dim of exactly the budget is still inferred (constructing the
  // tensor allocates nothing per row).
  const SparseTensor at_budget =
      ParseTns(std::to_string(kMaxInferredTnsDim) + " 1 0.5\n");
  EXPECT_EQ(at_budget.dim(0), kMaxInferredTnsDim);
}

TEST(TnsParseTest, RejectsInconsistentOrder) {
  EXPECT_THROW(ParseTns("1 1 0.5\n1 1 1 0.5\n"), std::runtime_error);
}

TEST(TnsParseTest, RejectsValueOnlyLine) {
  EXPECT_THROW(ParseTns("0.5\n"), std::runtime_error);
}

TEST(TnsParseTest, EmptyContentWithoutDimsThrows) {
  EXPECT_THROW(ParseTns("# nothing\n"), std::runtime_error);
}

TEST(TnsRoundTripTest, FormatThenParse) {
  Rng rng(1);
  SparseTensor original = UniformSparseTensor({5, 7, 3}, 20, rng);
  SparseTensor parsed = ParseTns(FormatTns(original), original.dims());
  ASSERT_EQ(parsed.nnz(), original.nnz());
  for (std::int64_t e = 0; e < original.nnz(); ++e) {
    for (std::int64_t k = 0; k < 3; ++k) {
      EXPECT_EQ(parsed.index(e, k), original.index(e, k));
    }
    EXPECT_DOUBLE_EQ(parsed.value(e), original.value(e));
  }
}

TEST(TnsFileTest, WriteAndReadBack) {
  Rng rng(2);
  SparseTensor original = UniformSparseTensor({4, 4, 4}, 10, rng);
  const std::string path = TempPath("ptucker_io_test.tns");
  WriteTns(path, original);
  SparseTensor loaded = ReadTns(path, original.dims());
  EXPECT_EQ(loaded.nnz(), original.nnz());
  std::remove(path.c_str());
}

TEST(TnsFileTest, MissingFileThrows) {
  EXPECT_THROW(ReadTns(TempPath("does_not_exist_ptucker.tns")),
               std::runtime_error);
}

std::uint64_t Bits(double value) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &value, sizeof(bits));
  return bits;
}

void WriteFile(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::binary);
  out << content;
}

// Every index and value bit of `actual` equals `expected`'s.
void ExpectSameTensor(const SparseTensor& actual, const SparseTensor& expected) {
  ASSERT_EQ(actual.dims(), expected.dims());
  ASSERT_EQ(actual.nnz(), expected.nnz());
  for (std::int64_t e = 0; e < expected.nnz(); ++e) {
    for (std::int64_t k = 0; k < expected.order(); ++k) {
      EXPECT_EQ(actual.index(e, k), expected.index(e, k));
    }
    EXPECT_EQ(Bits(actual.value(e)), Bits(expected.value(e))) << "entry " << e;
  }
}

// Each token as a value ("1 1 TOKEN ") and as an index ("TOKEN 1 0.5"),
// with the outcome the std::istream operator>> reader gave for it. A value
// that ends its line must give the same outcome; that reader dropped a
// malformed one there instead (MalformedLastTokenIsRejectedNotDropped).
TEST(TnsParseTest, TokensParseAsStreamExtractionDid) {
  struct Case {
    const char* token;
    bool value_ok;
    double value;
    bool index_ok;
    std::int64_t index;  // 0-based
  };
  const Case cases[] = {
      {"+0.5", true, 0.5, false, 0},
      {"1e-400", true, 0.0, false, 0},   // underflow reads as zero
      {"-1e-400", true, -0.0, false, 0},
      {"4e-320", true, 4e-320, false, 0},  // subnormal, kept exactly
      {"inf", false, 0, false, 0},
      {"nan", false, 0, false, 0},
      {"-inf", false, 0, false, 0},
      {"+inf", false, 0, false, 0},
      {"0x10", false, 0, false, 0},
      {"1e", false, 0, false, 0},
      {"1e+", false, 0, false, 0},
      {"+-1", false, 0, false, 0},
      {"-+1", false, 0, false, 0},
      {"1e400", false, 0, false, 0},  // overflow
      {"-1e400", false, 0, false, 0},
      {"-0", true, -0.0, false, 0},
      {"00012", true, 12.0, true, 11},
      {".5", true, 0.5, false, 0},
      {"5.", true, 5.0, true, 4},
      {"+.5", true, 0.5, false, 0},
      {"1.e5", true, 1e5, true, 99999},
      {"1E2", true, 100.0, true, 99},
      {"2.0", true, 2.0, true, 1},
      {".", false, 0, false, 0},
      {"-", false, 0, false, 0},
      {"+", false, 0, false, 0},
      {"1.5.5", false, 0, false, 0},
      {"0.1", true, 0.1, false, 0},
      {"-3.25e-2", true, -3.25e-2, false, 0},
      {"123456789012345678", true, 123456789012345678.0, false, 0},
      {"0.000000000000000000000000000001e-300", true, 0.0, false, 0},
      {"-100000000000000000000000e-420", true, -0.0, false, 0},
      {"0.0001e312", true, 1e308, false, 0},
      {"1000e306", false, 0, false, 0},
      {"1e-99999999999999999999", true, 0.0, false, 0},
      {"1e99999999999999999999", false, 0, false, 0},
  };
  for (const Case& c : cases) {
    const std::string token = c.token;
    for (const std::string& as_value :
         {"1 1 " + token + " \n", "1 1 " + token + "\n"}) {
      if (c.value_ok) {
        const SparseTensor t = ParseTns(as_value);
        EXPECT_EQ(t.order(), 2) << as_value;
        EXPECT_EQ(Bits(t.value(0)), Bits(c.value)) << as_value;
      } else {
        EXPECT_THROW(ParseTns(as_value), std::runtime_error) << as_value;
      }
    }
    const std::string as_index = token + " 1 0.5\n";
    if (c.index_ok) {
      EXPECT_EQ(ParseTns(as_index).index(0, 0), c.index) << token;
    } else {
      EXPECT_THROW(ParseTns(as_index), std::runtime_error) << token;
    }
  }
}

TEST(TnsParseTest, MalformedLastTokenIsRejectedNotDropped) {
  // operator>> hit the end of the line inside these tokens and reported
  // end-of-file, so the old reader dropped them: "1 1 1e400" became a
  // one-index entry of value 1. Each is a parse error now.
  for (const char* line : {"1 1 1e400", "1 1 1e", "1 1 1e+", "1 1 -", "1 1 ."}) {
    EXPECT_THROW(ParseTns(std::string(line) + "\n"), std::runtime_error)
        << line;
    EXPECT_THROW(ParseTns(line), std::runtime_error) << line;
  }
  // Tokens are whitespace-delimited: "2-3" is one (bad) token, not two.
  EXPECT_THROW(ParseTns("1 2-3\n"), std::runtime_error);
}

TEST(TnsParseTest, AnyWhitespaceSeparatesTokens) {
  const SparseTensor expected = ParseTns("1 2 0.5\n2 1 1.5\n");
  ExpectSameTensor(ParseTns("1 2 0.5\r\n2 1 1.5\r\n"), expected);
  ExpectSameTensor(ParseTns("1\t2\t0.5\n\t2  1\t 1.5\t\n"), expected);
  ExpectSameTensor(ParseTns("1\v2\f0.5\n\f2\v1 1.5\v\n"), expected);
  ExpectSameTensor(ParseTns("  # leading spaces\n1 2 0.5\n\t# tab\n"
                            "\r# carriage return\n2 1 1.5\n  \t\r\n"),
                   expected);
  // Only ' ', '\t' and '\r' may precede a comment's '#'; a line that is
  // not blank by that rule but has no token is an error, as before.
  EXPECT_THROW(ParseTns("\v# comment\n1 2 0.5\n"), std::runtime_error);
  EXPECT_THROW(ParseTns("1 2 0.5\n\v\n"), std::runtime_error);
  // A comment marker after a token is a non-numeric token.
  EXPECT_THROW(ParseTns("1 2 0.5 # trailing\n"), std::runtime_error);
}

TEST(TnsParseTest, LastLineWithoutNewline) {
  const SparseTensor t = ParseTns("1 1 0.5\n2 3 1.5");
  ASSERT_EQ(t.nnz(), 2);
  EXPECT_EQ(t.index(1, 1), 2);
  EXPECT_EQ(t.value(1), 1.5);
}

TEST(TnsParseTest, ErrorsNameTheLine) {
  const auto message = [](const std::string& content,
                          const std::vector<std::int64_t>& dims) {
    try {
      ParseTns(content, dims);
    } catch (const std::runtime_error& error) {
      return std::string(error.what());
    }
    return std::string("no error");
  };
  const std::string head = "# header\n1 1 0.5\n\n";
  EXPECT_NE(message(head + "1 x 0.5\n", {}).find("line 4"), std::string::npos);
  EXPECT_NE(message(head + "0 1 0.5\n", {}).find("line 4"), std::string::npos);
  EXPECT_NE(message(head + "1.5 1 0.5\n", {}).find("line 4"),
            std::string::npos);
  EXPECT_NE(message(head + "1 1 1 0.5\n", {}).find("line 4"),
            std::string::npos);
  EXPECT_NE(message(head + "0.5\n", {}).find("line 4"), std::string::npos);
  EXPECT_NE(message(head + "5 1 0.5\n", {4, 4}).find("line 4"),
            std::string::npos);
  EXPECT_NE(message(head, {4, 4, 4}).find("line 2"), std::string::npos);
}

TEST(TnsParseTest, ExplicitDimsMustBePositive) {
  EXPECT_THROW(ParseTns("# empty\n", {4, 0}), std::runtime_error);
}

TEST(TnsRoundTripTest, HundredThousandEntriesBitExact) {
  Rng rng(11);
  SparseTensor tensor = UniformSparseTensor({1000, 700, 30}, 100000, rng);
  const double specials[] = {-0.0,
                             0.0,
                             std::numeric_limits<double>::denorm_min(),
                             -std::numeric_limits<double>::denorm_min(),
                             2.2250738585072009e-308,  // largest subnormal
                             4e-320,
                             std::numeric_limits<double>::min(),
                             std::numeric_limits<double>::max(),
                             -std::numeric_limits<double>::max(),
                             1e300,
                             0.1,
                             -123456.789};
  for (std::size_t i = 0; i < std::size(specials); ++i) {
    tensor.set_value(static_cast<std::int64_t>(i * 997), specials[i]);
  }
  const std::string text = FormatTns(tensor);
  ExpectSameTensor(ParseTns(text, tensor.dims()), tensor);

  const std::string path = TempPath("ptucker_io_roundtrip.tns");
  WriteTns(path, tensor);
  ExpectSameTensor(ReadTns(path, tensor.dims()), tensor);
  std::remove(path.c_str());
}

TEST(TnsFileTest, LinesStraddlingReadBlocks) {
  // ReadTns reads 1 MiB blocks. Pad the file with a comment so a data line
  // straddles the first block boundary, or ends right at it, or so that
  // one line is longer than a block.
  constexpr std::size_t kBlock = std::size_t{1} << 20;
  Rng rng(12);
  const SparseTensor tensor = UniformSparseTensor({50, 40, 30}, 60000, rng);
  const std::string body = FormatTns(tensor);
  const std::size_t first_line = body.find('\n') + 1;
  const std::string path = TempPath("ptucker_io_blocks.tns");
  for (const std::size_t pad :
       {kBlock - 5, kBlock - first_line - 3, kBlock - first_line - 2,
        kBlock - first_line - 1, kBlock - first_line, kBlock + 123,
        3 * kBlock}) {
    const std::string content = "#" + std::string(pad - 2, 'x') + "\n" + body;
    WriteFile(path, content);
    SCOPED_TRACE(pad);
    ExpectSameTensor(ReadTns(path, tensor.dims()), tensor);
    // The same content without its final newline.
    WriteFile(path, content.substr(0, content.size() - 1));
    ExpectSameTensor(ReadTns(path, tensor.dims()), tensor);
  }
  // The error line number counts lines across blocks.
  WriteFile(path, "#" + std::string(kBlock, 'x') + "\n" + body + "1 1\n");
  try {
    ReadTns(path, tensor.dims());
    FAIL() << "expected a parse error";
  } catch (const std::runtime_error& error) {
    const std::string line =
        "line " + std::to_string(tensor.nnz() + 2) + ":";
    EXPECT_NE(std::string(error.what()).find(line), std::string::npos)
        << error.what();
  }
  std::remove(path.c_str());
}

TEST(TnsFileTest, ByteFlipAndTruncationSweep) {
  // Each corrupted input either loads or throws std::runtime_error.
  const std::string valid =
      "# sweep\n1 2 3 0.5\n2 1 3 -1.25e-3\r\n3 3 1 7\n\n2 2 2 +.5\n1 1 1 4e-320";
  const char replacements[] = {'\0', ' ', '\t', '\n', '\r', '\v', '#', '-',
                               '+',  '.', 'e',  'x',  '0',  '9',  '\xff'};
  std::int64_t loaded = 0;
  std::int64_t rejected = 0;
  const auto attempt = [&](const std::string& content) {
    for (const bool explicit_dims : {false, true}) {
      try {
        const std::vector<std::int64_t> dims =
            explicit_dims ? std::vector<std::int64_t>{3, 3, 3}
                          : std::vector<std::int64_t>{};
        ParseTns(content, dims);
        ++loaded;
      } catch (const std::runtime_error&) {
        ++rejected;
      }
    }
  };
  for (std::size_t i = 0; i < valid.size(); ++i) {
    for (const char c : replacements) {
      std::string flipped = valid;
      flipped[i] = c;
      attempt(flipped);
    }
    attempt(valid.substr(0, i));
  }
  EXPECT_GT(loaded, 0);
  EXPECT_GT(rejected, 0);

  const std::string path = TempPath("ptucker_io_sweep.tns");
  for (std::size_t i = 0; i <= valid.size(); ++i) {
    WriteFile(path, valid.substr(0, i));
    try {
      ReadTns(path);
    } catch (const std::runtime_error&) {
    }
  }
  std::remove(path.c_str());
}

TEST(BinaryIoTest, RoundTripExact) {
  Rng rng(3);
  SparseTensor original = UniformSparseTensor({9, 5, 6, 2}, 40, rng);
  const std::string path = TempPath("ptucker_io_test.ptnb");
  WriteBinary(path, original);
  SparseTensor loaded = ReadBinary(path);
  ASSERT_EQ(loaded.dims(), original.dims());
  ASSERT_EQ(loaded.nnz(), original.nnz());
  for (std::int64_t e = 0; e < original.nnz(); ++e) {
    EXPECT_EQ(loaded.value(e), original.value(e));  // bit-exact
    for (std::int64_t k = 0; k < 4; ++k) {
      EXPECT_EQ(loaded.index(e, k), original.index(e, k));
    }
  }
  std::remove(path.c_str());
}

TEST(BinaryIoTest, BadMagicThrows) {
  const std::string path = TempPath("ptucker_bad_magic.ptnb");
  FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  std::fputs("NOPE garbage", f);
  std::fclose(f);
  EXPECT_THROW(ReadBinary(path), std::runtime_error);
  std::remove(path.c_str());
}

TEST(BinaryIoTest, TruncatedFileThrows) {
  Rng rng(4);
  SparseTensor original = UniformSparseTensor({5, 5}, 10, rng);
  const std::string path = TempPath("ptucker_truncated.ptnb");
  WriteBinary(path, original);
  // Truncate the file to half.
  const auto size = std::filesystem::file_size(path);
  std::filesystem::resize_file(path, size / 2);
  EXPECT_THROW(ReadBinary(path), std::runtime_error);
  std::remove(path.c_str());
}

// A PTNB file from raw little-endian words after the magic.
std::string WritePtnb(const std::string& name,
                      const std::vector<std::int64_t>& words) {
  const std::string path = TempPath(name);
  std::ofstream out(path, std::ios::binary);
  out.write("PTNB", 4);
  out.write(reinterpret_cast<const char*>(words.data()),
            static_cast<std::streamsize>(words.size() * sizeof(words[0])));
  return path;
}

void ExpectNamedBinaryError(const std::string& path, const std::string& what) {
  try {
    ReadBinary(path);
    FAIL() << "expected an error for " << what;
  } catch (const std::runtime_error& error) {
    EXPECT_NE(std::string(error.what()).find(path), std::string::npos)
        << error.what();
  }
  std::remove(path.c_str());
}

TEST(BinaryIoTest, HostileHeadersFailWithNamedErrors) {
  const std::int64_t half = 0x3fe0000000000000;  // the bits of 0.5
  // order 2, dims {3, 3}, one entry whose index is its dim.
  ExpectNamedBinaryError(
      WritePtnb("ptucker_index_past_dim.ptnb", {2, 3, 3, 1, 3, 0, half}),
      "an index >= its dim");
  ExpectNamedBinaryError(
      WritePtnb("ptucker_negative_index.ptnb", {2, 3, 3, 1, -1, 0, half}),
      "a negative index");
  ExpectNamedBinaryError(
      WritePtnb("ptucker_zero_dim.ptnb", {2, 3, 0, 0}), "a dim of 0");
  ExpectNamedBinaryError(
      WritePtnb("ptucker_huge_count.ptnb",
                {2, 3, 3, std::int64_t{1} << 61, 0, 0, half}),
      "2^61 entries");
  ExpectNamedBinaryError(
      WritePtnb("ptucker_short_entries.ptnb", {2, 3, 3, 2, 0, 0, half}),
      "fewer entries than promised");
}

TEST(BinaryIoTest, ByteFlipAndTruncationSweep) {
  Rng rng(13);
  const SparseTensor original = UniformSparseTensor({3, 4, 2}, 6, rng);
  const std::string path = TempPath("ptucker_io_sweep.ptnb");
  WriteBinary(path, original);
  std::string valid;
  {
    std::ifstream in(path, std::ios::binary);
    valid.assign(std::istreambuf_iterator<char>(in), {});
  }
  for (std::size_t i = 0; i < valid.size(); ++i) {
    for (const int mask : {0x01, 0x40, 0x80}) {
      std::string flipped = valid;
      flipped[i] = static_cast<char>(flipped[i] ^ mask);
      WriteFile(path, flipped);
      try {
        ReadBinary(path);
      } catch (const std::runtime_error&) {
      }
    }
    WriteFile(path, valid.substr(0, i));
    EXPECT_THROW(ReadBinary(path), std::runtime_error) << i;
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace ptucker
