#include "tensor/io.h"

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <system_error>

#include "tensor/dense_tensor.h"

namespace ptucker {

namespace {

// ReadTns and ReadBinary read their files in blocks of this many bytes;
// only a `.tns` line longer than a block makes ReadTns's buffer grow.
constexpr std::size_t kBlockBytes = std::size_t{1} << 20;

[[noreturn]] void ThrowParse(std::int64_t line_number,
                             const std::string& detail) {
  throw std::runtime_error("tns parse error at line " +
                           std::to_string(line_number) + ": " + detail);
}

// The C locale's isspace set, which separated tokens under operator>>.
bool IsSpace(char c) { return c == ' ' || (c >= '\t' && c <= '\r'); }

bool IsDigit(char c) { return c >= '0' && c <= '9'; }

// For a decimal token from_chars found out of range: true if it is below
// the smallest subnormal (its decimal exponent is negative), false if it is
// above the largest double. `p` starts at the first digit or '.'.
bool Underflows(const char* p, const char* last) {
  std::int64_t exponent = 0;  // of the leading nonzero digit
  bool leading = false;       // the leading nonzero digit has been seen
  bool fraction = false;
  for (; p != last && *p != 'e' && *p != 'E'; ++p) {
    if (*p == '.') {
      fraction = true;
    } else if (!fraction) {
      if (leading) {
        ++exponent;
      } else {
        leading = *p != '0';
      }
    } else if (!leading) {
      --exponent;
      leading = *p != '0';
    }
  }
  if (p != last) {  // the exponent field; from_chars read all of it
    ++p;
    const bool negative = *p == '-';
    if (*p == '+' || *p == '-') ++p;
    std::int64_t field = 0;
    for (; p != last; ++p) {
      field = std::min<std::int64_t>(10 * field + (*p - '0'), 1 << 30);
    }
    exponent += negative ? -field : field;
  }
  return exponent < 0;
}

// Reads one whitespace-delimited token [first, last) as libstdc++'s
// operator>> reads a double, bit for bit: decimal only (no inf, nan or hex),
// an optional leading '+', a value below the smallest subnormal reads as a
// signed zero and one above the largest double is rejected. Returns false
// if the token is not a number.
bool ParseNumber(const char* first, const char* last, double* value) {
  // Fast path for plain integers such as indices: up to 15 digits are
  // exact in a double.
  if (last - first <= 15) {
    std::int64_t integer = 0;
    const char* p = first;
    for (; p != last && IsDigit(*p); ++p) integer = 10 * integer + (*p - '0');
    if (p == last) {
      *value = static_cast<double>(integer);
      return true;
    }
  }
  const bool plus = *first == '+';
  const char* body = (plus || *first == '-') ? first + 1 : first;
  if (body == last || !(IsDigit(*body) || *body == '.')) return false;
  const auto [end, error] =
      std::from_chars(plus ? body : first, last, *value);
  if (end != last) return false;
  if (error == std::errc::result_out_of_range) {
    if (!Underflows(body, last)) return false;
    *value = *first == '-' ? -0.0 : 0.0;
    return true;
  }
  return error == std::errc();
}

// Parses `.tns` text handed to it in runs of whole lines into the flat
// index and value arrays a SparseTensor adopts. One scanner serves both
// ParseTns (one run) and ReadTns (one run per block).
class TnsScanner {
 public:
  explicit TnsScanner(const std::vector<std::int64_t>& dims) : dims_(dims) {}

  // Parses [begin, end), which holds whole lines; only the last line of
  // the input may lack its '\n'.
  void Scan(const char* begin, const char* end) {
    while (begin != end) {
      const char* newline = static_cast<const char*>(
          std::memchr(begin, '\n', static_cast<std::size_t>(end - begin)));
      const char* line_end = newline == nullptr ? end : newline;
      ++line_;
      ParseLine(begin, line_end);
      begin = newline == nullptr ? end : newline + 1;
    }
  }

  SparseTensor Finish() && {
    if (order_ == 0 && dims_.empty()) {
      throw std::runtime_error("tns parse error: no entries and no dims given");
    }
    std::vector<std::int64_t> dims = dims_.empty() ? inferred_ : dims_;
    return SparseTensor(std::move(dims), std::move(indices_),
                        std::move(values_));
  }

 private:
  void ParseLine(const char* p, const char* end) {
    while (p != end && (*p == ' ' || *p == '\t' || *p == '\r')) ++p;
    if (p == end || *p == '#') return;  // blank line or comment

    // Every token first, so a non-numeric token anywhere on the line is
    // the error reported.
    tokens_.clear();
    for (;;) {
      while (p != end && IsSpace(*p)) ++p;
      if (p == end) break;
      const char* token = p;
      while (p != end && !IsSpace(*p)) ++p;
      double value = 0.0;
      if (!ParseNumber(token, p, &value)) {
        ThrowParse(line_, "non-numeric token");
      }
      tokens_.push_back(value);
    }
    if (tokens_.size() < 2) {
      ThrowParse(line_, "expected at least one index and a value");
    }

    const std::size_t order = tokens_.size() - 1;
    for (std::size_t k = 0; k < order; ++k) {
      const double raw = tokens_[k];
      // Range first: casting a double outside int64 (or NaN) is undefined.
      if (!(raw >= 1.0 && raw <= static_cast<double>(kMaxTnsIndex))) {
        ThrowParse(line_, "index must be in [1, 2^53]");
      }
      if (static_cast<double>(static_cast<std::int64_t>(raw)) != raw) {
        ThrowParse(line_, "index must be a positive integer");
      }
    }
    if (order_ == 0) {
      if (!dims_.empty() && order != dims_.size()) {
        ThrowParse(line_, std::to_string(order) + " indices but " +
                              std::to_string(dims_.size()) + " dims given");
      }
      order_ = order;
      inferred_.assign(order, 1);
    } else if (order != order_) {
      ThrowParse(line_, "inconsistent number of indices");
    }

    for (std::size_t k = 0; k < order; ++k) {
      const std::int64_t one_based = static_cast<std::int64_t>(tokens_[k]);
      if (!dims_.empty() && one_based > dims_[k]) {
        ThrowParse(line_, "index " + std::to_string(one_based) +
                              " of mode " + std::to_string(k) +
                              " exceeds its dim " + std::to_string(dims_[k]));
      }
      if (dims_.empty() && one_based > kMaxInferredTnsDim) {
        ThrowParse(line_, "inferred dim " + std::to_string(one_based) +
                              " of mode " + std::to_string(k) +
                              " exceeds kMaxInferredTnsDim (" +
                              std::to_string(kMaxInferredTnsDim) +
                              "); pass explicit dims");
      }
      inferred_[k] = std::max(inferred_[k], one_based);
      indices_.push_back(one_based - 1);
    }
    values_.push_back(tokens_.back());
  }

  const std::vector<std::int64_t>& dims_;  // empty: infer from the indices
  std::int64_t line_ = 0;
  std::size_t order_ = 0;  // 0 until the first data line
  std::vector<double> tokens_;  // the current line's, reused line to line
  std::vector<std::int64_t> inferred_;  // per-mode largest 1-based index
  std::vector<std::int64_t> indices_;   // nnz x order, 0-based
  std::vector<double> values_;
};

}  // namespace

SparseTensor ReadTns(const std::string& path,
                     const std::vector<std::int64_t>& dims) {
  const std::unique_ptr<std::FILE, int (*)(std::FILE*)> file(
      std::fopen(path.c_str(), "rb"), &std::fclose);
  if (!file) throw std::runtime_error("cannot open tns file: " + path);
  TnsScanner scanner(dims);
  std::vector<char> block(kBlockBytes);
  std::size_t held = 0;  // bytes of a partial line carried over
  for (;;) {
    if (held == block.size()) block.resize(2 * block.size());
    held += std::fread(block.data() + held, 1, block.size() - held,
                       file.get());
    if (held < block.size()) {  // a short read: end of file or an error
      if (std::ferror(file.get())) {
        throw std::runtime_error("read failed: " + path);
      }
      scanner.Scan(block.data(), block.data() + held);
      return std::move(scanner).Finish();
    }
    const std::size_t whole_lines = static_cast<std::size_t>(
        std::find(block.rbegin(), block.rend(), '\n').base() - block.begin());
    if (whole_lines == 0) continue;  // no whole line yet: grow the block
    scanner.Scan(block.data(), block.data() + whole_lines);
    held -= whole_lines;
    std::memmove(block.data(), block.data() + whole_lines, held);
  }
}

SparseTensor ParseTns(const std::string& content,
                      const std::vector<std::int64_t>& dims) {
  TnsScanner scanner(dims);
  scanner.Scan(content.data(), content.data() + content.size());
  return std::move(scanner).Finish();
}

std::string FormatTns(const SparseTensor& tensor) {
  std::ostringstream out;
  for (std::int64_t e = 0; e < tensor.nnz(); ++e) {
    for (std::int64_t k = 0; k < tensor.order(); ++k) {
      out << tensor.index(e, k) + 1 << ' ';  // 1-based on disk
    }
    char buffer[32];
    std::snprintf(buffer, sizeof(buffer), "%.17g", tensor.value(e));
    out << buffer << '\n';
  }
  return out.str();
}

void WriteTns(const std::string& path, const SparseTensor& tensor) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot open file for write: " + path);
  out << FormatTns(tensor);
  if (!out) throw std::runtime_error("write failed: " + path);
}

void WriteBinary(const std::string& path, const SparseTensor& tensor) {
  std::ofstream out(path, std::ios::binary);
  if (!out) throw std::runtime_error("cannot open file for write: " + path);
  const char magic[4] = {'P', 'T', 'N', 'B'};
  out.write(magic, 4);
  const std::int64_t order = tensor.order();
  const std::int64_t entries = tensor.nnz();
  out.write(reinterpret_cast<const char*>(&order), sizeof(order));
  for (std::int64_t k = 0; k < order; ++k) {
    const std::int64_t d = tensor.dim(k);
    out.write(reinterpret_cast<const char*>(&d), sizeof(d));
  }
  out.write(reinterpret_cast<const char*>(&entries), sizeof(entries));
  for (std::int64_t e = 0; e < entries; ++e) {
    out.write(reinterpret_cast<const char*>(tensor.index(e)),
              static_cast<std::streamsize>(sizeof(std::int64_t) * order));
    const double value = tensor.value(e);
    out.write(reinterpret_cast<const char*>(&value), sizeof(value));
  }
  if (!out) throw std::runtime_error("write failed: " + path);
}

SparseTensor ReadBinary(const std::string& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in) throw std::runtime_error("cannot open file: " + path);
  const std::int64_t file_bytes = static_cast<std::int64_t>(in.tellg());
  in.seekg(0);
  char magic[4];
  in.read(magic, 4);
  if (!in || std::memcmp(magic, "PTNB", 4) != 0) {
    throw std::runtime_error("bad magic in binary tensor file: " + path);
  }
  std::int64_t order = 0;
  in.read(reinterpret_cast<char*>(&order), sizeof(order));
  if (!in || order <= 0 || order > 64) {
    throw std::runtime_error("bad order in binary tensor file: " + path);
  }
  std::vector<std::int64_t> dims(static_cast<std::size_t>(order));
  in.read(reinterpret_cast<char*>(dims.data()),
          static_cast<std::streamsize>(sizeof(std::int64_t) * dims.size()));
  for (std::size_t k = 0; in && k < dims.size(); ++k) {
    if (dims[k] <= 0) {
      throw std::runtime_error("non-positive dim of mode " +
                               std::to_string(k) +
                               " in binary tensor file: " + path);
    }
  }
  std::int64_t entries = 0;
  in.read(reinterpret_cast<char*>(&entries), sizeof(entries));
  if (!in || entries < 0) {
    throw std::runtime_error("bad entry count in binary tensor file: " + path);
  }
  // Checked against the bytes left before anything is sized from it.
  const std::int64_t entry_bytes =
      (order + 1) * static_cast<std::int64_t>(sizeof(std::int64_t));
  if (entries > (file_bytes - in.tellg()) / entry_bytes) {
    throw std::runtime_error("truncated binary tensor file: " + path +
                             " (header promises " + std::to_string(entries) +
                             " entries)");
  }

  // Entries are stored interleaved (indices, then value); read them in
  // blocks and split them into the two arrays the tensor adopts.
  const std::size_t n_modes = static_cast<std::size_t>(order);
  std::vector<std::int64_t> indices(static_cast<std::size_t>(entries) *
                                    n_modes);
  std::vector<double> values(static_cast<std::size_t>(entries));
  const std::int64_t block_entries =
      static_cast<std::int64_t>(kBlockBytes) / entry_bytes;
  std::vector<std::int64_t> block(
      static_cast<std::size_t>(block_entries) * (n_modes + 1));
  for (std::int64_t first = 0; first < entries; first += block_entries) {
    const std::int64_t count = std::min(block_entries, entries - first);
    in.read(reinterpret_cast<char*>(block.data()), count * entry_bytes);
    if (!in) throw std::runtime_error("truncated binary tensor file: " + path);
    for (std::int64_t e = 0; e < count; ++e) {
      const std::int64_t* entry =
          block.data() + static_cast<std::size_t>(e) * (n_modes + 1);
      std::copy(entry, entry + n_modes,
                indices.begin() +
                    static_cast<std::ptrdiff_t>(
                        static_cast<std::size_t>(first + e) * n_modes));
      std::memcpy(&values[static_cast<std::size_t>(first + e)],
                  entry + n_modes, sizeof(double));
    }
  }
  try {
    return SparseTensor(std::move(dims), std::move(indices), std::move(values));
  } catch (const std::runtime_error& error) {
    throw std::runtime_error(std::string(error.what()) +
                             " in binary tensor file: " + path);
  }
}

SparseTensor SparseFromDense(const DenseTensor& dense) {
  SparseTensor sparse(dense.dims());
  sparse.Reserve(dense.CountNonZeros());
  std::vector<std::int64_t> index(static_cast<std::size_t>(dense.order()));
  for (std::int64_t linear = 0; linear < dense.size(); ++linear) {
    if (dense[linear] == 0.0) continue;
    dense.IndexOf(linear, index.data());
    sparse.AddEntry(index, dense[linear]);
  }
  sparse.BuildModeIndex();
  return sparse;
}

}  // namespace ptucker
