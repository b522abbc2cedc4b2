#include "common.h"

#include <sched.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>

#include "core/delta_engine.h"
#include "core/row_update.h"
#include "tensor/sparse_tensor.h"

namespace perfbench {

namespace {

thread_local std::int64_t current_span = 0;
thread_local int thread_number = 0;

int ThreadNumber() {
  static std::mutex mutex;
  static int next = 1;
  if (thread_number == 0) {
    std::lock_guard<std::mutex> lock(mutex);
    thread_number = next++;
  }
  return thread_number;
}

std::string JsonNumber(double value) {
  if (!std::isfinite(value)) return "null";
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

std::string JsonString(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

}  // namespace

void Result::Add(const std::string& name, double value,
                 const std::string& unit) {
  metrics_.push_back({name, value, unit});
}

void Result::Detail(const std::string& name, double value,
                    const std::string& unit) {
  char text[64];
  std::snprintf(text, sizeof(text), "%.6g", value);
  Log("layer " + name + " = " + text + " " + unit);
}

void Result::Check(bool ok, const std::string& what) {
  if (ok) return;
  correct_ = false;
  Log("CHECK FAILED: " + what);
}

std::string Result::Json() const {
  std::ostringstream out;
  out << "{\"correct\": " << (correct_ ? "true" : "false")
      << ", \"attempted\": " << attempted << ", \"failed\": " << failed
      << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    if (i > 0) out << ", ";
    out << JsonString(metrics_[i].name) << ": {\"value\": "
        << JsonNumber(metrics_[i].value)
        << ", \"unit\": " << JsonString(metrics_[i].unit) << "}";
  }
  out << "}}";
  return out.str();
}

double Median(std::vector<double> values) { return Percentile(values, 50.0); }

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return NAN;
  const std::size_t rank = static_cast<std::size_t>(
      std::ceil(p / 100.0 * static_cast<double>(values.size())));
  const std::size_t at = std::min(values.size() - 1, rank == 0 ? 0 : rank - 1);
  std::nth_element(values.begin(),
                   values.begin() + static_cast<std::ptrdiff_t>(at),
                   values.end());
  return values[at];
}

double DeltaSweep(const ptucker::SparseTensor& x,
                  const ptucker::DeltaEngine& engine, std::int64_t mode,
                  std::int64_t rank) {
  const std::int64_t batch = std::max<std::int64_t>(1, engine.PreferredBatch());
  double checksum = 0.0;
#pragma omp parallel reduction(+ : checksum)
  {
    std::vector<double> deltas(static_cast<std::size_t>(batch * rank));
    std::vector<std::int64_t> ids(static_cast<std::size_t>(batch));
    std::vector<const std::int64_t*> coords(static_cast<std::size_t>(batch));
#pragma omp for schedule(runtime)
    for (std::int64_t row = 0; row < x.dim(mode); ++row) {
      const auto slice = x.Slice(mode, row);
      std::int64_t pending = 0;
      for (std::size_t s = 0; s < slice.size(); ++s) {
        const std::int64_t entry = slice[s];
        if (batch == 1) {
          engine.ComputeDelta(entry, x.index(entry), mode, deltas.data());
          checksum += deltas[0];
          continue;
        }
        ids[static_cast<std::size_t>(pending)] = entry;
        coords[static_cast<std::size_t>(pending)] = x.index(entry);
        if (++pending == batch || s + 1 == slice.size()) {
          engine.DeltaBatch(pending, ids.data(), coords.data(), mode,
                            deltas.data());
          checksum += deltas[0];
          pending = 0;
        }
      }
    }
  }
  return checksum;
}

ptucker::MovieLensConfig MovieLensFor(const std::vector<std::int64_t>& dims,
                                      std::int64_t nnz, std::uint64_t seed) {
  ptucker::MovieLensConfig config;
  config.num_users = dims[0];
  config.num_movies = dims[1];
  config.num_years = dims[2];
  config.num_hours = dims[3];
  config.nnz = nnz;
  config.seed = seed;
  return config;
}

double DeltaSweepAllModesMs(const ptucker::SparseTensor& x,
                            const ptucker::DeltaEngine& engine,
                            const std::vector<std::int64_t>& ranks, bool* ok) {
  ptucker::OmpEnvironmentGuard omp_guard(2, ptucker::Scheduling::kDynamic);
  const double start = Now();
  double checksum = 0.0;
  for (std::int64_t mode = 0; mode < x.order(); ++mode) {
    checksum += DeltaSweep(x, engine, mode, ranks[static_cast<std::size_t>(mode)]);
  }
  *ok = std::isfinite(checksum);
  return (Now() - start) * 1e3;
}

std::map<std::string, double> ParseExposition(const std::string& text) {
  std::map<std::string, double> values;
  std::istringstream lines(text);
  std::string line;
  while (std::getline(lines, line)) {
    if (line.empty() || line[0] == '#') continue;
    const auto space = line.rfind(' ');
    if (space == std::string::npos) continue;
    values[line.substr(0, space)] = std::stod(line.substr(space + 1));
  }
  return values;
}

std::uint64_t DeriveSeed(std::uint64_t seed, std::uint64_t stream) {
  // splitmix64 of the pair.
  std::uint64_t z = seed * 0x9e3779b97f4a7c15ULL + stream + 0x632be59bd9b4e019ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

void Log(const std::string& text) { std::cerr << "perfbench: " << text << "\n"; }

ScopedCpuTurn::ScopedCpuTurn(std::int64_t turn) : saved_(sizeof(cpu_set_t)) {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (::sched_getaffinity(0, sizeof(allowed), &allowed) != 0) {
    saved_.clear();
    return;
  }
  std::memcpy(saved_.data(), &allowed, sizeof(allowed));
  const int count = CPU_COUNT(&allowed);
  int wanted = static_cast<int>(turn % count);
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (!CPU_ISSET(cpu, &allowed) || wanted-- > 0) continue;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    ::sched_setaffinity(0, sizeof(one), &one);
    return;
  }
}

ScopedCpuTurn::~ScopedCpuTurn() {
  if (saved_.empty()) return;
  cpu_set_t allowed;
  std::memcpy(&allowed, saved_.data(), sizeof(allowed));
  ::sched_setaffinity(0, sizeof(allowed), &allowed);
}

SpanRecorder::Scope::Scope(SpanRecorder* recorder, std::string name,
                           std::int64_t id)
    : recorder_(recorder) {
  if (recorder_ == nullptr) return;
  span_.name = std::move(name);
  span_.id = id != 0 ? id : recorder_->NextId();
  span_.parent = current_span;
  span_.thread = ThreadNumber();
  current_span = span_.id;
  span_.start = Now();
}

SpanRecorder::Scope::~Scope() {
  if (recorder_ == nullptr) return;
  span_.end = Now();
  current_span = span_.parent;
  recorder_->Record(std::move(span_));
}

std::int64_t SpanRecorder::NextId() {
  std::lock_guard<std::mutex> lock(mutex_);
  return next_id_++;
}

void SpanRecorder::Record(Span span) {
  if (span.thread == 0) span.thread = ThreadNumber();
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(std::move(span));
}

std::vector<double> SpanRecorder::DurationsMs(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<double> out;
  for (const Span& span : spans_) {
    if (span.name == name) out.push_back(span.ms());
  }
  return out;
}

bool SpanRecorder::WriteChromeTrace(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  std::lock_guard<std::mutex> lock(mutex_);
  out << "{\"traceEvents\": [\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    char line[160];
    std::snprintf(line, sizeof(line),
                  "\"ph\": \"X\", \"pid\": 1, \"tid\": %d, \"ts\": %.3f, "
                  "\"dur\": %.3f",
                  span.thread, span.start * 1e6, (span.end - span.start) * 1e6);
    out << "{\"name\": " << JsonString(span.name) << ", " << line
        << ", \"args\": {\"id\": " << span.id << ", \"parent\": " << span.parent
        << "}}" << (i + 1 < spans_.size() ? ",\n" : "\n");
  }
  out << "]}\n";
  return static_cast<bool>(out);
}

}  // namespace perfbench
