// Shared pieces of the repository benchmark: run configuration, the
// result every workload fills in, statistics helpers, and the span
// recorder the traced runs use around calls into the library.
#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "data/movielens_sim.h"

namespace ptucker {
class DeltaEngine;
}  // namespace ptucker

namespace perfbench {

// Input scale. kFull is the benchmark; kSmoke is a tiny version of the
// same workload that only exercises the correctness checks.
enum class Size { kFull, kSmoke };

struct RunConfig {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  Size size = Size::kFull;
  std::string work_dir;   // scratch files (inputs, checkpoints)
  std::string trace_out;  // Chrome trace JSON of the traced run, or empty
};

// What a workload reports: the contract's result line.
class Result {
 public:
  void Add(const std::string& name, double value, const std::string& unit);
  // A finer figure than the contract's metrics: printed on stderr as
  // "perfbench: layer <name> = <value> <unit>", not in the result line.
  void Detail(const std::string& name, double value, const std::string& unit);
  // Records a failed correctness check (and why, on stderr).
  void Check(bool ok, const std::string& what);

  bool correct() const { return correct_; }
  std::int64_t attempted = 0;
  std::int64_t failed = 0;

  // The last stdout line: {"correct", "attempted", "failed", "metrics"}.
  std::string Json() const;

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  bool correct_ = true;
  std::vector<Metric> metrics_;
};

// Seconds on the steady clock.
inline double Now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double Median(std::vector<double> values);
// Nearest-rank percentile (p in [0, 100]) of raw samples.
double Percentile(std::vector<double> values, double p);

// One δ (Eq. 12) sweep over every observed entry of `mode`, row by row
// under the caller's OpenMP thread count and schedule, through the engine
// exactly as UpdateFactorRows calls it (per entry for batch-1 engines,
// DeltaBatch tiles otherwise). Needs x's mode index; returns a checksum
// so the work stays live.
double DeltaSweep(const ptucker::SparseTensor& x,
                  const ptucker::DeltaEngine& engine, std::int64_t mode,
                  std::int64_t rank);

// The MovieLens-sim generator at the benchmark's (user, movie, year, hour)
// shape `dims`, with `nnz` observed entries drawn from `seed`.
ptucker::MovieLensConfig MovieLensFor(const std::vector<std::int64_t>& dims,
                                      std::int64_t nnz, std::uint64_t seed);

// Milliseconds of one DeltaSweep over every mode on 2 threads (dynamic
// schedule); `ok` is false when the sweep produced a non-finite value.
double DeltaSweepAllModesMs(const ptucker::SparseTensor& x,
                            const ptucker::DeltaEngine& engine,
                            const std::vector<std::int64_t>& ranks, bool* ok);

// Prometheus exposition text (the METRICS reply) as name{labels} → value.
std::map<std::string, double> ParseExposition(const std::string& text);

// Deterministic 64-bit mix of (seed, stream) for per-purpose input seeds.
std::uint64_t DeriveSeed(std::uint64_t seed, std::uint64_t stream);

// Writes `text` to stderr with a "perfbench:" prefix.
void Log(const std::string& text);

// Pins the calling thread to the (turn % n)-th of its n allowed CPUs and
// restores its CPU mask when destroyed. A shared host runs each CPU at its
// own, changing speed; repeating a single-threaded measurement over every
// CPU in turn makes its median describe the host, not one CPU. Threads
// created while pinned inherit the pin, so only wrap code that starts
// none (OpenMP teams included).
class ScopedCpuTurn {
 public:
  explicit ScopedCpuTurn(std::int64_t turn);
  ~ScopedCpuTurn();
  ScopedCpuTurn(const ScopedCpuTurn&) = delete;
  ScopedCpuTurn& operator=(const ScopedCpuTurn&) = delete;

 private:
  std::vector<unsigned char> saved_;  // the caller's cpu_set_t
};

// Spans recorded by the benchmark around the library calls it makes:
// name, start, end, the enclosing span on the same thread, and an id
// (the request id for serving spans, so one request's spans share it).
class SpanRecorder {
 public:
  struct Span {
    std::string name;
    std::int64_t id = 0;
    std::int64_t parent = 0;  // 0 = top level
    int thread = 0;
    double start = 0.0;
    double end = 0.0;
    double ms() const { return (end - start) * 1e3; }
  };

  // RAII span; a null recorder records nothing (the untraced path).
  class Scope {
   public:
    Scope(SpanRecorder* recorder, std::string name, std::int64_t id = 0);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanRecorder* recorder_;
    Span span_;
  };

  // Records a span measured elsewhere (e.g. a request's send→reply).
  void Record(Span span);

  // Durations in ms of every span called `name`, in record order.
  std::vector<double> DurationsMs(const std::string& name) const;

  // Chrome trace-event JSON (chrome://tracing, Perfetto).
  bool WriteChromeTrace(const std::string& path) const;

 private:
  std::int64_t NextId();

  mutable std::mutex mutex_;  // guards spans_ and next_id_
  std::vector<Span> spans_;
  std::int64_t next_id_ = 1;
};

// The workloads; each fills `result` and never throws on a
// correctness mismatch (it records it through Result::Check).
void RunAlsMl(const RunConfig& config, Result* result);
void RunIngestMl(const RunConfig& config, Result* result);

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
