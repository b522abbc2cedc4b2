// perfbench: the repository benchmark driver (see ../README.md).
//
//   perfbench --workload als-ml|ingest-ml --seed N --seconds S
//             --trace 0|1 --work-dir DIR [--size full|smoke]
//             [--trace-out FILE]
//
// Prints progress on stderr and, as the last stdout line, one JSON object
// {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics
// with --trace 0, the per-layer metrics with --trace 1. Exits 1 when a
// correctness check fails, 2 on a bad flag.
#include <unistd.h>

#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <iostream>
#include <string>

#include "common.h"

namespace {

using perfbench::RunConfig;

[[noreturn]] void Usage(const std::string& message) {
  std::cerr << "perfbench: " << message
            << "\nusage: perfbench --workload als-ml|ingest-ml "
               "--seed N --seconds S --trace 0|1 --work-dir DIR "
               "[--size full|smoke] [--trace-out FILE]\n";
  std::exit(2);
}

RunConfig ParseArgs(int argc, char** argv) {
  RunConfig config;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) Usage("missing value for " + flag);
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        config.workload = value;
      } else if (flag == "--seed") {
        config.seed = std::stoull(value);
        have_seed = true;
      } else if (flag == "--seconds") {
        config.seconds = std::stod(value);
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") Usage("--trace takes 0 or 1");
        config.trace = value == "1";
      } else if (flag == "--work-dir") {
        config.work_dir = value;
      } else if (flag == "--trace-out") {
        config.trace_out = value;
      } else if (flag == "--size") {
        if (value != "full" && value != "smoke") Usage("--size takes full or smoke");
        config.size = value == "smoke" ? perfbench::Size::kSmoke
                                       : perfbench::Size::kFull;
      } else {
        Usage("unknown flag " + flag);
      }
    } catch (const std::logic_error&) {
      Usage("bad value for " + flag + ": " + value);
    }
  }
  if (config.workload.empty()) Usage("--workload is required");
  if (!have_seed) Usage("--seed is required");
  if (!(config.seconds > 0.0 && config.seconds <= 120.0)) {
    Usage("--seconds must be in (0, 120]");
  }
  if (config.work_dir.empty()) Usage("--work-dir is required");
  return config;
}

// The thread budget is part of the benchmark, not of the environment.
// OpenMP reads its settings once at start-up, and they also size the
// parallel regions of threads the library creates itself (the serving
// worker's top-K scan), so pin them and restart once if they differ:
// 2 threads per region, and idle team threads that sleep instead of
// spinning, so a finished region does not keep burning one of the four
// cores the load is allowed.
void PinOpenMp(char** argv) {
  const char* const kSettings[][2] = {{"OMP_NUM_THREADS", "1"},
                                      {"OMP_WAIT_POLICY", "passive"}};
  bool pinned = true;
  for (const auto& setting : kSettings) {
    const char* current = std::getenv(setting[0]);
    if (current == nullptr || std::strcmp(current, setting[1]) != 0) {
      ::setenv(setting[0], setting[1], 1);
      pinned = false;
    }
  }
  if (pinned) return;
  ::execv("/proc/self/exe", argv);
  std::cerr << "perfbench: cannot re-exec to pin the OpenMP settings: "
            << std::strerror(errno) << "\n";
  std::exit(1);
}

}  // namespace

int main(int argc, char** argv) {
  PinOpenMp(argv);
  const RunConfig config = ParseArgs(argc, argv);
  void (*run)(const RunConfig&, perfbench::Result*) = nullptr;
  if (config.workload == "als-ml") {
    run = perfbench::RunAlsMl;
  } else if (config.workload == "ingest-ml") {
    run = perfbench::RunIngestMl;
  } else {
    Usage("unknown workload " + config.workload);
  }

  perfbench::Result result;
  try {
    std::filesystem::create_directories(config.work_dir);
    run(config, &result);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << config.workload << " failed: " << e.what()
              << "\n";
    return 1;
  }
  std::cout << result.Json() << std::endl;
  return result.correct() ? 0 : 1;
}
