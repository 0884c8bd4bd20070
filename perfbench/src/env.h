#ifndef PERFBENCH_ENV_H_
#define PERFBENCH_ENV_H_

// Run options, the environment record and the result line every run
// prints last.

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "server/json.h"

namespace perfbench {

using cqp::server::JsonValue;

/// Server thread counts of both wire workloads. Fixed on purpose (not
/// derived from nproc) so that runs on different boxes configure the same
/// server.
inline constexpr size_t kServerIoThreads = 1;
inline constexpr size_t kServerWorkers = 2;

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string source_digest = "unknown";  ///< commit or source hash
  std::string out_dir = ".bench_out";     ///< records and span files
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one run reports. `record` carries everything else worth keeping:
/// environment, workload parameters, request accounting, sample counts.
struct RunResult {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> metrics;
  JsonValue record = JsonValue::Object();
  std::vector<std::string> problems;  ///< correctness failures (capped)

  void Fail(std::string what);
  void Add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
};

/// VmHWM of this process in MB (0 when /proc is unavailable).
double PeakRssMb();

/// Writes the record next to the span files and prints the one-line JSON
/// result (correct, attempted, failed, metrics) as the last stdout line.
void EmitResult(const Options& options, RunResult& result);

}  // namespace perfbench

#endif  // PERFBENCH_ENV_H_
