#include "env.h"

#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <thread>


#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

namespace {

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      size_t colon = line.find(':');
      if (colon != std::string::npos) {
        size_t start = line.find_first_not_of(' ', colon + 1);
        return start == std::string::npos ? "" : line.substr(start);
      }
    }
  }
  return "unknown";
}

JsonValue Num(double v) { return JsonValue::Number(v); }

/// Commit/source digest, build type, compiler, nproc, CPU model, seed,
/// server thread counts.
JsonValue EnvironmentRecord(const Options& options) {
  JsonValue env = JsonValue::Object();
  env.Set("commit", JsonValue::Str(options.source_digest));
  env.Set("build_type", JsonValue::Str(PERFBENCH_BUILD_TYPE));
  env.Set("compiler", JsonValue::Str(std::string("gcc-compatible ") +
                                     __VERSION__));
  env.Set("nproc", Num(std::thread::hardware_concurrency()));
  env.Set("cpu_model", JsonValue::Str(CpuModel()));
  env.Set("workload", JsonValue::Str(options.workload));
  env.Set("seed", Num(static_cast<double>(options.seed)));
  env.Set("seconds", Num(options.seconds));
  env.Set("trace", JsonValue::Bool(options.trace));
  env.Set("server_io_threads", Num(kServerIoThreads));
  env.Set("server_workers", Num(kServerWorkers));
  return env;
}

}  // namespace

void RunResult::Fail(std::string what) {
  correct = false;
  if (problems.size() < 20) problems.push_back(std::move(what));
}

double PeakRssMb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      double kb = 0.0;
      fields >> kb;
      return kb / 1024.0;
    }
  }
  return 0.0;
}

void EmitResult(const Options& options, RunResult& result) {
  if (result.attempted == 0) result.Fail("no request was attempted");
  JsonValue problems = JsonValue::Array();
  for (const std::string& p : result.problems) {
    problems.Append(JsonValue::Str(p));
    std::fprintf(stderr, "CHECK FAILED: %s\n", p.c_str());
  }
  result.record.Set("environment", EnvironmentRecord(options));
  result.record.Set("problems", std::move(problems));
  result.record.Set("correct", JsonValue::Bool(result.correct));

  JsonValue metrics = JsonValue::Object();
  for (const Metric& m : result.metrics) {
    // A failed run can carry infinite latencies; JSON has no infinity.
    double value = std::isfinite(m.value) ? m.value : 1e300;
    JsonValue one = JsonValue::Object();
    one.Set("value", JsonValue::Number(value));
    one.Set("unit", JsonValue::Str(m.unit));
    metrics.Set(m.name, std::move(one));
    std::printf("%-40s %16.6f %s\n", m.name.c_str(), value, m.unit.c_str());
  }
  result.record.Set("metrics", metrics);

  std::string record_path = options.out_dir + "/" + options.workload + "-s" +
                            std::to_string(options.seed) +
                            (options.trace ? "-trace" : "") + ".json";
  std::ofstream out(record_path);
  out << result.record.Dump() << "\n";
  std::printf("record: %s\n", record_path.c_str());

  JsonValue line = JsonValue::Object();
  line.Set("correct", JsonValue::Bool(result.correct));
  line.Set("attempted", Num(static_cast<double>(result.attempted)));
  line.Set("failed", Num(static_cast<double>(result.failed)));
  line.Set("metrics", std::move(metrics));
  std::printf("%s\n", line.Dump().c_str());
  std::fflush(stdout);
}

}  // namespace perfbench
