// perfbench: the repository benchmark. Runs one workload in-process
// and prints its metrics; the last stdout line is the JSON result.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--source-digest D] [--out-dir DIR]
//
// --trace 0 prints the end-to-end metrics of the timed run; --trace 1 runs
// the same workload, replays its requests through the traced stage chain
// and prints the per-layer metrics. perfbench/run.py builds this binary and
// is the command BENCHMARK.json names.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>

#include "env.h"
#include "workloads.h"

namespace {

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload fig12_search|query_rows|wire_zipf|"
               "profile_churn --seed N --seconds S --trace 0|1 "
               "[--source-digest D] [--out-dir DIR]\n",
               argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::setvbuf(stdout, nullptr, _IOLBF, 0);
  perfbench::Options options;
  for (int i = 1; i < argc; ++i) {
    if (i + 1 >= argc) return Usage(argv[0]);
    const char* flag = argv[i];
    const char* value = argv[++i];
    if (std::strcmp(flag, "--workload") == 0) {
      options.workload = value;
    } else if (std::strcmp(flag, "--seed") == 0) {
      options.seed = std::strtoull(value, nullptr, 10);
    } else if (std::strcmp(flag, "--seconds") == 0) {
      options.seconds = std::atof(value);
    } else if (std::strcmp(flag, "--trace") == 0) {
      options.trace = std::strcmp(value, "0") != 0;
    } else if (std::strcmp(flag, "--source-digest") == 0) {
      options.source_digest = value;
    } else if (std::strcmp(flag, "--out-dir") == 0) {
      options.out_dir = value;
    } else {
      return Usage(argv[0]);
    }
  }
  if (!(options.seconds > 0.0)) return Usage(argv[0]);
  std::error_code ec;
  std::filesystem::create_directories(options.out_dir, ec);
  if (ec) {
    std::fprintf(stderr, "cannot create %s\n", options.out_dir.c_str());
    return 1;
  }

  perfbench::RunResult result;
  if (options.workload == "fig12_search") {
    result = perfbench::RunFig12Search(options);
  } else if (options.workload == "query_rows") {
    result = perfbench::RunQueryRows(options);
  } else if (options.workload == "wire_zipf") {
    result = perfbench::RunWireZipf(options);
  } else if (options.workload == "profile_churn") {
    result = perfbench::RunProfileChurn(options);
  } else {
    return Usage(argv[0]);
  }
  perfbench::EmitResult(options, result);
  return result.correct ? 0 : 1;
}
