// Batch-personalization throughput over the Fig. 12 workload (movie db,
// 5 profiles x 4 queries, K = 20, cmax = 400 ms): queries/sec, p50/p99
// latency and search states/sec for batch sizes {1, 8, 64, 256} at
// 1/2/4/8 worker threads.
//
// Each batch cycles through every (profile, query) pair, and every cell
// owns one PlanCache (fresh per cell, so every cell starts cold and the
// thread sweep is an apples-to-apples comparison). With --repeat, the same
// requests run again against the now-warm PlanCache and the final
// repetition is recorded as a separate "warm" cell — steady-state numbers
// without disturbing the cold cell's identity in the JSON record. "Warm"
// means a warm PlanCache only: search itself keeps no memo across
// requests.
//
// Emits a table on stdout plus a JSON record (--json PATH, default
// BENCH_throughput.json next to the working directory) for the bench
// trajectory. Frontier counters (frontiers, avg width) instrument the
// SoA batch evaluation core — docs/simd.md.
//
// Flags: --smoke     tiny grid (batch {1,8} x threads {1,2}) for CI/tsan
//        --json P    write the JSON record to P
//        --repeat N  run each cell N times; record repetition 0 (cold)
//                    and repetition N-1 (warm)

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "construct/personalizer.h"
#include "construct/plan_cache.h"

namespace {

using namespace cqp::bench;  // NOLINT

struct ThroughputCell {
  size_t batch = 0;
  size_t threads = 0;
  bool warm = false;  ///< true for the final --repeat repetition
  double wall_ms = 0.0;
  double qps = 0.0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  size_t ok = 0;
  size_t degraded = 0;
  uint64_t states = 0;
  double states_per_sec = 0.0;
  uint64_t frontiers = 0;
  uint64_t frontier_states = 0;
};

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  size_t idx = static_cast<size_t>(p * static_cast<double>(values.size()));
  return values[std::min(idx, values.size() - 1)];
}

ThroughputCell MakeCell(const cqp::construct::BatchResult& result,
                        size_t batch, size_t threads, bool warm) {
  ThroughputCell cell;
  cell.batch = batch;
  cell.threads = threads;
  cell.warm = warm;
  cell.wall_ms = result.wall_ms;
  cell.qps = result.wall_ms > 0.0
                 ? 1000.0 * static_cast<double>(batch) / result.wall_ms
                 : 0.0;
  cell.p50_ms = Percentile(result.latencies_ms, 0.50);
  cell.p99_ms = Percentile(result.latencies_ms, 0.99);
  cell.ok = result.ok_count();
  cell.degraded = result.degraded;
  cell.states = result.states_examined;
  cell.states_per_sec =
      result.wall_ms > 0.0
          ? 1000.0 * static_cast<double>(result.states_examined) /
                result.wall_ms
          : 0.0;
  cell.frontiers = result.frontiers_evaluated;
  cell.frontier_states = result.frontier_states;
  for (const auto& r : result.results) {
    if (!r.ok()) {
      std::fprintf(stderr, "request failed: %s\n",
                   r.status().ToString().c_str());
    }
  }
  return cell;
}

/// Runs one (batch, threads) cell `repeat` times over a cell-local plan cache
/// and appends the cold cell (repetition 0) and, when repeat > 1, the warm
/// one (the last repetition) to `out`.
void RunCell(const cqp::workload::ExperimentContext& ctx, size_t batch,
             size_t threads, size_t repeat,
             std::vector<ThroughputCell>* out) {
  const auto& graphs = ctx.graphs();
  const auto& queries = ctx.queries();
  const size_t pairs = graphs.size() * queries.size();

  // One plan cache, fresh for this cell and shared across repetitions:
  // repeats within a batch — and every request of a warm repetition — hit
  // warm entries.
  cqp::construct::PlanCache plan_cache;

  cqp::construct::Personalizer personalizer(&ctx.db(), &graphs[0]);
  std::vector<cqp::construct::PersonalizeRequest> requests;
  requests.reserve(batch);
  for (size_t i = 0; i < batch; ++i) {
    size_t pair = i % pairs;
    cqp::construct::PersonalizeRequest request;
    request.query = queries[pair % queries.size()];
    request.graph = &graphs[pair / queries.size()];
    request.plan_cache = &plan_cache;
    request.profile_id = "p" + std::to_string(pair / queries.size());
    request.profile_version = 1;
    request.problem = cqp::cqp::ProblemSpec::Problem2(400.0);
    request.algorithm = "C-Boundaries";
    request.budget.max_expansions = kStateLimitPerRun;
    request.budget.max_memory_bytes = kMemoryLimitPerRun;
    requests.push_back(std::move(request));
  }

  cqp::construct::BatchOptions options;
  options.num_threads = threads;
  for (size_t rep = 0; rep < repeat; ++rep) {
    cqp::construct::BatchResult result =
        personalizer.PersonalizeBatch(requests, options);
    if (rep == 0) {
      out->push_back(MakeCell(result, batch, threads, /*warm=*/false));
    }
    if (rep + 1 == repeat && repeat > 1) {
      out->push_back(MakeCell(result, batch, threads, /*warm=*/true));
    }
  }
}

void AppendCellJson(std::string& json, const ThroughputCell& c, bool last) {
  char buf[768];
  std::snprintf(
      buf, sizeof buf,
      "    {\"batch\": %zu, \"threads\": %zu, %s\"wall_ms\": %.3f, "
      "\"qps\": %.2f, \"p50_ms\": %.3f, \"p99_ms\": %.3f, \"ok\": %zu, "
      "\"degraded\": %zu, \"states\": %llu, \"states_per_sec\": %.0f, "
      "\"frontiers\": %llu, \"frontier_states\": %llu, "
      "\"avg_frontier_width\": %.2f}%s\n",
      c.batch, c.threads, c.warm ? "\"phase\": \"warm\", " : "", c.wall_ms,
      c.qps, c.p50_ms, c.p99_ms, c.ok, c.degraded,
      static_cast<unsigned long long>(c.states), c.states_per_sec,
      static_cast<unsigned long long>(c.frontiers),
      static_cast<unsigned long long>(c.frontier_states),
      c.frontiers == 0 ? 0.0
                       : static_cast<double>(c.frontier_states) /
                             static_cast<double>(c.frontiers),
      last ? "" : ",");
  json += buf;
}

int Run(bool smoke, const std::string& json_path, size_t repeat) {
  std::setvbuf(stdout, nullptr, _IOLBF, 0);
  std::printf("Batch personalization throughput — Fig. 12 workload, "
              "C-Boundaries, K = 20, cmax = 400 ms\n");
  std::printf("hardware threads available: %u\n\n",
              std::thread::hardware_concurrency());

  auto ctx_or = cqp::workload::ExperimentContext::Create(DefaultConfig());
  if (!ctx_or.ok()) {
    std::fprintf(stderr, "%s\n", ctx_or.status().ToString().c_str());
    return 1;
  }
  auto ctx = *std::move(ctx_or);

  std::vector<size_t> batches = smoke ? std::vector<size_t>{1, 8}
                                      : std::vector<size_t>{1, 8, 64, 256};
  std::vector<size_t> thread_counts =
      smoke ? std::vector<size_t>{1, 2} : std::vector<size_t>{1, 2, 4, 8};

  std::printf("%6s %8s %5s %10s %10s %10s %10s %6s %12s\n", "batch",
              "threads", "phase", "wall_ms", "q/s", "p50_ms", "p99_ms",
              "degr", "states/s");
  std::vector<ThroughputCell> cells;
  for (size_t batch : batches) {
    for (size_t threads : thread_counts) {
      size_t before = cells.size();
      RunCell(ctx, batch, threads, repeat, &cells);
      for (size_t i = before; i < cells.size(); ++i) {
        const ThroughputCell& cell = cells[i];
        std::printf(
            "%6zu %8zu %5s %10.1f %10.1f %10.2f %10.2f %6zu %12.0f\n",
            cell.batch, cell.threads, cell.warm ? "warm" : "cold",
            cell.wall_ms, cell.qps, cell.p50_ms, cell.p99_ms, cell.degraded,
            cell.states_per_sec);
      }
    }
  }

  std::string json;
  json += "{\n";
  json += "  \"bench\": \"throughput\",\n";
  char buf[256];
  std::snprintf(buf, sizeof buf,
                "  \"workload\": {\"movies\": 5000, \"profiles\": %zu, "
                "\"queries\": %zu, \"k\": 20, \"cmax_ms\": 400, "
                "\"algorithm\": \"C-Boundaries\"},\n",
                ctx.graphs().size(), ctx.queries().size());
  json += buf;
  std::snprintf(buf, sizeof buf, "  \"hardware_threads\": %u,\n",
                std::thread::hardware_concurrency());
  json += buf;
  std::snprintf(buf, sizeof buf, "  \"smoke\": %s,\n",
                smoke ? "true" : "false");
  json += buf;
  json += "  \"cells\": [\n";
  for (size_t i = 0; i < cells.size(); ++i) {
    AppendCellJson(json, cells[i], i + 1 == cells.size());
  }
  json += "  ]\n}\n";

  std::printf("\n%s", json.c_str());
  if (!json_path.empty()) {
    std::FILE* f = std::fopen(json_path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
      return 1;
    }
    std::fputs(json.c_str(), f);
    std::fclose(f);
    std::printf("wrote %s\n", json_path.c_str());
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  std::string json_path;
  size_t repeat = 1;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else if (std::strcmp(argv[i], "--repeat") == 0 && i + 1 < argc) {
      repeat = static_cast<size_t>(std::atoi(argv[++i]));
      if (repeat < 1) repeat = 1;
    } else {
      std::fprintf(stderr, "usage: %s [--smoke] [--json PATH] [--repeat N]\n",
                   argv[0]);
      return 2;
    }
  }
  return Run(smoke, json_path, repeat);
}
