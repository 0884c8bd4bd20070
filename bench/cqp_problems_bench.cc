// Table 1 coverage: solves all six CQP problems on the same instances and
// reports winners, parameters and solve times. Also serves as an ablation
// of the exact solver vs the heuristic for each objective.

#include <cstdio>

#include "bench_util.h"

namespace {

using namespace cqp::bench;  // NOLINT
using cqp::cqp::ProblemSpec;

struct Row {
  const char* label;
  ProblemSpec problem;
  const char* exact;
  const char* heuristic;
};

int Run() {
  std::setvbuf(stdout, nullptr, _IOLBF, 0);
  std::printf("Table 1 — all six CQP problems on identical instances\n\n");
  auto config = DefaultConfig();
  config.n_profiles = 3;
  config.query.n_queries = 3;
  auto ctx_or = cqp::workload::ExperimentContext::Create(config);
  if (!ctx_or.ok()) {
    std::fprintf(stderr, "%s\n", ctx_or.status().ToString().c_str());
    return 1;
  }
  auto ctx = *std::move(ctx_or);
  auto instances_or = cqp::workload::BuildInstances(ctx, 12);
  if (!instances_or.ok()) {
    std::fprintf(stderr, "%s\n", instances_or.status().ToString().c_str());
    return 1;
  }
  auto instances = *std::move(instances_or);

  // Per-instance bounds scaled from the instance itself so every problem is
  // non-trivial: cost bound at 40% of Supreme, size window below size(Q).
  auto problems_for = [&](int number) {
    std::vector<ProblemSpec> problems;
    for (const auto& inst : instances) {
      double cmax = 0.4 * inst.supreme_cost_ms;
      double smax = 0.5 * inst.space.base.size;
      double smin = 1.0;
      double dmin = 0.85;
      switch (number) {
        case 1:
          problems.push_back(ProblemSpec::Problem1(smin, smax));
          break;
        case 2:
          problems.push_back(ProblemSpec::Problem2(cmax));
          break;
        case 3:
          problems.push_back(ProblemSpec::Problem3(cmax, smin, smax));
          break;
        case 4:
          problems.push_back(ProblemSpec::Problem4(dmin));
          break;
        case 5:
          problems.push_back(ProblemSpec::Problem5(dmin, smin, smax));
          break;
        default:
          problems.push_back(ProblemSpec::Problem6(smin, smax));
          break;
      }
    }
    return problems;
  };

  const Row rows[] = {
      {"P1 MAX doi | size in [1, 0.5*size(Q)]", ProblemSpec(), "C-Boundaries",
       "D-SingleMaxDoi"},
      {"P2 MAX doi | cost <= 0.4*Supreme", ProblemSpec(), "C-Boundaries",
       "C-MaxBounds"},
      {"P3 MAX doi | cost & size bounds", ProblemSpec(), "C-Boundaries",
       "D-HeurDoi"},
      {"P4 MIN cost | doi >= 0.85", ProblemSpec(), "MinCost-BB",
       "MinCost-Greedy"},
      {"P5 MIN cost | doi >= 0.85 & size", ProblemSpec(), "MinCost-BB",
       "MinCost-Greedy"},
      {"P6 MIN cost | size in [1, 0.5*size(Q)]", ProblemSpec(), "MinCost-BB",
       "MinCost-Greedy"},
  };

  std::printf("%-40s %-15s %9s %10s %10s %8s %7s\n", "problem", "algorithm",
              "doi", "cost[ms]", "size", "time[us]", "infeas");
  for (int p = 1; p <= 6; ++p) {
    auto problems = problems_for(p);
    const Row& row = rows[p - 1];
    for (const char* algorithm : {row.exact, row.heuristic}) {
      double doi = 0, cost = 0, size = 0, wall = 0;
      size_t feasible = 0, infeasible = 0;
      for (size_t i = 0; i < instances.size(); ++i) {
        const cqp::cqp::Algorithm* algo = *cqp::cqp::GetAlgorithm(algorithm);
        cqp::cqp::SearchContext search_ctx;
        auto sol = algo->Solve(instances[i].space, problems[i], search_ctx);
        if (!sol.ok()) continue;
        wall += search_ctx.metrics.wall_ms;
        if (!sol->feasible) {
          ++infeasible;
          continue;
        }
        doi += sol->params.doi;
        cost += sol->params.cost_ms;
        size += sol->params.size;
        ++feasible;
      }
      double fn = feasible > 0 ? static_cast<double>(feasible) : 1.0;
      std::printf("%-40s %-15s %9.4f %10.1f %10.1f %8.1f %5zu/%zu\n",
                  row.label, algorithm, doi / fn, cost / fn, size / fn,
                  1000.0 * wall / static_cast<double>(instances.size()),
                  infeasible, instances.size());
    }
  }
  std::printf(
      "\nExpected shape: heuristics match the exact doi closely on P1-P3;\n"
      "MinCost-Greedy is never cheaper than MinCost-BB on P4-P6.\n");
  return 0;
}

}  // namespace

int main() { return Run(); }
