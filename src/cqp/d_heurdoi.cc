#include <vector>

#include "common/stopwatch.h"
#include "cqp/algorithms.h"
#include "cqp/search_util.h"
#include "cqp/transitions.h"

namespace cqp::cqp {

bool DHeurDoiAlgorithm::Supports(const ProblemSpec& problem) const {
  return problem.Validate().ok() &&
         problem.objective == Objective::kMaximizeDoi;
}

bool DHeurDoiAlgorithm::IsExactFor(const ProblemSpec&) const {
  return false;  // heuristic by design (paper Fig. 11)
}

StatusOr<Solution> DHeurDoiAlgorithm::Solve(
    const space::PreferenceSpaceResult& space, const ProblemSpec& problem,
    SearchContext& ctx) const {
  CQP_RETURN_IF_ERROR(problem.Validate());
  Stopwatch timer;
  SearchMetrics& metrics = ctx.metrics;
  estimation::StateEvaluator evaluator = space.MakeEvaluator();
  SpaceView view =
      SpaceView::ForKind(&evaluator, &problem, SpaceKind::kDoi, space);
  const size_t k = view.K();

  Solution best = InfeasibleSolution(evaluator);
  {
    estimation::StateParams empty = evaluator.EmptyState();
    ++metrics.states_examined;
    if (problem.IsFeasible(empty)) {
      best.feasible = true;
      best.params = empty;
    }
  }

  auto consider = [&](const IndexSet& state,
                      const estimation::StateParams& params) {
    if (!view.Feasible(params)) return;
    if (!best.feasible || problem.Better(params, best.params)) {
      best = MakeSolution(view, state, params);
    }
  };

  for (size_t seed = 0; seed < k; ++seed) {
    if (ctx.ShouldStop()) break;
    // BestExpectedDoi stop: the doi of the whole remaining suffix.
    {
      estimation::StateParams suffix = evaluator.EmptyState();
      for (size_t j = seed; j < k; ++j) {
        suffix = evaluator.ExtendWith(
            suffix, view.PrefIndexAt(static_cast<int32_t>(j)));
      }
      if (best.feasible && best.params.doi > suffix.doi) break;
    }

    // (a) Greedy fill from the seed.
    IndexSet seed_state({static_cast<int32_t>(seed)});
    estimation::StateParams seed_params = view.Evaluate(seed_state, metrics);
    FillResult fill = GreedyFill(view, seed_state, seed_params, nullptr, ctx);
    if (!view.WithinBound(fill.params)) continue;  // seed alone too costly
    consider(fill.state, fill.params);

    // (b) Refinement: drop trailing members one at a time and refill with
    // the dropped member banned (paper step 2.5; the pseudocode's
    // "R'' != R'" is read as "do not rebuild the original node").
    metrics.memory.Allocate(fill.state.MemoryBytes());
    std::vector<bool> banned(k, false);
    for (size_t t = fill.state.size(); t >= 2; --t) {
      if (ctx.ShouldStop()) break;
      IndexSet prefix = fill.state.Prefix(t - 1);
      int32_t dropped = fill.state[t - 1];
      banned.assign(k, false);
      banned[static_cast<size_t>(dropped)] = true;
      estimation::StateParams prefix_params = view.Evaluate(prefix, metrics);
      FillResult refined = GreedyFill(view, prefix, prefix_params, &banned, ctx);
      if (view.WithinBound(refined.params)) {
        consider(refined.state, refined.params);
      }
    }
    metrics.memory.Release(fill.state.MemoryBytes());
  }

  best.degraded = ctx.exhausted();
  metrics.wall_ms = timer.ElapsedMillis();
  return best;
}

}  // namespace cqp::cqp
