#include "common/stopwatch.h"
#include "cqp/algorithms.h"
#include "cqp/search_util.h"
#include "cqp/transitions.h"

namespace cqp::cqp {

bool DSingleMaxDoiAlgorithm::Supports(const ProblemSpec& problem) const {
  return problem.Validate().ok() &&
         problem.objective == Objective::kMaximizeDoi;
}

bool DSingleMaxDoiAlgorithm::IsExactFor(const ProblemSpec&) const {
  return false;  // greedy maximal sets; quality evaluated in Fig. 14
}

StatusOr<Solution> DSingleMaxDoiAlgorithm::Solve(
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

  VisitedSet visited(metrics);

  // Rounds over seeds in decreasing doi order (paper Fig. 10); stop when
  // the best doi expected from the remaining suffix cannot improve.
  for (size_t seed = 0; seed < k; ++seed) {
    if (ctx.ShouldStop()) break;
    // BestExpectedDoi({p_seed..p_K}) — the suffix bound of the pseudocode.
    // (The greedy fill may add positions before the seed, so this bound is
    // the paper's heuristic stop, not a proof of optimality.)
    {
      estimation::StateParams suffix = evaluator.EmptyState();
      for (size_t j = seed; j < k; ++j) {
        suffix = evaluator.ExtendWith(
            suffix, view.PrefIndexAt(static_cast<int32_t>(j)));
      }
      if (best.feasible && best.params.doi > suffix.doi) break;
    }

    StateQueue queue(metrics);
    IndexSet seed_state({static_cast<int32_t>(seed)});
    if (visited.CheckAndInsert(seed_state)) continue;
    queue.PushBack(std::move(seed_state));

    while (!queue.empty()) {
      if (ctx.ShouldStop()) break;
      IndexSet state = queue.PopFront();
      estimation::StateParams params = view.Evaluate(state, metrics);
      FillResult fill = GreedyFill(view, state, params, nullptr, ctx);
      if (view.WithinBound(fill.params)) consider(fill.state, fill.params);

      // Paper Fig. 10 step 3.3.5: stop at the first neighbor that drops
      // the seed ("exit for").
      for (IndexSet& v : VerticalNeighbors(fill.state, k)) {
        ++metrics.transitions;
        if (!v.Contains(static_cast<int32_t>(seed))) break;
        if (visited.CheckAndInsert(v)) continue;
        queue.PushBack(std::move(v));
      }
    }
  }

  best.degraded = ctx.exhausted();
  metrics.wall_ms = timer.ElapsedMillis();
  return best;
}

}  // namespace cqp::cqp
