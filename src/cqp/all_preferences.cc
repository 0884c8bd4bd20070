#include "common/stopwatch.h"
#include "cqp/algorithms.h"
#include "cqp/search_util.h"

namespace cqp::cqp {

bool AllPreferencesAlgorithm::Supports(const ProblemSpec& problem) const {
  return problem.Validate().ok();
}

bool AllPreferencesAlgorithm::IsExactFor(const ProblemSpec&) const {
  return false;  // it does not optimize anything under the constraints
}

StatusOr<Solution> AllPreferencesAlgorithm::Solve(
    const space::PreferenceSpaceResult& space, const ProblemSpec& problem,
    SearchContext& ctx) const {
  CQP_RETURN_IF_ERROR(problem.Validate());
  Stopwatch timer;
  estimation::StateEvaluator evaluator = space.MakeEvaluator();

  Solution s;
  std::vector<int32_t> all;
  all.reserve(evaluator.K());
  for (size_t i = 0; i < evaluator.K(); ++i) {
    all.push_back(static_cast<int32_t>(i));
  }
  s.chosen = IndexSet::FromUnsorted(std::move(all));
  s.params = evaluator.SupremeState();
  s.feasible = problem.IsFeasible(s.params);
  ++ctx.metrics.states_examined;
  ctx.metrics.wall_ms = timer.ElapsedMillis();
  return s;
}

}  // namespace cqp::cqp
