#include <algorithm>
#include <bit>
#include <optional>
#include <vector>

#include "common/stopwatch.h"
#include "cqp/algorithms.h"
#include "cqp/search_util.h"
#include "estimation/batch_evaluator.h"

namespace cqp::cqp {

namespace {

/// Tail width of the batched enumeration: once a node has this many order
/// positions left, its whole subtree (2^4 = 16 subsets of the remaining
/// preferences) is evaluated as one frontier instead of recursing.
constexpr size_t kBbTailBits = 4;

/// Shared context of the branch-and-bound recursion. Preferences are
/// visited in cost-ascending order so that prefixes of the recursion tree
/// are the cheap ones.
struct BbContext {
  const estimation::StateEvaluator* evaluator = nullptr;
  const ProblemSpec* problem = nullptr;
  SearchContext* ctx = nullptr;
  std::vector<int32_t> order;       // cost-ascending P indices
  std::vector<double> suffix_doi;   // doi of order[i..] combined
  Solution best;
  std::vector<int32_t> current;     // chosen P indices (recursion stack)
  const estimation::BatchEvaluator* batch = nullptr;
  std::vector<uint64_t> tail_masks;  // 16 membership masks; mask l == l
  estimation::BatchEvaluator::Results results;
};

/// Evaluates the 2^kBbTailBits subsets of the remaining suffix in one
/// batch call. The node has already passed the scalar prunes, which are
/// admissible: every state they skip is provably no better than the final
/// incumbent, so evaluating the full (unpruned) tail can change which
/// equal-cost solution is recorded but never the objective value. Lane l's
/// members are { order[i+j] : bit j of l }, applied in the same
/// cost-ascending sequence the scalar recursion extends in, so each lane
/// is bit-for-bit the scalar chain of that subset.
void BbBatchTail(BbContext& ctx, size_t i,
                 const estimation::StateParams& params) {
  const size_t n = ctx.tail_masks.size();
  ctx.batch->EvaluateSequence(params, &ctx.order[i], kBbTailBits,
                              ctx.tail_masks.data(), n, &ctx.results);
  SearchMetrics& metrics = ctx.ctx->metrics;
  metrics.states_examined += n;
  ++metrics.frontiers_evaluated;
  metrics.frontier_states += n;
  const ProblemSpec& problem = *ctx.problem;
  for (size_t l = 0; l < n; ++l) {
    estimation::StateParams leaf = ctx.results.Get(l);
    if (!problem.IsFeasible(leaf)) continue;
    if (ctx.best.feasible && !problem.Better(leaf, ctx.best.params)) {
      continue;
    }
    ctx.best.feasible = true;
    ctx.best.params = leaf;
    std::vector<int32_t> chosen = ctx.current;
    for (uint64_t rest = ctx.tail_masks[l]; rest != 0; rest &= rest - 1) {
      chosen.push_back(
          ctx.order[i + static_cast<size_t>(std::countr_zero(rest))]);
    }
    ctx.best.chosen = IndexSet::FromUnsorted(std::move(chosen));
  }
}

void BbRecurse(BbContext& ctx, size_t i,
               const estimation::StateParams& params) {
  if (ctx.ctx->ShouldStop()) return;
  ++ctx.ctx->metrics.states_examined;
  const ProblemSpec& problem = *ctx.problem;

  if (problem.IsFeasible(params)) {
    // Feasible: extensions only add cost, so record and backtrack.
    if (!ctx.best.feasible || problem.Better(params, ctx.best.params)) {
      ctx.best.feasible = true;
      ctx.best.params = params;
      ctx.best.chosen = IndexSet::FromUnsorted(ctx.current);
    }
    return;
  }

  if (i >= ctx.order.size()) return;

  // Bound prunes (all constraints are monotone along extensions):
  //  * cost only grows; a state at or above the incumbent cannot win;
  //  * doi can at most reach the combination with the whole suffix;
  //  * size only shrinks, so smin, once violated, stays violated.
  // The doi/size bounds are admissible in real arithmetic but are computed
  // in a different operation order than a full evaluation, so they are
  // padded by an ulp-scale slack: without it a bound landing one ulp below
  // a dmin that exactly equals a reachable state's doi prunes the subtree
  // holding the optimum.
  constexpr double kFpSlack = 1e-12;
  if (ctx.best.feasible && params.cost_ms >= ctx.best.params.cost_ms) return;
  if (problem.dmin) {
    double max_doi =
        1.0 - (1.0 - params.doi) * (1.0 - ctx.suffix_doi[i]);
    if (ctx.evaluator->conjunction_model() ==
        prefs::ConjunctionModel::kSumCapped) {
      max_doi = std::min(1.0, params.doi + ctx.suffix_doi[i]);
    }
    if (max_doi < *problem.dmin - kFpSlack) return;
  }
  if (problem.smin && params.size < *problem.smin * (1.0 - kFpSlack)) return;

  // Batched tail: the prunes above have run for this node, so handing the
  // whole remaining subtree to one frontier evaluation preserves the
  // incumbent's objective (see BbBatchTail).
  if (ctx.batch != nullptr && ctx.order.size() - i == kBbTailBits) {
    BbBatchTail(ctx, i, params);
    return;
  }

  // Include order[i] first (cheapest-first tends to find good incumbents
  // early, tightening the cost bound).
  int32_t pref = ctx.order[i];
  ctx.current.push_back(pref);
  BbRecurse(ctx, i + 1, ctx.evaluator->ExtendWith(params, pref));
  ctx.current.pop_back();
  // Exclude order[i].
  BbRecurse(ctx, i + 1, params);
}

}  // namespace

bool MinCostBranchBoundAlgorithm::Supports(const ProblemSpec& problem) const {
  return problem.Validate().ok() &&
         problem.objective == Objective::kMinimizeCost;
}

bool MinCostBranchBoundAlgorithm::IsExactFor(
    const ProblemSpec& problem) const {
  return Supports(problem);
}

StatusOr<Solution> MinCostBranchBoundAlgorithm::Solve(
    const space::PreferenceSpaceResult& space, const ProblemSpec& problem,
    SearchContext& search_ctx) const {
  CQP_RETURN_IF_ERROR(problem.Validate());
  if (problem.objective != Objective::kMinimizeCost) {
    return FailedPrecondition("MinCost-BB solves cost-minimization problems");
  }
  Stopwatch timer;
  estimation::StateEvaluator evaluator = space.MakeEvaluator();

  BbContext ctx;
  ctx.evaluator = &evaluator;
  ctx.problem = &problem;
  ctx.ctx = &search_ctx;
  ctx.best = InfeasibleSolution(evaluator);
  std::optional<estimation::BatchEvaluator> local_batch;
  ctx.batch = ResolveBatchEvaluator(space, search_ctx, local_batch);
  if (ctx.batch != nullptr) {
    // Lane l's mask over the 4-preference suffix is l itself (bit j of
    // lane l selects order[i+j]).
    ctx.tail_masks.resize(size_t{1} << kBbTailBits);
    for (size_t l = 0; l < ctx.tail_masks.size(); ++l) {
      ctx.tail_masks[l] = static_cast<uint64_t>(l);
    }
  }
  ctx.order.resize(evaluator.K());
  for (size_t i = 0; i < ctx.order.size(); ++i) {
    ctx.order[i] = static_cast<int32_t>(i);
  }
  std::sort(ctx.order.begin(), ctx.order.end(), [&](int32_t a, int32_t b) {
    double ca = evaluator.pref(static_cast<size_t>(a)).cost_ms;
    double cb = evaluator.pref(static_cast<size_t>(b)).cost_ms;
    if (ca != cb) return ca < cb;
    return a < b;
  });
  // suffix_doi[i]: combined doi of order[i..K-1] under the noisy-or model
  // (or plain sum-cap), used as an admissible doi upper bound.
  ctx.suffix_doi.assign(evaluator.K() + 1, 0.0);
  for (size_t i = evaluator.K(); i-- > 0;) {
    double d = evaluator.pref(static_cast<size_t>(ctx.order[i])).doi;
    switch (evaluator.conjunction_model()) {
      case prefs::ConjunctionModel::kNoisyOr:
        ctx.suffix_doi[i] = 1.0 - (1.0 - ctx.suffix_doi[i + 1]) * (1.0 - d);
        break;
      case prefs::ConjunctionModel::kSumCapped:
        ctx.suffix_doi[i] = std::min(1.0, ctx.suffix_doi[i + 1] + d);
        break;
    }
  }

  BbRecurse(ctx, 0, evaluator.EmptyState());

  ctx.best.degraded = search_ctx.exhausted();
  search_ctx.metrics.wall_ms = timer.ElapsedMillis();
  return ctx.best;
}

bool MinCostGreedyAlgorithm::Supports(const ProblemSpec& problem) const {
  return problem.Validate().ok() &&
         problem.objective == Objective::kMinimizeCost;
}

bool MinCostGreedyAlgorithm::IsExactFor(const ProblemSpec&) const {
  return false;
}

StatusOr<Solution> MinCostGreedyAlgorithm::Solve(
    const space::PreferenceSpaceResult& space, const ProblemSpec& problem,
    SearchContext& ctx) const {
  CQP_RETURN_IF_ERROR(problem.Validate());
  if (problem.objective != Objective::kMinimizeCost) {
    return FailedPrecondition(
        "MinCost-Greedy solves cost-minimization problems");
  }
  Stopwatch timer;
  SearchMetrics& metrics = ctx.metrics;
  estimation::StateEvaluator evaluator = space.MakeEvaluator();
  const size_t k = evaluator.K();

  estimation::StateParams params = evaluator.EmptyState();
  std::vector<bool> used(k, false);
  std::vector<int32_t> chosen;
  ++metrics.states_examined;

  // Add the preference with the best doi-per-cost ratio (among those not
  // violating smin) until feasible or exhausted.
  while (!problem.IsFeasible(params) && !ctx.ShouldStop()) {
    // Pick the gain that addresses the violated constraint: doi per cost
    // while doi >= dmin is unmet, result shrinkage per cost while
    // size <= smax is unmet.
    bool need_doi = problem.dmin && params.doi < *problem.dmin;
    int32_t best_i = -1;
    double best_ratio = -1.0;
    for (size_t i = 0; i < k; ++i) {
      if (used[i]) continue;
      const estimation::ScoredPreference& p = evaluator.pref(i);
      if (problem.smin && params.size * p.selectivity < *problem.smin) {
        continue;
      }
      double gain = need_doi ? p.doi : (1.0 - p.selectivity) + 1e-9;
      double ratio = gain / std::max(p.cost_ms, 1e-9);
      if (ratio > best_ratio) {
        best_ratio = ratio;
        best_i = static_cast<int32_t>(i);
      }
    }
    if (best_i < 0) break;
    used[static_cast<size_t>(best_i)] = true;
    chosen.push_back(best_i);
    params = evaluator.ExtendWith(params, best_i);
    ++metrics.states_examined;
  }

  if (!problem.IsFeasible(params)) {
    Solution s = InfeasibleSolution(evaluator);
    s.degraded = ctx.exhausted();
    metrics.wall_ms = timer.ElapsedMillis();
    return s;
  }

  // Drop pass: remove members whose removal keeps feasibility (cheapest
  // solution wins, so dropping is always an improvement when allowed).
  // Try most expensive members first.
  std::sort(chosen.begin(), chosen.end(), [&](int32_t a, int32_t b) {
    return evaluator.pref(static_cast<size_t>(a)).cost_ms >
           evaluator.pref(static_cast<size_t>(b)).cost_ms;
  });
  for (size_t drop = 0; drop < chosen.size() && !ctx.ShouldStop();) {
    std::vector<int32_t> trial;
    trial.reserve(chosen.size() - 1);
    for (size_t i = 0; i < chosen.size(); ++i) {
      if (i != drop) trial.push_back(chosen[i]);
    }
    estimation::StateParams trial_params =
        evaluator.Evaluate(IndexSet::FromUnsorted(trial));
    ++metrics.states_examined;
    if (problem.IsFeasible(trial_params)) {
      chosen = std::move(trial);
      params = trial_params;
      // restart scan: earlier drops may have become possible
      drop = 0;
    } else {
      ++drop;
    }
  }

  Solution s;
  s.feasible = true;
  s.degraded = ctx.exhausted();
  s.chosen = IndexSet::FromUnsorted(chosen);
  s.params = params;
  metrics.wall_ms = timer.ElapsedMillis();
  return s;
}

}  // namespace cqp::cqp
