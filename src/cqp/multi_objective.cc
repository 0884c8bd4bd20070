#include "cqp/multi_objective.h"

#include <algorithm>

#include "common/stopwatch.h"
#include "common/str_util.h"
#include "cqp/search_util.h"

namespace cqp::cqp {

namespace {

/// 2^K enumeration guard for the Pareto front.
constexpr size_t kMaxParetoK = 20;
/// Branch-and-bound guard (prunes hard, but worst case is exponential).
constexpr size_t kMaxScalarizedK = 25;

}  // namespace

Status MultiObjectiveSpec::Validate() const {
  if (doi_weight < 0 || cost_weight < 0 || size_weight < 0) {
    return InvalidArgument("multi-objective weights must be >= 0");
  }
  if (doi_weight == 0 && cost_weight == 0 && size_weight == 0) {
    return InvalidArgument("at least one objective weight must be positive");
  }
  if (cost_scale <= 0 || size_scale <= 0) {
    return InvalidArgument("scales must be positive");
  }
  if (smin && smax && *smin > *smax) {
    return InvalidArgument("smin must be <= smax");
  }
  if (dmin && (*dmin < 0 || *dmin > 1)) {
    return InvalidArgument("dmin must be in [0,1]");
  }
  return Status::OK();
}

double MultiObjectiveSpec::Score(
    const estimation::StateParams& params) const {
  return doi_weight * params.doi - cost_weight * params.cost_ms / cost_scale -
         size_weight * params.size / size_scale;
}

bool MultiObjectiveSpec::IsFeasible(
    const estimation::StateParams& params) const {
  if (cmax_ms && params.cost_ms > *cmax_ms) return false;
  if (dmin && params.doi < *dmin) return false;
  if (smin && params.size < *smin) return false;
  if (smax && params.size > *smax) return false;
  return true;
}

std::string MultiObjectiveSpec::ToString() const {
  std::string out = StrFormat(
      "score = %.2f*doi - %.2f*cost/%.0f - %.2f*size/%.0f", doi_weight,
      cost_weight, cost_scale, size_weight, size_scale);
  if (cmax_ms) out += StrFormat(", cost <= %.1f", *cmax_ms);
  if (dmin) out += StrFormat(", doi >= %.2f", *dmin);
  if (smin) out += StrFormat(", size >= %.1f", *smin);
  if (smax) out += StrFormat(", size <= %.1f", *smax);
  return out;
}

StatusOr<std::vector<ParetoPoint>> ParetoFront(
    const space::PreferenceSpaceResult& space, const MultiObjectiveSpec& spec,
    SearchContext& ctx) {
  CQP_RETURN_IF_ERROR(spec.Validate());
  if (space.K() > kMaxParetoK) {
    return FailedPrecondition("ParetoFront enumerates 2^K states; K > 20");
  }
  Stopwatch timer;
  estimation::StateEvaluator evaluator = space.MakeEvaluator();

  std::vector<ParetoPoint> feasible;
  std::vector<int32_t> current;
  // Depth-first enumeration with incremental parameters.
  auto recurse = [&](auto&& self, size_t i,
                     const estimation::StateParams& params) -> void {
    if (ctx.ShouldStop()) return;
    if (i == evaluator.K()) {
      ++ctx.metrics.states_examined;
      if (spec.IsFeasible(params)) {
        feasible.push_back({IndexSet::FromUnsorted(current), params});
      }
      return;
    }
    self(self, i + 1, params);
    current.push_back(static_cast<int32_t>(i));
    self(self, i + 1, evaluator.ExtendWith(params, static_cast<int32_t>(i)));
    current.pop_back();
  };
  recurse(recurse, 0, evaluator.EmptyState());

  // Skyline over (cost ↓, doi ↑): sort by cost ascending (doi descending on
  // ties) and keep each point that strictly improves doi.
  std::sort(feasible.begin(), feasible.end(),
            [](const ParetoPoint& a, const ParetoPoint& b) {
              if (a.params.cost_ms != b.params.cost_ms) {
                return a.params.cost_ms < b.params.cost_ms;
              }
              if (a.params.doi != b.params.doi) {
                return a.params.doi > b.params.doi;
              }
              return a.chosen < b.chosen;
            });
  std::vector<ParetoPoint> front;
  double best_doi = -1.0;
  for (ParetoPoint& p : feasible) {
    if (p.params.doi > best_doi) {
      best_doi = p.params.doi;
      front.push_back(std::move(p));
    }
  }
  ctx.metrics.wall_ms = timer.ElapsedMillis();
  return front;
}

namespace {

struct ScalarizedContext {
  const estimation::StateEvaluator* evaluator = nullptr;
  const MultiObjectiveSpec* spec = nullptr;
  SearchContext* search = nullptr;
  std::vector<int32_t> order;        // cost-ascending P indices
  std::vector<double> suffix_doi;    // noisy-or doi of order[i..]
  std::vector<double> suffix_shrink; // product of selectivities of order[i..]
  Solution best;
  double best_score = 0.0;
  std::vector<int32_t> current;
};

void ScalarizedRecurse(ScalarizedContext& ctx, size_t i,
                       const estimation::StateParams& params) {
  if (ctx.search->ShouldStop()) return;
  ++ctx.search->metrics.states_examined;
  const MultiObjectiveSpec& spec = *ctx.spec;

  if (spec.IsFeasible(params)) {
    double score = spec.Score(params);
    if (!ctx.best.feasible || score > ctx.best_score) {
      ctx.best.feasible = true;
      ctx.best.params = params;
      ctx.best.chosen = IndexSet::FromUnsorted(ctx.current);
      ctx.best_score = score;
    }
  }
  if (i >= ctx.order.size()) return;

  // Monotone constraint prunes.
  if (spec.cmax_ms && params.cost_ms > *spec.cmax_ms) return;
  if (spec.smin && params.size < *spec.smin) return;
  double doi_ub;
  switch (ctx.evaluator->conjunction_model()) {
    case prefs::ConjunctionModel::kSumCapped:
      doi_ub = std::min(1.0, params.doi + ctx.suffix_doi[i]);
      break;
    case prefs::ConjunctionModel::kNoisyOr:
    default:
      doi_ub = 1.0 - (1.0 - params.doi) * (1.0 - ctx.suffix_doi[i]);
      break;
  }
  if (spec.dmin && doi_ub < *spec.dmin) return;

  // Admissible score bound: best doi still reachable, cost at its current
  // value (it only grows), size at its maximal shrink.
  if (ctx.best.feasible) {
    double min_size = params.size * ctx.suffix_shrink[i];
    double bound = spec.doi_weight * doi_ub -
                   spec.cost_weight * params.cost_ms / spec.cost_scale -
                   spec.size_weight * min_size / spec.size_scale;
    if (bound <= ctx.best_score) return;
  }

  int32_t pref = ctx.order[i];
  ctx.current.push_back(pref);
  ScalarizedRecurse(ctx, i + 1, ctx.evaluator->ExtendWith(params, pref));
  ctx.current.pop_back();
  ScalarizedRecurse(ctx, i + 1, params);
}

}  // namespace

StatusOr<Solution> SolveScalarized(const space::PreferenceSpaceResult& space,
                                   const MultiObjectiveSpec& spec,
                                   SearchContext& search) {
  CQP_RETURN_IF_ERROR(spec.Validate());
  if (space.K() > kMaxScalarizedK) {
    return FailedPrecondition("SolveScalarized refuses K > 25");
  }
  Stopwatch timer;
  estimation::StateEvaluator evaluator = space.MakeEvaluator();

  ScalarizedContext ctx;
  ctx.evaluator = &evaluator;
  ctx.spec = &spec;
  ctx.search = &search;
  ctx.best = InfeasibleSolution(evaluator);
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
  ctx.suffix_doi.assign(evaluator.K() + 1, 0.0);
  ctx.suffix_shrink.assign(evaluator.K() + 1, 1.0);
  for (size_t i = evaluator.K(); i-- > 0;) {
    const auto& p = evaluator.pref(static_cast<size_t>(ctx.order[i]));
    switch (evaluator.conjunction_model()) {
      case prefs::ConjunctionModel::kNoisyOr:
        ctx.suffix_doi[i] = 1.0 - (1.0 - ctx.suffix_doi[i + 1]) * (1.0 - p.doi);
        break;
      case prefs::ConjunctionModel::kSumCapped:
        ctx.suffix_doi[i] = std::min(1.0, ctx.suffix_doi[i + 1] + p.doi);
        break;
    }
    ctx.suffix_shrink[i] = ctx.suffix_shrink[i + 1] * p.selectivity;
  }

  ScalarizedRecurse(ctx, 0, evaluator.EmptyState());
  ctx.best.degraded = search.exhausted();
  search.metrics.wall_ms = timer.ElapsedMillis();
  return ctx.best;
}

}  // namespace cqp::cqp
