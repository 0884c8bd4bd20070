#include "cqp/search_space.h"

#include <bit>
#include <limits>

#include "common/logging.h"

namespace cqp::cqp {

const char* SpaceKindName(SpaceKind kind) {
  switch (kind) {
    case SpaceKind::kCost:
      return "cost";
    case SpaceKind::kDoi:
      return "doi";
    case SpaceKind::kSize:
      return "size";
  }
  return "?";
}

SpaceView::SpaceView(const estimation::StateEvaluator* evaluator,
                     const ProblemSpec* problem, SpaceKind kind,
                     std::vector<int32_t> order)
    : evaluator_(evaluator),
      problem_(problem),
      kind_(kind),
      order_(std::move(order)) {
  CQP_CHECK(evaluator_ != nullptr);
  CQP_CHECK(problem_ != nullptr);
  CQP_CHECK_EQ(order_.size(), evaluator_->K());
}

SpaceView SpaceView::ForKind(const estimation::StateEvaluator* evaluator,
                             const ProblemSpec* problem, SpaceKind kind,
                             const space::PreferenceSpaceResult& result) {
  switch (kind) {
    case SpaceKind::kCost:
      CQP_CHECK_EQ(result.C.size(), result.prefs.size())
          << "cost vector missing: extract with build_cost_size_vectors";
      return SpaceView(evaluator, problem, kind, result.C);
    case SpaceKind::kDoi:
      return SpaceView(evaluator, problem, kind, result.D);
    case SpaceKind::kSize:
      CQP_CHECK_EQ(result.S.size(), result.prefs.size())
          << "size vector missing: extract with build_cost_size_vectors";
      return SpaceView(evaluator, problem, kind, result.S);
  }
  CQP_CHECK(false) << "unreachable";
  return SpaceView(evaluator, problem, kind, {});
}

IndexSet SpaceView::ToPrefIndices(const IndexSet& positions) const {
  std::vector<int32_t> indices;
  indices.reserve(positions.size());
  for (int32_t pos : positions) {
    indices.push_back(order_[static_cast<size_t>(pos)]);
  }
  return IndexSet::FromUnsorted(std::move(indices));
}

estimation::StateParams SpaceView::Evaluate(const IndexSet& positions,
                                            SearchMetrics& metrics) const {
  ++metrics.states_examined;
  if (evaluator_->K() < 64) {
    // Canonical path: integrate in ascending P-index order regardless of
    // this view's position order, so every space (C, D, S) computes
    // bit-for-bit identical floats for the same preference set.
    uint64_t bits = 0;
    for (int32_t pos : positions) {
      bits |= uint64_t{1} << order_[static_cast<size_t>(pos)];
    }
    return evaluator_->EvaluateBits(bits);
  }
  // K >= 64 (never produced by extraction, possible in synthetic tests):
  // no uint64_t mask exists; IndexSet iteration is ascending too.
  return evaluator_->Evaluate(ToPrefIndices(positions));
}

estimation::StateParams SpaceView::ExtendWith(
    const estimation::StateParams& parent, int32_t position,
    SearchMetrics& metrics) const {
  ++metrics.states_examined;
  ++metrics.transitions;
  return evaluator_->ExtendWith(parent,
                                order_[static_cast<size_t>(position)]);
}

bool SpaceView::WithinBound(const estimation::StateParams& params) const {
  switch (kind_) {
    case SpaceKind::kCost:
      // Phase-1 boundary search in the cost space is steered by the cost
      // bound only; other constraints are checked in phase 2, because
      // Vertical moves in this space have a known effect on cost alone.
      return !problem_->cmax_ms || params.cost_ms <= *problem_->cmax_ms;
    case SpaceKind::kSize:
      return !problem_->smin || params.size >= *problem_->smin;
    case SpaceKind::kDoi:
      // The doi-space chain algorithms only rely on the bound degrading
      // monotonically along Horizontal moves, which holds for the
      // conjunction of both degrading constraints.
      if (problem_->cmax_ms && params.cost_ms > *problem_->cmax_ms) {
        return false;
      }
      if (problem_->smin && params.size < *problem_->smin) return false;
      return true;
  }
  return true;
}

bool SpaceView::GreedyPhase2Exact() const {
  // The slot-swap scan below a boundary (C_FINDMAXDOI) relies on every swap
  // preserving the bound, which is only guaranteed for the space's own key
  // parameter. Constraints on other parameters force a region scan.
  switch (kind_) {
    case SpaceKind::kCost:
      return !problem_->smin.has_value() && !problem_->smax.has_value();
    case SpaceKind::kSize:
      return !problem_->cmax_ms.has_value() && !problem_->smax.has_value();
    case SpaceKind::kDoi:
      return false;  // phase-2 swaps are not used in the doi space
  }
  return false;
}

uint64_t SpaceView::PositionsToPrefBits(uint64_t pos_bits) const {
  uint64_t bits = 0;
  for (uint64_t rest = pos_bits; rest != 0; rest &= rest - 1) {
    bits |= uint64_t{1}
            << order_[static_cast<size_t>(std::countr_zero(rest))];
  }
  return bits;
}

void SpaceView::BumpFrontierCounters(size_t n, SearchMetrics& metrics) const {
  metrics.states_examined += n;
  ++metrics.frontiers_evaluated;
  metrics.frontier_states += n;
}

void SpaceView::EvaluateFrontierBits(
    const uint64_t* pos_bits, size_t n,
    estimation::BatchEvaluator::Results* out, SearchMetrics& metrics) const {
  CQP_CHECK(batch_enabled());
  frontier_scratch_.resize(n);
  for (size_t l = 0; l < n; ++l) {
    frontier_scratch_[l] = PositionsToPrefBits(pos_bits[l]);
  }
  batch_->EvaluateMasks(frontier_scratch_.data(), n, out);
  BumpFrontierCounters(n, metrics);
}

void SpaceView::ExtendFrontier(const estimation::StateParams& parent,
                               const int32_t* positions, size_t n,
                               estimation::BatchEvaluator::Results* out,
                               SearchMetrics& metrics) const {
  CQP_CHECK(batch_enabled());
  extend_scratch_.resize(n);
  for (size_t l = 0; l < n; ++l) {
    extend_scratch_[l] = order_[static_cast<size_t>(positions[l])];
  }
  batch_->ExtendBatch(parent, extend_scratch_.data(), n, out);
  metrics.transitions += n;
  BumpFrontierCounters(n, metrics);
}

FrontierMasks ClassifyFrontier(const SpaceView& view,
                               const estimation::BatchEvaluator::Results& r) {
  CQP_CHECK_LE(r.n, size_t{64});
  const ProblemSpec& problem = view.problem();
  const double inf = std::numeric_limits<double>::infinity();
  const double cmax = problem.cmax_ms.value_or(inf);
  const double dmin = problem.dmin.value_or(-inf);
  const double smin = problem.smin.value_or(-inf);
  const double smax = problem.smax.value_or(inf);
  double bound_cmax = inf;
  double bound_smin = -inf;
  switch (view.kind()) {
    case SpaceKind::kCost:
      bound_cmax = cmax;
      break;
    case SpaceKind::kSize:
      bound_smin = smin;
      break;
    case SpaceKind::kDoi:
      bound_cmax = cmax;
      bound_smin = smin;
      break;
  }
  FrontierMasks masks;
  for (size_t l = 0; l < r.n; ++l) {
    const double cost = r.cost_ms[l];
    const double doi = r.doi[l];
    const double size = r.size[l];
    const bool feasible =
        cost <= cmax && doi >= dmin && size >= smin && size <= smax;
    const bool within = cost <= bound_cmax && size >= bound_smin;
    masks.feasible |= static_cast<uint64_t>(feasible) << l;
    masks.within_bound |= static_cast<uint64_t>(within) << l;
  }
  return masks;
}

double SpaceView::BestExpectedDoi(size_t n) const {
  estimation::StateParams params = evaluator_->EmptyState();
  size_t limit = std::min(n, evaluator_->K());
  // P is sorted by doi descending, so the first `limit` P-indices are the
  // best preferences.
  for (size_t i = 0; i < limit; ++i) {
    params = evaluator_->ExtendWith(params, static_cast<int32_t>(i));
  }
  return params.doi;
}

}  // namespace cqp::cqp
