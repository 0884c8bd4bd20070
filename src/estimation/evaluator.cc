#include "estimation/evaluator.h"

#include <algorithm>
#include <bit>

#include "common/logging.h"

namespace cqp::estimation {

StateEvaluator::StateEvaluator(const QueryBaseEstimate& base,
                               const std::vector<ScoredPreference>& prefs,
                               prefs::ConjunctionModel model)
    : base_(base), prefs_(&prefs), model_(model) {
  for (const ScoredPreference& p : *prefs_) {
    CQP_CHECK(prefs::IsValidDoi(p.doi));
    CQP_CHECK_GE(p.cost_ms, base_.cost_ms);
    CQP_CHECK_GE(p.selectivity, 0.0);
    CQP_CHECK_LE(p.selectivity, 1.0);
  }
}

StateParams StateEvaluator::EmptyState() const {
  StateParams s;
  s.doi = 0.0;
  s.cost_ms = base_.cost_ms;
  s.size = base_.size;
  s.count = 0;
  return s;
}

StateParams StateEvaluator::SupremeState() const {
  StateParams s = EmptyState();
  for (size_t i = 0; i < prefs_->size(); ++i) {
    s = ExtendWith(s, static_cast<int32_t>(i));
  }
  return s;
}

StateParams StateEvaluator::Evaluate(const IndexSet& subset) const {
  StateParams s = EmptyState();
  for (int32_t i : subset) {
    CQP_CHECK_LT(static_cast<size_t>(i), prefs_->size());
    s = ExtendWith(s, i);
  }
  return s;
}

StateParams StateEvaluator::EvaluateBits(uint64_t bits) const {
  StateParams s = EmptyState();
  while (bits != 0) {
    int32_t i = std::countr_zero(bits);
    CQP_CHECK_LT(static_cast<size_t>(i), prefs_->size());
    s = ExtendWith(s, i);
    bits &= bits - 1;
  }
  return s;
}

StateParams StateEvaluator::ExtendWith(const StateParams& parent,
                                       int32_t i) const {
  const ScoredPreference& p = (*prefs_)[static_cast<size_t>(i)];
  StateParams s;
  // Formula 6: the empty state's base-query cost is *replaced* by the first
  // sub-query's cost (which already includes scanning Q's relations).
  s.cost_ms = (parent.count == 0 ? 0.0 : parent.cost_ms) + p.cost_ms;
  s.size = parent.size * p.selectivity;
  switch (model_) {
    case prefs::ConjunctionModel::kNoisyOr:
      s.doi = 1.0 - (1.0 - parent.doi) * (1.0 - p.doi);
      break;
    case prefs::ConjunctionModel::kSumCapped:
      s.doi = std::min(1.0, parent.doi + p.doi);
      break;
  }
  s.count = parent.count + 1;
  return s;
}

double StateEvaluator::ConjunctionDoi(const IndexSet& subset) const {
  return Evaluate(subset).doi;
}

}  // namespace cqp::estimation
