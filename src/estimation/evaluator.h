#ifndef CQP_ESTIMATION_EVALUATOR_H_
#define CQP_ESTIMATION_EVALUATOR_H_

#include <cstdint>
#include <vector>

#include "common/index_set.h"
#include "estimation/estimate.h"
#include "prefs/doi.h"
#include "prefs/preference.h"

namespace cqp::estimation {

/// A preference admitted into the preference space P, together with its
/// estimated per-sub-query parameters.
struct ScoredPreference {
  prefs::ImplicitPreference pref;
  double doi = 0.0;          ///< composed doi of the (implicit) preference
  double cost_ms = 0.0;      ///< cost(Q ∧ pref) of the sub-query
  double size = 0.0;         ///< size(Q ∧ pref)
  double selectivity = 1.0;  ///< size / size(Q)
};

/// The three query parameters of a personalized-query state (§4.1).
struct StateParams {
  double doi = 0.0;
  double cost_ms = 0.0;
  double size = 0.0;
  uint32_t count = 0;  ///< number of integrated preferences (group size)
};

/// Computes StateParams for subsets of P, both from scratch and
/// incrementally (the partial orders of Formulas 4/7/8 make incremental
/// computation possible — paper §4.3).
///
/// Conventions:
///  * the empty state is the original query: doi 0, cost(Q), size(Q);
///  * cost of a non-empty state is Σ cost(Q ∧ p_i) over members
///    (Formula 6): the base relations are re-scanned by every sub-query;
///  * size is size(Q) × Π selectivity_i;
///  * doi follows the configured ConjunctionModel (default Formula 10).
///
/// The evaluator BORROWS the preference array — each ScoredPreference embeds
/// a SQL AST, and evaluators are built per Solve() rung, so copying here was
/// the pipeline's hottest allocation. The borrowed vector (usually the prefs
/// of a shared PreferenceSpaceResult artifact) must outlive the evaluator
/// and must not be resized while it is alive; the rvalue overload is deleted
/// so a temporary can never bind silently.
class StateEvaluator {
 public:
  StateEvaluator(const QueryBaseEstimate& base,
                 const std::vector<ScoredPreference>& prefs,
                 prefs::ConjunctionModel model =
                     prefs::ConjunctionModel::kNoisyOr);
  StateEvaluator(const QueryBaseEstimate& base,
                 std::vector<ScoredPreference>&& prefs,
                 prefs::ConjunctionModel model =
                     prefs::ConjunctionModel::kNoisyOr) = delete;

  size_t K() const { return prefs_->size(); }
  const std::vector<ScoredPreference>& prefs() const { return *prefs_; }
  const ScoredPreference& pref(size_t i) const { return (*prefs_)[i]; }
  const QueryBaseEstimate& base() const { return base_; }
  prefs::ConjunctionModel conjunction_model() const { return model_; }

  /// Parameters of the empty state (the original query).
  StateParams EmptyState() const;

  /// Parameters of the state with every preference of P (the "supreme"
  /// personalized query; its cost is the paper's Supreme Cost).
  StateParams SupremeState() const;

  /// O(|subset|) evaluation. `subset` holds indices into P.
  StateParams Evaluate(const IndexSet& subset) const;

  /// Evaluate() for a Bits()-encoded subset. Members are integrated in
  /// ascending P-index order — the same order as Evaluate(IndexSet) — so
  /// both entry points produce bit-for-bit identical floating-point results
  /// (noisy-or composition is order-sensitive in the last ulp).
  StateParams EvaluateBits(uint64_t bits) const;

  /// O(1) incremental evaluation: `parent` extended with P-index `i`
  /// (which must not already be a member — not checked here).
  StateParams ExtendWith(const StateParams& parent, int32_t i) const;

  /// doi of a conjunction given by P-indices, under the configured model.
  double ConjunctionDoi(const IndexSet& subset) const;

 private:
  QueryBaseEstimate base_;
  const std::vector<ScoredPreference>* prefs_;  ///< borrowed, never null
  prefs::ConjunctionModel model_;
};

}  // namespace cqp::estimation

#endif  // CQP_ESTIMATION_EVALUATOR_H_
