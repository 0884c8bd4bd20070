#ifndef CQP_SPACE_PREFERENCE_SPACE_H_
#define CQP_SPACE_PREFERENCE_SPACE_H_

#include <cstdint>
#include <vector>

#include "catalog/constraints.h"
#include "common/status.h"
#include "cqp/problem.h"
#include "estimation/estimate.h"
#include "estimation/evaluator.h"
#include "prefs/graph.h"
#include "sql/ast.h"

namespace cqp::space {

/// Tuning knobs of the preference-space extraction.
struct PreferenceSpaceOptions {
  /// Maximum number of preferences extracted (the paper's K).
  size_t max_k = 20;
  /// Maximum number of join edges on an implicit-preference path.
  size_t max_path_joins = 3;
  /// How dois compose along a path (Formula 1; paper uses product).
  prefs::PathComposition path_composition = prefs::PathComposition::kProduct;
  /// How dois of conjunctions combine (Formula 3; paper uses Formula 10).
  /// Recorded in the result so downstream state evaluation agrees.
  prefs::ConjunctionModel conjunction_model =
      prefs::ConjunctionModel::kNoisyOr;
  /// Preferences with doi <= this are never extracted (doi 0 expresses
  /// "no interest" in the model).
  double min_doi = 0.0;
  /// If false, only the doi vector D is produced (the paper's
  /// D_PrefSelTime configuration in Fig. 12(b)); if true, the cost and
  /// size vectors C and S are ranked as well (C_PrefSelTime).
  bool build_cost_size_vectors = true;
  /// Pre-search semantic pruning (docs/rewriting.md): a candidate whose
  /// integrated branch would provably contradict the query's own conjuncts
  /// or the catalog constraints is never admitted to P — it could only ever
  /// produce a vacuous (zero-row) union branch, and excluding it shrinks K
  /// before the search starts. The flag is part of the plan-cache config
  /// key; the constraint-set revision joins the key separately.
  bool constraint_prune = true;
  /// Integrity constraints consulted by the pruning pass; nullptr means
  /// "no catalog constraints" (query-self-contradictions are still caught).
  /// Borrowed for the duration of the extraction call only.
  const catalog::ConstraintSet* constraints = nullptr;
};

/// The output of the Preference Space module (paper Fig. 3): the set P of
/// candidate preferences related to Q, with the pointer vectors D, C, S.
struct PreferenceSpaceResult {
  sql::SelectQuery query;                 ///< the original query Q
  estimation::QueryBaseEstimate base;     ///< estimated cost/size of Q
  std::vector<estimation::ScoredPreference> prefs;  ///< P, doi-descending
  /// Conjunction model the space was extracted under (used by evaluators).
  prefs::ConjunctionModel conjunction_model =
      prefs::ConjunctionModel::kNoisyOr;

  /// Builds a StateEvaluator over this preference space. The evaluator
  /// borrows `prefs` — it is only callable on an lvalue space that outlives
  /// it (calling on a temporary is a compile error; the deep copy that used
  /// to make that silent is gone).
  estimation::StateEvaluator MakeEvaluator() const& {
    return estimation::StateEvaluator(base, prefs, conjunction_model);
  }
  estimation::StateEvaluator MakeEvaluator() const&& = delete;

  /// Pointer vectors (0-based indices into `prefs`):
  /// D: doi descending (identity by construction, kept for symmetry),
  /// C: cost(Q ∧ p) descending, S: size(Q ∧ p) ascending.
  std::vector<int32_t> D;
  std::vector<int32_t> C;
  std::vector<int32_t> S;

  /// Candidates rejected by the pre-search constraint pruning pass (they
  /// occupied no slot of max_k). Copied into every per-problem view.
  uint64_t constraint_pruned = 0;

  size_t K() const { return prefs.size(); }
};

/// Builds the pointer vectors of §4.4 for a preference list:
/// D by doi descending, C by cost(Q ∧ p) descending, S by size(Q ∧ p)
/// ascending (ties broken by P index for determinism). Reproduces the
/// paper's Table 2 example exactly (see space_test). Note: the search
/// algorithms additionally require P itself to be doi-sorted (D =
/// identity), which ExtractPreferenceSpace guarantees; this function also
/// accepts unsorted lists for testing the vectors in isolation.
void BuildPointerVectors(const std::vector<estimation::ScoredPreference>& prefs,
                         std::vector<int32_t>* d, std::vector<int32_t>* c,
                         std::vector<int32_t>* s);

/// Extracts the preference space for query `q` from `graph`, independent of
/// any concrete ProblemSpec.
///
/// Implements the best-first traversal of Fig. 3: candidates are expanded in
/// decreasing doi order (valid because f⊗ is non-increasing in path length,
/// Formula 2) and join paths are kept acyclic. Constraint handling is NOT
/// done here: cmax/smin pruning is problem-dependent, so it happens when a
/// per-problem view is derived (PruneSpaceForProblem / PreparedSpace::
/// ForProblem). Hoisting it out makes one extraction valid for all six
/// Table 1 problem classes and lets the result be cached and shared.
StatusOr<PreferenceSpaceResult> ExtractPreferenceSpace(
    const sql::SelectQuery& q, const prefs::PersonalizationGraph& graph,
    const estimation::ParameterEstimator& estimator,
    const PreferenceSpaceOptions& options = PreferenceSpaceOptions());

/// True when `pref` can never appear in a feasible state of `problem`:
/// cost(Q∧p) > cmax (state cost sums sub-query costs, Formula 6) or
/// size(Q∧p) < smin (state size only shrinks as selectivities multiply,
/// Formula 8). Both tests are monotone, so dropping such a preference never
/// removes a feasible solution.
bool PrunedByProblem(const estimation::ScoredPreference& pref,
                     const cqp::ProblemSpec& problem);

/// True when integrating `pref` into `q` yields a union branch whose
/// conjuncts (q's WHERE plus the preference's final selection, under the
/// domain/implication constraints of the involved relations) are provably
/// unsatisfiable — the branch would return zero rows on every
/// constraint-valid database. Used by the pre-search pruning pass and
/// exposed for the fuzz harness's vacuity oracle (a pruned preference's
/// branch must execute to zero rows).
bool PreferenceContradictsQuery(const sql::SelectQuery& q,
                                const prefs::ImplicitPreference& pref,
                                const catalog::ConstraintSet& constraints);

/// Derives the per-problem view of an extracted space: preferences pruned
/// by `problem`'s monotone bounds are dropped, survivors are reindexed
/// (doi order — and hence D = identity — is preserved, since filtering a
/// doi-sorted sequence keeps it sorted) and the C/S pointer vectors are
/// rebuilt. The view is itself a PreferenceSpaceResult, so every search
/// algorithm runs on it unchanged.
PreferenceSpaceResult PruneSpaceForProblem(const PreferenceSpaceResult& space,
                                           const cqp::ProblemSpec& problem);

/// Legacy single-problem entry point: unpruned extraction followed by
/// PruneSpaceForProblem. Equivalent to the pre-refactor behavior except
/// that `options.max_k` now caps the space BEFORE pruning (a candidate the
/// problem rejects still occupies its doi-ranked slot, exactly as it does
/// on the prepared path — both paths must agree bit for bit).
StatusOr<PreferenceSpaceResult> ExtractPreferenceSpace(
    const sql::SelectQuery& q, const prefs::PersonalizationGraph& graph,
    const estimation::ParameterEstimator& estimator,
    const cqp::ProblemSpec& problem,
    const PreferenceSpaceOptions& options = PreferenceSpaceOptions());

}  // namespace cqp::space

#endif  // CQP_SPACE_PREFERENCE_SPACE_H_
