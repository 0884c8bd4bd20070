#ifndef CQP_TESTING_ORACLE_H_
#define CQP_TESTING_ORACLE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "cqp/algorithm.h"
#include "testing/instance.h"

namespace cqp::testing {

/// One detected correctness violation. `check` is a stable machine-readable
/// name (the shrinker minimizes against it, so a shrink step that merely
/// trades one violation kind for another is rejected).
struct Violation {
  std::string check;      ///< e.g. "oracle", "feasibility", "batch-parity"
  std::string algorithm;  ///< empty for evaluator/transition invariants
  std::string detail;     ///< human-readable specifics
  std::string ToString() const;
};

/// Everything CheckInstance found on one instance.
struct CheckReport {
  std::vector<Violation> violations;
  uint64_t algorithms_checked = 0;
  uint64_t solves = 0;

  bool ok() const { return violations.empty(); }
  void Add(std::string check, std::string algorithm, std::string detail);
  /// All violations, one per line.
  std::string ToString() const;
  /// True when some violation has this check name (any algorithm).
  bool Has(const std::string& check) const;
};

struct CheckOptions {
  bool check_oracle = true;       ///< (a) exact == Exhaustive, bit-for-bit
  bool check_feasibility = true;  ///< (b) re-evaluate + bounds check
  bool check_invariants = true;   ///< (c) Formulas 6/8/10 + transition signs
  bool check_budget = true;       ///< (e) tight budgets stay feasible+tagged
  bool check_determinism = true;  ///< same Solve() twice, field-for-field
  bool check_prepared = true;     ///< (f) PreparedSpace per-problem view
                                  ///< partitions P correctly and solves to
                                  ///< the full-space optimum (remapped)
  bool check_batch_parity = true; ///< (g) SoA batch evaluation path:
                                  ///< BatchEvaluator vs EvaluateBits/ExtendWith
                                  ///< bit-for-bit, and each algorithm's
                                  ///< batch solve vs its forced-scalar
                                  ///< solve (docs/simd.md)

  /// Expansion cap for the tight-budget probe. Expansion counts are
  /// deterministic (unlike wall-clock deadlines), which keeps the shrinker's
  /// predicate stable across replays.
  uint64_t budget_expansions = 48;
  /// Random subsets/chains per metamorphic invariant.
  int invariant_trials = 32;
  /// Skip the Exhaustive oracle above this K (2^K states; Exhaustive itself
  /// refuses K > 25). Feasibility and invariant checks still run.
  size_t max_oracle_k = 20;
};

/// Runs every registered algorithm on `instance` and checks the tentpole's
/// oracle conditions (a)-(e) — see docs/testing.md for the full list.
/// Violations are appended to the report; an empty report means the
/// instance passed everything.
CheckReport CheckInstance(const CqpInstance& instance,
                          const CheckOptions& options = CheckOptions());

/// Field-for-field comparison of two solutions (feasible, degraded, chosen
/// set, params bit-for-bit). Returns "" when identical, else a description
/// of the first difference.
std::string DiffSolutions(const cqp::Solution& a, const cqp::Solution& b);

}  // namespace cqp::testing

#endif  // CQP_TESTING_ORACLE_H_
