#ifndef CQP_EXEC_PERSONALIZED_EXEC_H_
#define CQP_EXEC_PERSONALIZED_EXEC_H_

#include <vector>

#include "common/index_set.h"
#include "common/status.h"
#include "exec/executor.h"
#include "exec/row_set.h"

namespace cqp::exec {

/// How the union of sub-query results is combined into the final answer.
enum class CombineMode {
  /// The paper's construction (§4.2): GROUP BY the projected row,
  /// HAVING COUNT(*) = L — a row qualifies only if *every* integrated
  /// preference is satisfied.
  kIntersection,
  /// Extension: keep every row produced by at least one sub-query and rank
  /// by the doi of the set of preferences it satisfies (the ranking the
  /// paper prescribes for result presentation).
  kRankedUnion,
};

/// One output row of a personalized query.
struct PersonalizedRow {
  storage::Tuple row;
  /// Positions (into the sub-query list) of the preferences this row
  /// satisfies.
  IndexSet satisfied;
  /// doi of `satisfied` under r(d1..dm) = 1 - prod(1 - di).
  double doi = 0.0;
};

/// Result of executing a personalized query: header plus doi-ranked rows.
struct PersonalizedResultSet {
  std::vector<std::string> column_names;
  std::vector<PersonalizedRow> rows;  ///< sorted by doi desc, then row asc
};

/// Executes the personalized query "base ∧ {p_i}" materialized as the union
/// of `subqueries` (each integrating exactly one preference, all projecting
/// the same select list).
///
/// A row counts once per sub-query, so the HAVING COUNT(*) = L grouping
/// has exact intersection semantics even when a sub-query's join fans out
/// (e.g. a movie with two genre rows). The dedupe folds into the grouping
/// and charges what a per-sub-query DISTINCT would. `dois` must parallel
/// `subqueries`.
StatusOr<PersonalizedResultSet> ExecutePersonalized(
    const Executor& executor, const std::vector<sql::SelectQuery>& subqueries,
    const std::vector<double>& dois, CombineMode mode, ExecStats* stats);

}  // namespace cqp::exec

#endif  // CQP_EXEC_PERSONALIZED_EXEC_H_
