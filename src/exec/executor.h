#ifndef CQP_EXEC_EXECUTOR_H_
#define CQP_EXEC_EXECUTOR_H_

#include <vector>

#include "common/status.h"
#include "exec/exec_stats.h"
#include "exec/row_set.h"
#include "sql/ast.h"
#include "storage/database.h"

namespace cqp::exec {

/// Executes SPJ queries against an in-memory Database.
///
/// Physical strategy (deliberately simple, mirroring the paper's cost-model
/// assumptions in §7.1): every referenced relation is sequentially scanned
/// exactly once (no indexes), joins are in-memory hash joins (or filtered
/// nested-loop products when no equality join predicate applies), and all
/// intermediates stay memory resident as references to the stored tuples
/// until the projection copies values out.
///
/// Charges to ExecStats: a scan charges the table's block count and one
/// tuple per stored row read; one tuple per join match, per projected row
/// (not under SELECT *), per row entering DISTINCT, per row sorted by
/// ORDER BY, and per row inserted into a UNION grouping.
class Executor {
 public:
  /// `db` must outlive the executor.
  explicit Executor(const storage::Database* db,
                    CostModelParams params = CostModelParams());

  const CostModelParams& cost_params() const { return params_; }

  /// Runs `query`, accumulating counters into `stats` (may be nullptr).
  StatusOr<RowSet> Execute(const sql::SelectQuery& query,
                           ExecStats* stats) const;

  /// Runs a §4.2-shaped UNION ALL / GROUP BY / HAVING COUNT(*) statement
  /// (the SQL printed by construct::PersonalizedQuery::ToSql). Standard SQL
  /// semantics: rows appearing in `having_count` branches survive; branch
  /// DISTINCT flags are honored, so the printed personalized query (whose
  /// branches are DISTINCT) executes with exact intersection semantics.
  StatusOr<RowSet> ExecuteUnionGroup(const sql::UnionGroupQuery& query,
                                     ExecStats* stats) const;

 private:
  const storage::Database* db_;
  CostModelParams params_;
};

}  // namespace cqp::exec

#endif  // CQP_EXEC_EXECUTOR_H_
