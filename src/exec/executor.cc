#include "exec/executor.h"

#include <algorithm>
#include <unordered_map>
#include <unordered_set>

#include "catalog/compare.h"
#include "common/failpoint.h"
#include "common/str_util.h"

namespace cqp::exec {

namespace {

using catalog::Value;
using sql::ColumnRef;
using sql::Predicate;
using sql::SelectQuery;
using sql::TableRef;
using storage::Table;
using storage::Tuple;

/// A FROM entry bound to its storage table.
struct BoundTable {
  const TableRef* ref = nullptr;
  const Table* table = nullptr;
};

/// Fully resolved side of a predicate: which FROM entry, which column.
struct ResolvedColumn {
  int table_index = -1;   // index into the bound FROM list
  int column_index = -1;  // attribute position within that table
};

/// Resolves `col` against the bound FROM list. Qualified references match
/// the table alias; unqualified ones must match a unique attribute.
StatusOr<ResolvedColumn> Resolve(const ColumnRef& col,
                                 const std::vector<BoundTable>& tables) {
  ResolvedColumn out;
  if (!col.qualifier.empty()) {
    for (size_t t = 0; t < tables.size(); ++t) {
      if (!EqualsIgnoreCase(tables[t].ref->EffectiveAlias(), col.qualifier)) {
        continue;
      }
      CQP_ASSIGN_OR_RETURN(int idx,
                           tables[t].table->schema().AttributeIndex(
                               col.attribute));
      out.table_index = static_cast<int>(t);
      out.column_index = idx;
      return out;
    }
    return NotFound("table alias " + col.qualifier);
  }
  for (size_t t = 0; t < tables.size(); ++t) {
    auto idx = tables[t].table->schema().AttributeIndex(col.attribute);
    if (!idx.ok()) continue;
    if (out.table_index >= 0) {
      return InvalidArgument("ambiguous column " + col.attribute);
    }
    out.table_index = static_cast<int>(t);
    out.column_index = *idx;
  }
  if (out.table_index < 0) return NotFound("column " + col.attribute);
  return out;
}

/// A predicate with both sides resolved.
struct ResolvedPredicate {
  const Predicate* pred = nullptr;
  ResolvedColumn lhs;
  ResolvedColumn rhs;  // join predicates only
  bool applied = false;
};

/// The value of `col` in an intermediate row (one stored tuple per joined
/// FROM entry).
const Value& At(const Tuple* const* row, const ResolvedColumn& col) {
  return row[col.table_index]->at(static_cast<size_t>(col.column_index));
}

/// Computes a 64-bit key for hash-join build/probe; `Mix` folds one key
/// value, so both sides hash the same values alike.
size_t Mix(size_t h, const Value& v) {
  return h ^ (v.Hash() + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2));
}

size_t HashValues(const Tuple& row, const std::vector<int>& cols) {
  size_t h = 1469598103934665603ull;
  for (int c : cols) h = Mix(h, row.at(static_cast<size_t>(c)));
  return h;
}

size_t HashValues(const Tuple* const* row,
                  const std::vector<ResolvedColumn>& cols) {
  size_t h = 1469598103934665603ull;
  for (const ResolvedColumn& c : cols) h = Mix(h, At(row, c));
  return h;
}

bool KeysEqual(const Tuple* const* a, const std::vector<ResolvedColumn>& acols,
               const Tuple& b, const std::vector<int>& bcols) {
  for (size_t i = 0; i < acols.size(); ++i) {
    if (At(a, acols[i]) != b.at(static_cast<size_t>(bcols[i]))) return false;
  }
  return true;
}

}  // namespace

Executor::Executor(const storage::Database* db, CostModelParams params)
    : db_(db), params_(params) {
  CQP_CHECK(db_ != nullptr);
}

StatusOr<RowSet> Executor::Execute(const SelectQuery& query,
                                   ExecStats* stats) const {
  CQP_FAILPOINT("exec.execute");
  ExecStats local;
  ExecStats* st = stats != nullptr ? stats : &local;

  if (query.from.empty()) {
    return InvalidArgument("query has no FROM clause");
  }

  // Bind tables and check alias uniqueness.
  std::vector<BoundTable> tables;
  tables.reserve(query.from.size());
  std::unordered_set<std::string> aliases;
  for (const TableRef& ref : query.from) {
    CQP_ASSIGN_OR_RETURN(const Table* table, db_->GetTable(ref.relation));
    std::string alias = ToUpper(ref.EffectiveAlias());
    if (!aliases.insert(alias).second) {
      return InvalidArgument("duplicate table alias " + ref.EffectiveAlias());
    }
    tables.push_back({&ref, table});
  }

  // Resolve all predicates up front.
  std::vector<ResolvedPredicate> preds;
  preds.reserve(query.where.size());
  for (const Predicate& p : query.where) {
    ResolvedPredicate rp;
    rp.pred = &p;
    CQP_ASSIGN_OR_RETURN(rp.lhs, Resolve(p.lhs, tables));
    if (p.kind == Predicate::Kind::kJoin) {
      CQP_ASSIGN_OR_RETURN(rp.rhs, Resolve(p.rhs, tables));
      // Type agreement keeps EvalCompare well-defined.
      const auto& lt = tables[rp.lhs.table_index].table->schema()
                           .attribute(rp.lhs.column_index).type;
      const auto& rt = tables[rp.rhs.table_index].table->schema()
                           .attribute(rp.rhs.column_index).type;
      if (lt != rt) {
        return InvalidArgument("join compares incompatible types: " +
                               p.ToSql());
      }
    } else {
      const auto& lt = tables[rp.lhs.table_index].table->schema()
                           .attribute(rp.lhs.column_index).type;
      if (lt != p.literal.type()) {
        return InvalidArgument("selection compares incompatible types: " +
                               p.ToSql());
      }
    }
    preds.push_back(rp);
  }

  // Scans select row references into the stored table; nothing is copied.
  auto scan = [&](size_t t) {
    const Table& table = *tables[t].table;
    st->blocks_read += table.blocks();
    // Single-table selections on t are applied during the scan.
    std::vector<const ResolvedPredicate*> local;
    for (ResolvedPredicate& rp : preds) {
      if (rp.applied) continue;
      if (rp.pred->kind == Predicate::Kind::kSelection &&
          rp.lhs.table_index == static_cast<int>(t)) {
        local.push_back(&rp);
        rp.applied = true;
      } else if (rp.pred->kind == Predicate::Kind::kJoin &&
                 rp.lhs.table_index == static_cast<int>(t) &&
                 rp.rhs.table_index == static_cast<int>(t)) {
        local.push_back(&rp);
        rp.applied = true;
      }
    }
    std::vector<const Tuple*> out;
    for (const Tuple& row : table.rows()) {
      ++st->tuples_processed;
      bool keep = true;
      for (const ResolvedPredicate* rp : local) {
        if (rp->pred->kind == Predicate::Kind::kSelection) {
          if (!catalog::EvalCompare(
                  row.at(static_cast<size_t>(rp->lhs.column_index)),
                  rp->pred->op, rp->pred->literal)) {
            keep = false;
            break;
          }
        } else {
          if (!catalog::EvalCompare(
                  row.at(static_cast<size_t>(rp->lhs.column_index)),
                  rp->pred->op,
                  row.at(static_cast<size_t>(rp->rhs.column_index)))) {
            keep = false;
            break;
          }
        }
      }
      if (keep) out.push_back(&row);
    }
    return out;
  };

  // Incrementally build the join result, one FROM entry at a time. An
  // intermediate row is `width` references into the stored tables, FROM
  // entry t at slot t; values are copied only at projection.
  // `names` are the qualified columns of the joined entries and
  // `offset_of[t]` is the first of table t's once it is joined.
  std::vector<std::string> names;
  std::vector<int> offset_of(tables.size(), -1);
  auto add_names = [&](size_t t) {
    offset_of[t] = static_cast<int>(names.size());
    const std::string& alias = tables[t].ref->EffectiveAlias();
    const catalog::RelationDef& schema = tables[t].table->schema();
    for (size_t c = 0; c < schema.arity(); ++c) {
      names.push_back(alias + "." + schema.attribute(c).name);
    }
  };
  std::vector<const Tuple*> current = scan(0);
  size_t width = 1;
  add_names(0);

  for (size_t t = 1; t < tables.size(); ++t) {
    std::vector<const Tuple*> next = scan(t);

    // Split unapplied cross predicates between the joined entries and
    // table t into equality keys (hash join) and residual theta predicates.
    struct CrossPred {
      const ResolvedPredicate* rp;
      ResolvedColumn left;  // side among the joined entries
      int right_col;        // column of table t
    };
    std::vector<CrossPred> eq_keys;
    std::vector<CrossPred> residual;
    for (ResolvedPredicate& rp : preds) {
      if (rp.applied || rp.pred->kind != Predicate::Kind::kJoin) continue;
      int lt = rp.lhs.table_index, rt = rp.rhs.table_index;
      bool l_in_cur = lt != static_cast<int>(t) && offset_of[lt] >= 0;
      bool r_in_cur = rt != static_cast<int>(t) && offset_of[rt] >= 0;
      CrossPred cp{&rp, {}, -1};
      if (l_in_cur && rt == static_cast<int>(t)) {
        cp.left = rp.lhs;
        cp.right_col = rp.rhs.column_index;
      } else if (r_in_cur && lt == static_cast<int>(t)) {
        cp.left = rp.rhs;
        cp.right_col = rp.lhs.column_index;
      } else {
        continue;  // involves a table not yet joined
      }
      rp.applied = true;
      // A reversed non-symmetric operator must stay residual with correct
      // orientation; only keep kEq in the hash keys.
      if (rp.pred->op == catalog::CompareOp::kEq) {
        eq_keys.push_back(cp);
      } else {
        residual.push_back(cp);
      }
    }

    auto eval_residual = [&](const Tuple* const* left, const Tuple& right) {
      for (const CrossPred& cp : residual) {
        const Value& lv = At(left, cp.left);
        const Value& rv = right.at(static_cast<size_t>(cp.right_col));
        // Orientation: the stored op applies as lhs-op-rhs of the original
        // predicate. `left` always holds the side among the joined entries.
        bool original_lhs_in_current =
            cp.rp->lhs.table_index != static_cast<int>(t);
        bool ok = original_lhs_in_current
                      ? catalog::EvalCompare(lv, cp.rp->pred->op, rv)
                      : catalog::EvalCompare(rv, cp.rp->pred->op, lv);
        if (!ok) return false;
      }
      return true;
    };

    std::vector<const Tuple*> joined;
    auto emit = [&](const Tuple* const* left, const Tuple* right) {
      ++st->tuples_processed;
      joined.insert(joined.end(), left, left + width);
      joined.push_back(right);
    };
    const Tuple* const* rows_end = current.data() + current.size();
    if (!eq_keys.empty()) {
      // Hash join: build on table t (typically the smaller side has been
      // filtered already; simplicity over micro-optimality).
      std::vector<ResolvedColumn> probe_cols;
      std::vector<int> build_cols;
      for (const CrossPred& cp : eq_keys) {
        probe_cols.push_back(cp.left);
        build_cols.push_back(cp.right_col);
      }
      std::unordered_multimap<size_t, const Tuple*> ht;
      ht.reserve(next.size());
      for (const Tuple* row : next) {
        ht.emplace(HashValues(*row, build_cols), row);
      }
      for (const Tuple* const* left = current.data(); left != rows_end;
           left += width) {
        auto range = ht.equal_range(HashValues(left, probe_cols));
        for (auto it = range.first; it != range.second; ++it) {
          const Tuple& right = *it->second;
          if (!KeysEqual(left, probe_cols, right, build_cols)) continue;
          if (!eval_residual(left, right)) continue;
          emit(left, &right);
        }
      }
    } else {
      // Filtered nested-loop product.
      for (const Tuple* const* left = current.data(); left != rows_end;
           left += width) {
        for (const Tuple* right : next) {
          if (eval_residual(left, *right)) emit(left, right);
        }
      }
    }

    current = std::move(joined);
    ++width;
    add_names(t);
  }

  // Any predicate still unapplied references a single table through two
  // aliases handled above, so this indicates an internal inconsistency.
  for (const ResolvedPredicate& rp : preds) {
    if (!rp.applied) {
      return Internal("predicate not applied: " + rp.pred->ToSql());
    }
  }

  // Projection: the select list resolves against the joined columns, and
  // only here are values copied out of the stored tables.
  std::vector<ResolvedColumn> picks;
  RowSet projected;
  if (query.select_list.empty()) {
    for (size_t t = 0; t < tables.size(); ++t) {
      for (size_t c = 0; c < tables[t].table->schema().arity(); ++c) {
        picks.push_back({static_cast<int>(t), static_cast<int>(c)});
      }
    }
    projected = RowSet(std::move(names), {});
  } else {
    const RowSet joined_columns(std::move(names), {});
    for (const ColumnRef& col : query.select_list) {
      CQP_ASSIGN_OR_RETURN(int pos, joined_columns.ResolveColumn(col));
      int t = static_cast<int>(
          std::upper_bound(offset_of.begin(), offset_of.end(), pos) -
          offset_of.begin() - 1);
      picks.push_back({t, pos - offset_of[static_cast<size_t>(t)]});
      projected.AddColumnName(col.qualifier.empty()
                                  ? col.attribute
                                  : col.qualifier + "." + col.attribute);
    }
  }
  const size_t row_count = current.size() / width;
  std::vector<Tuple>& out_rows = projected.mutable_rows();
  out_rows.reserve(row_count);
  for (const Tuple* const* row = current.data();
       row != current.data() + current.size(); row += width) {
    std::vector<Value> values;
    values.reserve(picks.size());
    for (const ResolvedColumn& pick : picks) values.push_back(At(row, pick));
    out_rows.emplace_back(std::move(values));
  }
  if (!query.select_list.empty()) st->tuples_processed += row_count;

  if (query.distinct) {
    std::vector<Tuple> unique;
    // Buckets hold indices into `unique` (stable across reallocation).
    std::unordered_multimap<size_t, size_t> buckets;
    for (Tuple& row : projected.mutable_rows()) {
      ++st->tuples_processed;
      size_t h = row.Hash();
      bool duplicate = false;
      auto range = buckets.equal_range(h);
      for (auto it = range.first; it != range.second; ++it) {
        if (unique[it->second] == row) {
          duplicate = true;
          break;
        }
      }
      if (!duplicate) {
        buckets.emplace(h, unique.size());
        unique.push_back(std::move(row));
      }
    }
    projected.mutable_rows() = std::move(unique);
  }

  if (!query.order_by.empty()) {
    // ORDER BY keys resolve against the projected columns.
    std::vector<std::pair<int, bool>> keys;  // (column, descending)
    keys.reserve(query.order_by.size());
    for (const sql::OrderItem& item : query.order_by) {
      CQP_ASSIGN_OR_RETURN(int pos, projected.ResolveColumn(item.column));
      keys.emplace_back(pos, item.descending);
    }
    st->tuples_processed += projected.row_count();
    std::stable_sort(projected.mutable_rows().begin(),
                     projected.mutable_rows().end(),
                     [&keys](const Tuple& a, const Tuple& b) {
                       for (const auto& [pos, descending] : keys) {
                         const Value& va = a.at(static_cast<size_t>(pos));
                         const Value& vb = b.at(static_cast<size_t>(pos));
                         if (va == vb) continue;
                         return descending ? vb < va : va < vb;
                       }
                       return false;
                     });
  }

  if (query.limit.has_value()) {
    size_t cap = static_cast<size_t>(*query.limit);
    if (projected.row_count() > cap) {
      projected.mutable_rows().resize(cap);
    }
  }

  return projected;
}

StatusOr<RowSet> Executor::ExecuteUnionGroup(const sql::UnionGroupQuery& query,
                                             ExecStats* stats) const {
  ExecStats local;
  ExecStats* st = stats != nullptr ? stats : &local;
  if (query.branches.empty()) {
    return InvalidArgument("union has no branches");
  }
  if (query.having_count < 1 ||
      query.having_count > static_cast<int64_t>(query.branches.size())) {
    return InvalidArgument("HAVING COUNT(*) outside [1, #branches]");
  }

  // GROUP BY the full projected row over the concatenated branch outputs.
  std::unordered_map<Tuple, int64_t, storage::TupleHash> groups;
  size_t arity = 0;
  for (size_t b = 0; b < query.branches.size(); ++b) {
    CQP_ASSIGN_OR_RETURN(RowSet rows, Execute(query.branches[b], st));
    if (b == 0) {
      arity = rows.arity();
      if (arity != query.select_list.size()) {
        return InvalidArgument(
            "outer select list arity does not match the branches");
      }
    } else if (rows.arity() != arity) {
      return InvalidArgument("union branches project different arities");
    }
    for (Tuple& row : rows.mutable_rows()) {
      ++st->tuples_processed;  // group-by insertion work
      ++groups.try_emplace(std::move(row), 0).first->second;
    }
  }

  RowSet out;
  for (const sql::ColumnRef& col : query.select_list) {
    out.AddColumnName(col.attribute);
  }
  for (auto it = groups.begin(); it != groups.end();) {
    if (it->second == query.having_count) {
      out.AddRow(std::move(groups.extract(it++).key()));
    } else {
      ++it;
    }
  }
  // Deterministic output order (hash-map iteration is not).
  RankByRendering(
      out.mutable_rows(), [](const Tuple& row) -> const Tuple& { return row; },
      [](const Tuple&) { return 0.0; });
  return out;
}

}  // namespace cqp::exec
