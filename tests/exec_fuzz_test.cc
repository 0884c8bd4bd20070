// Differential testing of the executor: random SPJ queries over random
// small tables, checked against a naive reference evaluator (cartesian
// product + predicate filter + projection). Any divergence is a bug in the
// hash-join/filter pipeline. Personalized execution (union of sub-queries,
// per-sub-query dedupe, grouping, doi ranking) is checked the same way.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <map>
#include <set>
#include <string>

#include "common/rng.h"
#include "common/str_util.h"
#include "exec/executor.h"
#include "exec/personalized_exec.h"
#include "sql/ast.h"
#include "storage/database.h"
#include "test_util.h"

namespace cqp::exec {
namespace {

using catalog::AttributeDef;
using catalog::CompareOp;
using catalog::RelationDef;
using catalog::Value;
using catalog::ValueType;
using sql::ColumnRef;
using sql::Predicate;
using sql::SelectQuery;
using sql::TableRef;
using storage::Tuple;

/// Builds 2-3 random tables with small integer domains (so joins and
/// selections actually hit). Values are multiples of `scale` in
/// [0, 4 * scale].
storage::Database MakeRandomDb(Rng& rng, int64_t scale = 1) {
  storage::Database db;
  int n_tables = static_cast<int>(rng.Uniform(2, 3));
  for (int t = 0; t < n_tables; ++t) {
    int n_cols = static_cast<int>(rng.Uniform(2, 4));
    std::vector<AttributeDef> attrs;
    for (int c = 0; c < n_cols; ++c) {
      attrs.push_back(AttributeDef{"c" + std::to_string(c), ValueType::kInt});
    }
    ::cqp::testing::AddRandomTable(
        rng, db, "T" + std::to_string(t), attrs, 0, 12,
        [scale](Rng& r, const AttributeDef&) {
          return Value(r.Uniform(0, 4) * scale);  // tiny domain: collisions
        });
  }
  db.Analyze();
  return db;
}

/// Builds a random query over 1-3 (possibly repeated) tables.
SelectQuery MakeRandomQuery(Rng& rng, const storage::Database& db) {
  SelectQuery q;
  auto names = db.TableNames();
  int n_from = static_cast<int>(rng.Uniform(1, 3));
  for (int i = 0; i < n_from; ++i) {
    TableRef ref;
    ref.relation = names[static_cast<size_t>(
        rng.Uniform(0, static_cast<int64_t>(names.size()) - 1))];
    ref.alias = "a" + std::to_string(i);
    q.from.push_back(ref);
  }
  auto random_column = [&](int from_index) {
    const storage::Table* table =
        *db.GetTable(q.from[static_cast<size_t>(from_index)].relation);
    int col = static_cast<int>(
        rng.Uniform(0, static_cast<int64_t>(table->schema().arity()) - 1));
    return ColumnRef{q.from[static_cast<size_t>(from_index)].alias,
                     table->schema().attribute(static_cast<size_t>(col)).name};
  };
  static const CompareOp kOps[] = {CompareOp::kEq, CompareOp::kNe,
                                   CompareOp::kLt, CompareOp::kLe,
                                   CompareOp::kGt, CompareOp::kGe};
  int n_preds = static_cast<int>(rng.Uniform(0, 4));
  for (int p = 0; p < n_preds; ++p) {
    int lhs_table = static_cast<int>(rng.Uniform(0, n_from - 1));
    CompareOp op = kOps[rng.Uniform(0, 5)];
    if (rng.Bernoulli(0.5)) {
      q.where.push_back(Predicate::Selection(random_column(lhs_table), op,
                                             Value(rng.Uniform(0, 4))));
    } else {
      int rhs_table = static_cast<int>(rng.Uniform(0, n_from - 1));
      q.where.push_back(Predicate::Join(random_column(lhs_table), op,
                                        random_column(rhs_table)));
    }
  }
  // Projection: a couple of random columns (qualified, so never ambiguous).
  int n_proj = static_cast<int>(rng.Uniform(1, 3));
  for (int i = 0; i < n_proj; ++i) {
    q.select_list.push_back(
        random_column(static_cast<int>(rng.Uniform(0, n_from - 1))));
  }
  q.distinct = rng.Bernoulli(0.3);
  return q;
}

/// Naive reference: full cartesian product, filter, project, dedupe. Rows
/// come in product order.
StatusOr<std::vector<Tuple>> ReferenceRows(const storage::Database& db,
                                           const SelectQuery& q) {
  // Build the product schema: qualified names per FROM entry.
  std::vector<std::string> columns;
  std::vector<const storage::Table*> tables;
  for (const TableRef& ref : q.from) {
    CQP_ASSIGN_OR_RETURN(const storage::Table* table,
                         db.GetTable(ref.relation));
    tables.push_back(table);
    for (size_t c = 0; c < table->schema().arity(); ++c) {
      columns.push_back(ref.EffectiveAlias() + "." +
                        table->schema().attribute(c).name);
    }
  }
  auto resolve = [&](const ColumnRef& col) -> StatusOr<size_t> {
    std::string wanted = col.qualifier + "." + col.attribute;
    for (size_t i = 0; i < columns.size(); ++i) {
      if (EqualsIgnoreCase(columns[i], wanted)) return i;
    }
    return NotFound("column " + wanted);
  };

  std::vector<Tuple> out;
  // Odometer over the row indices of every table.
  std::vector<size_t> idx(tables.size(), 0);
  bool any_empty = false;
  for (const storage::Table* t : tables) any_empty |= t->row_count() == 0;
  std::set<std::vector<Value>> distinct_seen;
  while (!any_empty) {
    // Materialize the concatenated row.
    std::vector<Value> row;
    for (size_t t = 0; t < tables.size(); ++t) {
      for (const Value& v : tables[t]->rows()[idx[t]].values()) {
        row.push_back(v);
      }
    }
    bool keep = true;
    for (const Predicate& p : q.where) {
      CQP_ASSIGN_OR_RETURN(size_t l, resolve(p.lhs));
      if (p.kind == Predicate::Kind::kSelection) {
        keep = keep && catalog::EvalCompare(row[l], p.op, p.literal);
      } else {
        CQP_ASSIGN_OR_RETURN(size_t r, resolve(p.rhs));
        keep = keep && catalog::EvalCompare(row[l], p.op, row[r]);
      }
      if (!keep) break;
    }
    if (keep) {
      std::vector<Value> projected;
      for (const ColumnRef& col : q.select_list) {
        CQP_ASSIGN_OR_RETURN(size_t c, resolve(col));
        projected.push_back(row[c]);
      }
      if (!q.distinct || distinct_seen.insert(projected).second) {
        out.emplace_back(std::move(projected));
      }
    }
    // Advance the odometer.
    size_t t = 0;
    while (t < tables.size()) {
      if (++idx[t] < tables[t]->row_count()) break;
      idx[t] = 0;
      ++t;
    }
    if (t == tables.size()) break;
  }
  return out;
}

/// Rows as "v|v|" keys, order ignored.
std::multiset<std::string> RowKeys(const std::vector<Tuple>& rows) {
  std::multiset<std::string> keys;
  for (const Tuple& row : rows) {
    std::string key;
    for (size_t c = 0; c < row.arity(); ++c) {
      key += row.at(c).ToString();
      key += "|";
    }
    keys.insert(key);
  }
  return keys;
}

class ExecFuzz : public ::testing::TestWithParam<int> {};

TEST_P(ExecFuzz, MatchesNaiveReference) {
  Rng rng = ::cqp::testing::SeededRng(GetParam(), 7919);
  storage::Database db = MakeRandomDb(rng);
  Executor executor(&db);

  for (int trial = 0; trial < 40; ++trial) {
    SelectQuery q = MakeRandomQuery(rng, db);
    auto expected = ReferenceRows(db, q);
    ASSERT_TRUE(expected.ok()) << expected.status().ToString() << "\n"
                               << q.ToSql();
    auto got = executor.Execute(q, nullptr);
    ASSERT_TRUE(got.ok()) << got.status().ToString() << "\n" << q.ToSql();
    EXPECT_EQ(RowKeys(got->rows()), RowKeys(*expected)) << q.ToSql();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ExecFuzz,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8, 9, 10));

/// Sub-queries of one personalized query: the base query plus one random
/// selection each, and sometimes an extra FROM entry joined on one column,
/// which fans out and repeats projected rows within the sub-query.
std::vector<SelectQuery> MakeSubqueries(Rng& rng, const storage::Database& db,
                                        const SelectQuery& base) {
  auto names = db.TableNames();
  std::vector<SelectQuery> subs;
  int n_subs = static_cast<int>(rng.Uniform(1, 4));
  for (int s = 0; s < n_subs; ++s) {
    SelectQuery sub = base;
    auto column_of = [&](size_t from_index) {
      const storage::Table* table = *db.GetTable(sub.from[from_index].relation);
      int col = static_cast<int>(
          rng.Uniform(0, static_cast<int64_t>(table->schema().arity()) - 1));
      const AttributeDef& attr =
          table->schema().attribute(static_cast<size_t>(col));
      return ColumnRef{sub.from[from_index].alias, attr.name};
    };
    if (rng.Bernoulli(0.5)) {
      TableRef ref;
      ref.relation = names[static_cast<size_t>(
          rng.Uniform(0, static_cast<int64_t>(names.size()) - 1))];
      ref.alias = "f" + std::to_string(s);
      sub.from.push_back(ref);
      sub.where.push_back(Predicate::Join(
          column_of(static_cast<size_t>(
              rng.Uniform(0, static_cast<int64_t>(base.from.size()) - 1))),
          CompareOp::kEq, column_of(sub.from.size() - 1)));
    }
    static const CompareOp kOps[] = {CompareOp::kEq, CompareOp::kNe,
                                     CompareOp::kLe, CompareOp::kGe};
    sub.where.push_back(Predicate::Selection(
        column_of(static_cast<size_t>(
            rng.Uniform(0, static_cast<int64_t>(sub.from.size()) - 1))),
        kOps[rng.Uniform(0, 3)], Value(rng.Uniform(0, 4) * 3)));
    subs.push_back(std::move(sub));
  }
  return subs;
}

/// A row of the naive personalized reference.
struct ReferenceRow {
  std::string rendering;
  IndexSet satisfied;
  double doi = 0.0;
};

/// Naive reference for ExecutePersonalized: per-sub-query std::set dedupe,
/// count, keep per mode, noisy-or doi, sort by (doi desc, rendering asc).
StatusOr<std::vector<ReferenceRow>> ReferencePersonalized(
    const storage::Database& db, const std::vector<SelectQuery>& subs,
    const std::vector<double>& dois, CombineMode mode) {
  std::map<std::string, std::vector<int32_t>> members;
  for (size_t s = 0; s < subs.size(); ++s) {
    CQP_ASSIGN_OR_RETURN(std::vector<Tuple> rows, ReferenceRows(db, subs[s]));
    std::set<std::string> distinct;
    for (const Tuple& row : rows) distinct.insert(row.ToString());
    for (const std::string& r : distinct) {
      members[r].push_back(static_cast<int32_t>(s));
    }
  }
  std::vector<ReferenceRow> out;
  for (const auto& [rendering, sat] : members) {
    if (mode == CombineMode::kIntersection && sat.size() != subs.size()) {
      continue;
    }
    double miss = 1.0;
    for (int32_t i : sat) miss *= 1.0 - dois[static_cast<size_t>(i)];
    out.push_back(ReferenceRow{rendering, IndexSet::FromUnsorted(sat),
                               1.0 - miss});
  }
  std::sort(out.begin(), out.end(),
            [](const ReferenceRow& a, const ReferenceRow& b) {
              if (a.doi != b.doi) return a.doi > b.doi;
              return a.rendering < b.rendering;
            });
  return out;
}

/// ExecStats charged the way a DISTINCT pass per sub-query and a separate
/// grouping would: each sub-query executed with DISTINCT, then one tuple
/// per distinct row for the group insertion.
ExecStats DistinctThenGroupStats(const Executor& executor,
                                 const std::vector<SelectQuery>& subs) {
  ExecStats stats;
  for (SelectQuery sub : subs) {
    sub.distinct = true;
    auto rows = executor.Execute(sub, &stats);
    CQP_CHECK(rows.ok()) << rows.status().ToString();
    stats.tuples_processed += rows->row_count();
  }
  return stats;
}

class PersonalizedExecFuzz : public ::testing::TestWithParam<int> {};

// Values are {0, 3, 6, 9, 12}, so a rendering order ("12" < "3") differs
// from the numeric one and the ranking tie-break is exercised.
TEST_P(PersonalizedExecFuzz, MatchesNaiveReference) {
  Rng rng = ::cqp::testing::SeededRng(GetParam(), 104729);
  storage::Database db = MakeRandomDb(rng, 3);
  Executor executor(&db);

  for (int trial = 0; trial < 40; ++trial) {
    SelectQuery base = MakeRandomQuery(rng, db);
    base.where.clear();
    base.distinct = false;
    std::vector<SelectQuery> subs = MakeSubqueries(rng, db, base);
    std::vector<double> dois;
    for (size_t s = 0; s < subs.size(); ++s) {
      dois.push_back(rng.UniformDouble(0.05, 0.95));
    }
    for (CombineMode mode :
         {CombineMode::kIntersection, CombineMode::kRankedUnion}) {
      std::string context = "trial " + std::to_string(trial) + " mode " +
                            std::to_string(static_cast<int>(mode)) + "\n";
      for (const SelectQuery& sub : subs) context += sub.ToSql() + "\n";

      auto want = ReferencePersonalized(db, subs, dois, mode);
      ASSERT_TRUE(want.ok()) << want.status().ToString() << context;
      ExecStats stats;
      auto got = ExecutePersonalized(executor, subs, dois, mode, &stats);
      ASSERT_TRUE(got.ok()) << got.status().ToString() << context;

      ASSERT_EQ(got->rows.size(), want->size()) << context;
      for (size_t i = 0; i < want->size(); ++i) {
        const PersonalizedRow& row = got->rows[i];
        const ReferenceRow& ref = (*want)[i];
        EXPECT_EQ(row.row.ToString(), ref.rendering) << "row " << i << context;
        EXPECT_EQ(std::bit_cast<uint64_t>(row.doi),
                  std::bit_cast<uint64_t>(ref.doi))
            << "row " << i << context;
        EXPECT_EQ(row.satisfied, ref.satisfied) << "row " << i << context;
      }
      ExecStats charged = DistinctThenGroupStats(executor, subs);
      EXPECT_EQ(stats.blocks_read, charged.blocks_read) << context;
      EXPECT_EQ(stats.tuples_processed, charged.tuples_processed) << context;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PersonalizedExecFuzz,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8, 9, 10));

}  // namespace
}  // namespace cqp::exec
