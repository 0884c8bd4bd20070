#include "exec/personalized_exec.h"

#include <bit>
#include <unordered_map>

#include "storage/tuple.h"

namespace cqp::exec {

namespace {

using storage::Tuple;
using storage::TupleHash;

double ConjunctionDoi(const IndexSet& satisfied,
                      const std::vector<double>& dois) {
  double miss = 1.0;
  for (int32_t i : satisfied) {
    miss *= 1.0 - dois[static_cast<size_t>(i)];
  }
  return 1.0 - miss;
}

}  // namespace

StatusOr<PersonalizedResultSet> ExecutePersonalized(
    const Executor& executor, const std::vector<sql::SelectQuery>& subqueries,
    const std::vector<double>& dois, CombineMode mode, ExecStats* stats) {
  if (subqueries.empty()) {
    return InvalidArgument("personalized execution needs >= 1 sub-query");
  }
  if (dois.size() != subqueries.size()) {
    return InvalidArgument("dois must parallel subqueries");
  }

  ExecStats local;
  ExecStats* st = stats != nullptr ? stats : &local;

  PersonalizedResultSet result;
  // Map projected row -> offset of its member bitmask in `members`: bit s
  // of the `words`-word mask is set once sub-query s produced the row.
  const size_t words = (subqueries.size() + 63) / 64;
  std::vector<uint64_t> members;
  std::unordered_map<Tuple, size_t, TupleHash> groups;

  for (size_t s = 0; s < subqueries.size(); ++s) {
    // Per sub-query DISTINCT (exact intersection semantics for the
    // HAVING COUNT(*) = L grouping, see header) folds into the grouping
    // below, charged one tuple per projected row as the DISTINCT pass
    // would be. ORDER BY / LIMIT pick among the distinct rows, so a
    // sub-query carrying them runs its own DISTINCT.
    const sql::SelectQuery* sub = &subqueries[s];
    sql::SelectQuery limited;
    if (!sub->order_by.empty() || sub->limit.has_value()) {
      limited = *sub;
      limited.distinct = true;
      sub = &limited;
    }
    CQP_ASSIGN_OR_RETURN(RowSet rows, executor.Execute(*sub, st));
    if (!sub->distinct) st->tuples_processed += rows.row_count();
    if (s == 0) {
      result.column_names = rows.column_names();
    } else if (rows.arity() != result.column_names.size()) {
      return InvalidArgument("sub-queries project different arities");
    }
    const size_t word = s / 64;
    const uint64_t bit = uint64_t{1} << (s % 64);
    for (Tuple& row : rows.mutable_rows()) {
      auto [it, inserted] = groups.try_emplace(std::move(row), members.size());
      if (inserted) members.resize(members.size() + words);
      uint64_t& mask = members[it->second + word];
      if ((mask & bit) != 0) continue;  // a duplicate within sub-query s
      mask |= bit;
      ++st->tuples_processed;  // group-by insertion work
    }
  }

  const size_t want = subqueries.size();
  for (auto it = groups.begin(); it != groups.end();) {
    const uint64_t* mask = &members[it->second];
    size_t count = 0;
    for (size_t w = 0; w < words; ++w) count += std::popcount(mask[w]);
    if (mode == CombineMode::kIntersection && count != want) {
      ++it;
      continue;
    }
    std::vector<int32_t> satisfied;
    satisfied.reserve(count);
    for (size_t w = 0; w < words; ++w) {
      for (uint64_t m = mask[w]; m != 0; m &= m - 1) {
        satisfied.push_back(static_cast<int32_t>(w * 64) +
                            std::countr_zero(m));
      }
    }
    PersonalizedRow out;
    out.row = std::move(groups.extract(it++).key());
    out.satisfied = IndexSet::FromUnsorted(std::move(satisfied));
    out.doi = ConjunctionDoi(out.satisfied, dois);
    result.rows.push_back(std::move(out));
  }

  RankByRendering(
      result.rows,
      [](const PersonalizedRow& r) -> const Tuple& { return r.row; },
      [](const PersonalizedRow& r) { return r.doi; });
  return result;
}

}  // namespace cqp::exec
