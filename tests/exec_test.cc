#include <gtest/gtest.h>

#include <set>

#include "exec/executor.h"
#include "exec/personalized_exec.h"
#include "sql/parser.h"
#include "test_util.h"

namespace cqp::exec {
namespace {

using sql::ParseSelect;
using sql::SelectQuery;

class ExecutorTest : public ::testing::Test {
 protected:
  ExecutorTest() : db_(testing::MakeTinyMovieDb()), executor_(&db_) {}

  RowSet Run(const std::string& sql, ExecStats* stats = nullptr) {
    SelectQuery q = *ParseSelect(sql);
    auto result = executor_.Execute(q, stats);
    CQP_CHECK(result.ok()) << result.status().ToString();
    return *std::move(result);
  }

  storage::Database db_;
  Executor executor_;
};

TEST_F(ExecutorTest, FullScan) {
  RowSet rows = Run("SELECT title FROM MOVIE");
  EXPECT_EQ(rows.row_count(), 6u);
  EXPECT_EQ(rows.column_names(), std::vector<std::string>{"title"});
}

TEST_F(ExecutorTest, SelectStarKeepsQualifiedNames) {
  RowSet rows = Run("SELECT * FROM DIRECTOR");
  EXPECT_EQ(rows.arity(), 2u);
  EXPECT_EQ(rows.column_names()[0], "DIRECTOR.did");
}

TEST_F(ExecutorTest, SelectionFilters) {
  RowSet rows = Run("SELECT title FROM MOVIE WHERE MOVIE.year >= 1980");
  EXPECT_EQ(rows.row_count(), 2u);  // Everyone Says (1996), Shining (1980)
}

TEST_F(ExecutorTest, SelectionOnStrings) {
  RowSet rows = Run("SELECT mid FROM GENRE WHERE GENRE.genre = 'horror'");
  EXPECT_EQ(rows.row_count(), 2u);
}

TEST_F(ExecutorTest, HashJoin) {
  RowSet rows = Run(
      "SELECT M.title, D.name FROM MOVIE M, DIRECTOR D WHERE M.did = D.did");
  EXPECT_EQ(rows.row_count(), 6u);
  // Every Allen movie pairs with "W. Allen".
  int allen = 0;
  for (const auto& row : rows.rows()) {
    if (row.at(1).AsString() == "W. Allen") ++allen;
  }
  EXPECT_EQ(allen, 2);
}

TEST_F(ExecutorTest, JoinWithSelection) {
  RowSet rows = Run(
      "SELECT M.title FROM MOVIE M, DIRECTOR D "
      "WHERE M.did = D.did AND D.name = 'S. Kubrick'");
  EXPECT_EQ(rows.row_count(), 2u);
}

TEST_F(ExecutorTest, ThreeWayJoin) {
  RowSet rows = Run(
      "SELECT M.title, G.genre FROM MOVIE M, DIRECTOR D, GENRE G "
      "WHERE M.did = D.did AND M.mid = G.mid AND D.name = 'A. Hitchcock'");
  EXPECT_EQ(rows.row_count(), 3u);  // Psycho x2 genres + Vertigo x1
}

TEST_F(ExecutorTest, CartesianProductWhenNoJoinPredicate) {
  RowSet rows = Run("SELECT M.title, D.name FROM MOVIE M, DIRECTOR D");
  EXPECT_EQ(rows.row_count(), 18u);  // 6 x 3
}

TEST_F(ExecutorTest, ThetaJoinFilter) {
  // Movies strictly newer than some other movie by the same director.
  RowSet rows = Run(
      "SELECT A.title FROM MOVIE A, MOVIE B "
      "WHERE A.did = B.did AND A.year > B.year");
  // Within each director's two movies, exactly one is newer: 3 rows.
  EXPECT_EQ(rows.row_count(), 3u);
}

TEST_F(ExecutorTest, DistinctDedupes) {
  RowSet rows = Run("SELECT DISTINCT genre FROM GENRE");
  std::set<std::string> genres;
  for (const auto& row : rows.rows()) genres.insert(row.at(0).AsString());
  EXPECT_EQ(rows.row_count(), genres.size());
  EXPECT_EQ(genres.size(), 6u);
}

TEST_F(ExecutorTest, UnqualifiedColumnsResolveWhenUnambiguous) {
  RowSet rows = Run(
      "SELECT title FROM MOVIE M, GENRE G "
      "WHERE M.mid = G.mid AND genre = 'comedy'");
  EXPECT_EQ(rows.row_count(), 2u);
}

TEST_F(ExecutorTest, AmbiguousUnqualifiedColumnFails) {
  SelectQuery q = *ParseSelect(
      "SELECT title FROM MOVIE M, GENRE G WHERE mid = 1");
  EXPECT_FALSE(executor_.Execute(q, nullptr).ok());
}

TEST_F(ExecutorTest, UnknownTableFails) {
  SelectQuery q = *ParseSelect("SELECT x FROM NOPE");
  EXPECT_FALSE(executor_.Execute(q, nullptr).ok());
}

TEST_F(ExecutorTest, DuplicateAliasFails) {
  SelectQuery q = *ParseSelect("SELECT M.title FROM MOVIE M, GENRE M");
  EXPECT_FALSE(executor_.Execute(q, nullptr).ok());
}

TEST_F(ExecutorTest, TypeMismatchInPredicateFails) {
  SelectQuery q = *ParseSelect("SELECT title FROM MOVIE WHERE title = 3");
  EXPECT_FALSE(executor_.Execute(q, nullptr).ok());
}

TEST_F(ExecutorTest, OrderBySortsAscendingAndDescending) {
  RowSet rows = Run("SELECT title, year FROM MOVIE ORDER BY year");
  for (size_t i = 1; i < rows.row_count(); ++i) {
    EXPECT_LE(rows.rows()[i - 1].at(1).AsInt(), rows.rows()[i].at(1).AsInt());
  }
  rows = Run("SELECT title, year FROM MOVIE ORDER BY year DESC");
  EXPECT_EQ(rows.rows()[0].at(1).AsInt(), 1996);
}

TEST_F(ExecutorTest, OrderByMultipleKeysIsStable) {
  RowSet rows = Run(
      "SELECT M.did, M.title FROM MOVIE M ORDER BY M.did, M.title DESC");
  for (size_t i = 1; i < rows.row_count(); ++i) {
    int64_t prev = rows.rows()[i - 1].at(0).AsInt();
    int64_t cur = rows.rows()[i].at(0).AsInt();
    EXPECT_LE(prev, cur);
    if (prev == cur) {
      EXPECT_GE(rows.rows()[i - 1].at(1).AsString(),
                rows.rows()[i].at(1).AsString());
    }
  }
}

TEST_F(ExecutorTest, LimitTruncates) {
  RowSet rows = Run("SELECT title FROM MOVIE ORDER BY title LIMIT 2");
  ASSERT_EQ(rows.row_count(), 2u);
  EXPECT_EQ(rows.rows()[0].at(0).AsString(), "2001: A Space Odyssey");
}

TEST_F(ExecutorTest, LimitZeroYieldsNothing) {
  RowSet rows = Run("SELECT title FROM MOVIE LIMIT 0");
  EXPECT_EQ(rows.row_count(), 0u);
}

TEST_F(ExecutorTest, LimitLargerThanResultIsNoop) {
  RowSet rows = Run("SELECT title FROM MOVIE LIMIT 100");
  EXPECT_EQ(rows.row_count(), 6u);
}

TEST_F(ExecutorTest, OrderByUnknownColumnFails) {
  SelectQuery q = *ParseSelect("SELECT title FROM MOVIE ORDER BY rating");
  EXPECT_FALSE(executor_.Execute(q, nullptr).ok());
}

TEST_F(ExecutorTest, StatsCountBlocksOncePerScan) {
  ExecStats stats;
  Run("SELECT title FROM MOVIE", &stats);
  const storage::Table* movie = *db_.GetTable("MOVIE");
  EXPECT_EQ(stats.blocks_read, movie->blocks());
  EXPECT_GE(stats.tuples_processed, movie->row_count());
}

TEST_F(ExecutorTest, StatsSumBlocksAcrossJoin) {
  ExecStats stats;
  Run("SELECT M.title FROM MOVIE M, DIRECTOR D WHERE M.did = D.did", &stats);
  uint64_t expect = (*db_.GetTable("MOVIE"))->blocks() +
                    (*db_.GetTable("DIRECTOR"))->blocks();
  EXPECT_EQ(stats.blocks_read, expect);
}

TEST_F(ExecutorTest, SimulatedMillisUsesCostParams) {
  ExecStats stats;
  stats.blocks_read = 10;
  stats.tuples_processed = 2000;
  CostModelParams params;  // 1 ms/block, 0.2 us/tuple
  EXPECT_DOUBLE_EQ(stats.SimulatedMillis(params), 10.0 + 0.4);
}

// ---------- ExecuteUnionGroup ----------

TEST_F(ExecutorTest, UnionGroupIntersects) {
  auto q = *sql::ParseUnionGroup(
      "SELECT title FROM ("
      "  SELECT DISTINCT M.title FROM MOVIE M, DIRECTOR D"
      "    WHERE M.did = D.did AND D.name = 'W. Allen'"
      "  UNION ALL"
      "  SELECT DISTINCT M.title FROM MOVIE M, GENRE G"
      "    WHERE M.mid = G.mid AND G.genre = 'musical'"
      ") GROUP BY title HAVING COUNT(*) = 2");
  ExecStats stats;
  auto rows = *executor_.ExecuteUnionGroup(q, &stats);
  ASSERT_EQ(rows.row_count(), 1u);
  EXPECT_EQ(rows.rows()[0].at(0).AsString(), "Everyone Says I Love You");
  EXPECT_GT(stats.blocks_read, 0u);
}

TEST_F(ExecutorTest, UnionGroupCountOneIsUnion) {
  auto q = *sql::ParseUnionGroup(
      "SELECT title FROM ("
      "  SELECT DISTINCT title FROM MOVIE WHERE MOVIE.year < 1965"
      "  UNION ALL"
      "  SELECT DISTINCT title FROM MOVIE WHERE MOVIE.year > 1990"
      ") GROUP BY title HAVING COUNT(*) = 1");
  auto rows = *executor_.ExecuteUnionGroup(q, nullptr);
  EXPECT_EQ(rows.row_count(), 3u);  // Psycho, Vertigo + Everyone Says
}

TEST_F(ExecutorTest, UnionGroupWithoutDistinctCountsDuplicates) {
  // SQL semantics: "Psycho" has two genre rows, so a non-DISTINCT branch
  // emits it twice and COUNT(*) = 2 is reached within one branch.
  auto q = *sql::ParseUnionGroup(
      "SELECT title FROM ("
      "  SELECT M.title FROM MOVIE M, GENRE G WHERE M.mid = G.mid"
      "    AND M.did = 3"
      "  UNION ALL"
      "  SELECT title FROM MOVIE WHERE MOVIE.year > 2030"
      ") GROUP BY title HAVING COUNT(*) = 2");
  auto rows = *executor_.ExecuteUnionGroup(q, nullptr);
  ASSERT_EQ(rows.row_count(), 1u);
  EXPECT_EQ(rows.rows()[0].at(0).AsString(), "Psycho");
}

TEST_F(ExecutorTest, UnionGroupRejectsBadHavingCount) {
  auto q = *sql::ParseUnionGroup(
      "SELECT title FROM (SELECT title FROM MOVIE) "
      "GROUP BY title HAVING COUNT(*) = 2");
  EXPECT_FALSE(executor_.ExecuteUnionGroup(q, nullptr).ok());
}

// ---------- Personalized execution ----------

class PersonalizedExecTest : public ExecutorTest {
 protected:
  SelectQuery Sub(const std::string& sql) { return *ParseSelect(sql); }
};

TEST_F(PersonalizedExecTest, IntersectionSemantics) {
  // Paper §4.2 example: Allen movies ∩ musical movies = one title.
  std::vector<SelectQuery> subs = {
      Sub("SELECT M.title FROM MOVIE M, DIRECTOR D "
          "WHERE M.did = D.did AND D.name = 'W. Allen'"),
      Sub("SELECT M.title FROM MOVIE M, GENRE G "
          "WHERE M.mid = G.mid AND G.genre = 'musical'"),
  };
  auto result = *ExecutePersonalized(executor_, subs, {0.8, 0.45},
                                     CombineMode::kIntersection, nullptr);
  ASSERT_EQ(result.rows.size(), 1u);
  EXPECT_EQ(result.rows[0].row.at(0).AsString(), "Everyone Says I Love You");
  // doi of both preferences: 1 - 0.2*0.55
  EXPECT_NEAR(result.rows[0].doi, 1.0 - 0.2 * 0.55, 1e-12);
}

TEST_F(PersonalizedExecTest, RankedUnionOrdersByDoi) {
  std::vector<SelectQuery> subs = {
      Sub("SELECT M.title FROM MOVIE M, DIRECTOR D "
          "WHERE M.did = D.did AND D.name = 'W. Allen'"),
      Sub("SELECT M.title FROM MOVIE M, GENRE G "
          "WHERE M.mid = G.mid AND G.genre = 'comedy'"),
  };
  auto result = *ExecutePersonalized(executor_, subs, {0.8, 0.45},
                                     CombineMode::kRankedUnion, nullptr);
  ASSERT_GE(result.rows.size(), 2u);
  // Rows satisfying both preferences rank first.
  EXPECT_EQ(result.rows[0].satisfied.size(), 2u);
  for (size_t i = 1; i < result.rows.size(); ++i) {
    EXPECT_GE(result.rows[i - 1].doi, result.rows[i].doi);
  }
}

TEST_F(PersonalizedExecTest, DuplicateJoinRowsDoNotFakeIntersection) {
  // "Psycho" has two genres; a single sub-query joining GENRE twice could
  // produce duplicate titles. The per-sub-query DISTINCT must prevent one
  // preference from counting twice.
  std::vector<SelectQuery> subs = {
      Sub("SELECT M.title FROM MOVIE M, GENRE G WHERE M.mid = G.mid"),
      Sub("SELECT M.title FROM MOVIE M WHERE M.year < 1900"),
  };
  auto result = *ExecutePersonalized(executor_, subs, {0.5, 0.5},
                                     CombineMode::kIntersection, nullptr);
  EXPECT_TRUE(result.rows.empty());
}

TEST_F(PersonalizedExecTest, MembershipSpansMoreThan64Subqueries) {
  // Sub-query 69 alone keeps the three pre-1979 titles out of the
  // intersection; the others all return every title.
  std::vector<SelectQuery> subs(70, Sub("SELECT M.title FROM MOVIE M"));
  subs[69] = Sub("SELECT M.title FROM MOVIE M WHERE M.year >= 1979");
  std::vector<double> dois(subs.size(), 0.01);
  auto all = *ExecutePersonalized(executor_, subs, dois,
                                  CombineMode::kRankedUnion, nullptr);
  auto both = *ExecutePersonalized(executor_, subs, dois,
                                   CombineMode::kIntersection, nullptr);
  ASSERT_EQ(all.rows.size(), 6u);
  ASSERT_EQ(both.rows.size(), 3u);
  for (const PersonalizedRow& row : both.rows) {
    EXPECT_EQ(row.satisfied.size(), 70u);
    EXPECT_EQ(row.satisfied.Max(), 69);
  }
  EXPECT_EQ(all.rows.back().satisfied.size(), 69u);
  EXPECT_EQ(all.rows.back().satisfied.Max(), 68);
}

TEST_F(PersonalizedExecTest, MismatchedAritiesFail) {
  std::vector<SelectQuery> subs = {
      Sub("SELECT title FROM MOVIE"),
      Sub("SELECT title, year FROM MOVIE"),
  };
  EXPECT_FALSE(ExecutePersonalized(executor_, subs, {0.5, 0.5},
                                   CombineMode::kIntersection, nullptr)
                   .ok());
}

TEST_F(PersonalizedExecTest, EmptySubqueryListFails) {
  EXPECT_FALSE(ExecutePersonalized(executor_, {}, {},
                                   CombineMode::kIntersection, nullptr)
                   .ok());
}

TEST_F(PersonalizedExecTest, DoiVectorMustParallelSubqueries) {
  std::vector<SelectQuery> subs = {Sub("SELECT title FROM MOVIE")};
  EXPECT_FALSE(ExecutePersonalized(executor_, subs, {0.5, 0.1},
                                   CombineMode::kIntersection, nullptr)
                   .ok());
}

}  // namespace
}  // namespace cqp::exec
