#include <gtest/gtest.h>

#include "estimation/estimate.h"
#include "estimation/evaluator.h"
#include "sql/parser.h"
#include "test_util.h"

namespace cqp::estimation {
namespace {

using catalog::CompareOp;
using catalog::Value;
using prefs::AtomicJoin;
using prefs::AtomicSelection;
using prefs::ImplicitPreference;
using sql::ParseSelect;

class EstimateTest : public ::testing::Test {
 protected:
  EstimateTest()
      : db_(testing::MakeTinyMovieDb()), estimator_(&db_) {}

  QueryBaseEstimate Base(const std::string& sql) {
    auto q = *ParseSelect(sql);
    auto est = estimator_.EstimateBase(q);
    CQP_CHECK(est.ok()) << est.status().ToString();
    return *est;
  }

  storage::Database db_;
  ParameterEstimator estimator_;
};

TEST_F(EstimateTest, BaseCostIsBlockSum) {
  QueryBaseEstimate base = Base("SELECT title FROM MOVIE");
  const storage::Table* movie = *db_.GetTable("MOVIE");
  EXPECT_DOUBLE_EQ(base.cost_ms, static_cast<double>(movie->blocks()));
}

TEST_F(EstimateTest, BaseCostSumsJoinedRelations) {
  QueryBaseEstimate base =
      Base("SELECT M.title FROM MOVIE M, DIRECTOR D WHERE M.did = D.did");
  double expect = static_cast<double>((*db_.GetTable("MOVIE"))->blocks() +
                                      (*db_.GetTable("DIRECTOR"))->blocks());
  EXPECT_DOUBLE_EQ(base.cost_ms, expect);
}

TEST_F(EstimateTest, BaseSizeFullScanIsRowCount) {
  QueryBaseEstimate base = Base("SELECT title FROM MOVIE");
  EXPECT_DOUBLE_EQ(base.size, 6.0);
}

TEST_F(EstimateTest, BaseSizeSelectionsShrink) {
  QueryBaseEstimate all = Base("SELECT title FROM MOVIE");
  QueryBaseEstimate some =
      Base("SELECT title FROM MOVIE WHERE MOVIE.year >= 1980");
  EXPECT_LT(some.size, all.size);
  EXPECT_GT(some.size, 0.0);
}

TEST_F(EstimateTest, BaseSizeEquiJoinUsesNdv) {
  // |MOVIE| * |DIRECTOR| / max(ndv did) = 6 * 3 / 3 = 6.
  QueryBaseEstimate base =
      Base("SELECT M.title FROM MOVIE M, DIRECTOR D WHERE M.did = D.did");
  EXPECT_DOUBLE_EQ(base.size, 6.0);
}

TEST_F(EstimateTest, PreferenceCostAddsPathRelations) {
  QueryBaseEstimate base = Base("SELECT title FROM MOVIE");
  ImplicitPreference pref;
  pref.joins = {AtomicJoin{"MOVIE", "did", "DIRECTOR", "did", 1.0}};
  pref.selection = AtomicSelection{"DIRECTOR", "name", CompareOp::kEq,
                                   Value("W. Allen"), 0.8};
  PreferenceEstimate est = *estimator_.EstimatePreference(base, pref);
  double expect =
      base.cost_ms + static_cast<double>((*db_.GetTable("DIRECTOR"))->blocks());
  EXPECT_DOUBLE_EQ(est.cost_ms, expect);
}

TEST_F(EstimateTest, JoinFreePreferenceCostEqualsBase) {
  QueryBaseEstimate base = Base("SELECT title FROM MOVIE");
  ImplicitPreference pref;
  pref.selection = AtomicSelection{"MOVIE", "year", CompareOp::kGe,
                                   Value(int64_t{1980}), 0.6};
  PreferenceEstimate est = *estimator_.EstimatePreference(base, pref);
  EXPECT_DOUBLE_EQ(est.cost_ms, base.cost_ms);
  EXPECT_LT(est.selectivity, 1.0);
}

TEST_F(EstimateTest, PreferenceSelectivityCappedAtOne) {
  QueryBaseEstimate base = Base("SELECT title FROM MOVIE");
  // GENRE fans out (9 rows over 6 movies) but a selective genre keeps the
  // product small; an always-true-ish selection would cap at 1.
  ImplicitPreference pref;
  pref.joins = {AtomicJoin{"MOVIE", "mid", "GENRE", "mid", 0.9}};
  pref.selection = AtomicSelection{"GENRE", "genre", CompareOp::kNe,
                                   Value("nonexistent"), 0.5};
  PreferenceEstimate est = *estimator_.EstimatePreference(base, pref);
  EXPECT_LE(est.selectivity, 1.0);
  EXPECT_GT(est.selectivity, 0.0);
  EXPECT_LE(est.size, base.size);
}

TEST_F(EstimateTest, PathCostMonotoneInPathLength) {
  QueryBaseEstimate base = Base("SELECT title FROM MOVIE");
  std::vector<AtomicJoin> joins = {
      AtomicJoin{"MOVIE", "mid", "GENRE", "mid", 0.9}};
  double one = *estimator_.PathCost(base, joins);
  joins.push_back(AtomicJoin{"GENRE", "mid", "DIRECTOR", "did", 0.9});
  double two = *estimator_.PathCost(base, joins);
  EXPECT_GT(one, base.cost_ms);
  EXPECT_GT(two, one);
}

TEST_F(EstimateTest, SelectionSelectivityMatchesStats) {
  // 'horror' appears in 2 of 9 genre rows.
  double sel = *estimator_.SelectionSelectivity("GENRE", "genre",
                                                CompareOp::kEq,
                                                Value("horror"));
  EXPECT_NEAR(sel, 2.0 / 9.0, 1e-9);
}

TEST_F(EstimateTest, UnknownRelationFails) {
  EXPECT_FALSE(estimator_
                   .SelectionSelectivity("NOPE", "x", CompareOp::kEq,
                                         Value(int64_t{1}))
                   .ok());
}

// ---------- StateEvaluator ----------

class EvaluatorTest : public ::testing::Test {
 protected:
  EvaluatorTest() : rng_(42), space_(testing::MakeRandomSpace(rng_, 8)) {}

  Rng rng_;
  space::PreferenceSpaceResult space_;
};

TEST_F(EvaluatorTest, EmptyStateIsOriginalQuery) {
  StateEvaluator eval = space_.MakeEvaluator();
  StateParams empty = eval.EmptyState();
  EXPECT_DOUBLE_EQ(empty.doi, 0.0);
  EXPECT_DOUBLE_EQ(empty.cost_ms, space_.base.cost_ms);
  EXPECT_DOUBLE_EQ(empty.size, space_.base.size);
  EXPECT_EQ(empty.count, 0u);
}

TEST_F(EvaluatorTest, SingletonCostReplacesBaseCost) {
  StateEvaluator eval = space_.MakeEvaluator();
  StateParams s = eval.Evaluate(IndexSet{0});
  // Formula 6: one sub-query, whose cost already includes Q's relations.
  EXPECT_DOUBLE_EQ(s.cost_ms, space_.prefs[0].cost_ms);
}

TEST_F(EvaluatorTest, CostIsAdditive) {
  StateEvaluator eval = space_.MakeEvaluator();
  StateParams s = eval.Evaluate(IndexSet{1, 3, 5});
  double expect = space_.prefs[1].cost_ms + space_.prefs[3].cost_ms +
                  space_.prefs[5].cost_ms;
  EXPECT_NEAR(s.cost_ms, expect, 1e-9);
}

TEST_F(EvaluatorTest, SizeIsProductOfSelectivities) {
  StateEvaluator eval = space_.MakeEvaluator();
  StateParams s = eval.Evaluate(IndexSet{0, 2});
  double expect = space_.base.size * space_.prefs[0].selectivity *
                  space_.prefs[2].selectivity;
  EXPECT_NEAR(s.size, expect, 1e-9);
}

TEST_F(EvaluatorTest, DoiIsNoisyOr) {
  StateEvaluator eval = space_.MakeEvaluator();
  StateParams s = eval.Evaluate(IndexSet{0, 1});
  double expect =
      1.0 - (1.0 - space_.prefs[0].doi) * (1.0 - space_.prefs[1].doi);
  EXPECT_NEAR(s.doi, expect, 1e-12);
}

TEST_F(EvaluatorTest, IncrementalMatchesBatch) {
  StateEvaluator eval = space_.MakeEvaluator();
  StateParams inc = eval.EmptyState();
  std::vector<int32_t> members{0, 3, 4, 7};
  for (int32_t i : members) inc = eval.ExtendWith(inc, i);
  StateParams batch = eval.Evaluate(IndexSet::FromUnsorted(members));
  EXPECT_NEAR(inc.doi, batch.doi, 1e-12);
  EXPECT_NEAR(inc.cost_ms, batch.cost_ms, 1e-9);
  EXPECT_NEAR(inc.size, batch.size, 1e-9);
  EXPECT_EQ(inc.count, batch.count);
}

TEST_F(EvaluatorTest, MonotonicityFormulas478) {
  // Formulas 4 (doi), 7 (cost), 8 (size) under set inclusion.
  StateEvaluator eval = space_.MakeEvaluator();
  StateParams sub = eval.Evaluate(IndexSet{1, 4});
  StateParams super = eval.Evaluate(IndexSet{1, 2, 4});
  EXPECT_LE(sub.doi, super.doi);
  EXPECT_LE(sub.cost_ms, super.cost_ms);
  EXPECT_GE(sub.size, super.size);
}

TEST_F(EvaluatorTest, SupremeStateUsesAllPrefs) {
  StateEvaluator eval = space_.MakeEvaluator();
  StateParams supreme = eval.SupremeState();
  EXPECT_EQ(supreme.count, 8u);
  std::vector<int32_t> all;
  for (int i = 0; i < 8; ++i) all.push_back(i);
  StateParams direct = eval.Evaluate(IndexSet::FromUnsorted(all));
  EXPECT_NEAR(supreme.cost_ms, direct.cost_ms, 1e-9);
}

TEST_F(EvaluatorTest, SumCappedModelApplies) {
  StateEvaluator eval(space_.base, space_.prefs,
                      prefs::ConjunctionModel::kSumCapped);
  StateParams s = eval.Evaluate(IndexSet{0, 1});
  EXPECT_NEAR(s.doi,
              std::min(1.0, space_.prefs[0].doi + space_.prefs[1].doi),
              1e-12);
}

TEST_F(EvaluatorTest, EvaluateBitsMatchesEvaluate) {
  StateEvaluator eval = space_.MakeEvaluator();
  Rng rng(7);
  for (int round = 0; round < 64; ++round) {
    uint64_t bits = rng.Next() & 0xffull;  // K = 8
    std::vector<int32_t> members;
    for (int32_t i = 0; i < 8; ++i) {
      if ((bits >> i) & 1) members.push_back(i);
    }
    StateParams via_bits = eval.EvaluateBits(bits);
    StateParams via_set = eval.Evaluate(IndexSet::FromUnsorted(members));
    EXPECT_EQ(via_bits.doi, via_set.doi);
    EXPECT_EQ(via_bits.cost_ms, via_set.cost_ms);
    EXPECT_EQ(via_bits.size, via_set.size);
    EXPECT_EQ(via_bits.count, via_set.count);
  }
}

}  // namespace
}  // namespace cqp::estimation
