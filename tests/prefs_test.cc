#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>

#include "prefs/doi.h"
#include "prefs/graph.h"
#include "prefs/preference.h"
#include "prefs/profile.h"
#include "test_util.h"

namespace cqp::prefs {
namespace {

using catalog::CompareOp;
using catalog::Value;

// ---------- doi composition ----------

TEST(DoiTest, Validity) {
  EXPECT_TRUE(IsValidDoi(0.0));
  EXPECT_TRUE(IsValidDoi(1.0));
  EXPECT_FALSE(IsValidDoi(-0.1));
  EXPECT_FALSE(IsValidDoi(1.1));
}

TEST(DoiTest, ProductComposition) {
  // Paper Formula 9: doi(p3 ∧ p4) = 1.0 * 0.8.
  EXPECT_DOUBLE_EQ(ComposePathDoi({1.0, 0.8}, PathComposition::kProduct), 0.8);
  EXPECT_DOUBLE_EQ(ComposePathDoi({0.5}, PathComposition::kProduct), 0.5);
}

TEST(DoiTest, MinComposition) {
  EXPECT_DOUBLE_EQ(ComposePathDoi({0.9, 0.3, 0.7}, PathComposition::kMin),
                   0.3);
}

TEST(DoiTest, CompositionNeverExceedsMin) {
  // Formula 2: f⊗(d1..dm) <= min(d1..dm), for both implementations.
  const std::vector<std::vector<double>> cases = {
      {0.5, 0.9}, {1.0, 1.0}, {0.2, 0.3, 0.4}, {0.0, 0.9}};
  for (const auto& dois : cases) {
    double min = *std::min_element(dois.begin(), dois.end());
    EXPECT_LE(ComposePathDoi(dois, PathComposition::kProduct), min);
    EXPECT_LE(ComposePathDoi(dois, PathComposition::kMin), min);
  }
}

TEST(DoiTest, NoisyOrConjunction) {
  // Formula 10: 1 - (1-0.5)(1-0.8) = 0.9.
  EXPECT_DOUBLE_EQ(CombineConjunctionDoi({0.5, 0.8},
                                         ConjunctionModel::kNoisyOr),
                   0.9);
  EXPECT_DOUBLE_EQ(CombineConjunctionDoi({}, ConjunctionModel::kNoisyOr), 0.0);
}

TEST(DoiTest, SumCappedConjunction) {
  EXPECT_DOUBLE_EQ(CombineConjunctionDoi({0.5, 0.3},
                                         ConjunctionModel::kSumCapped),
                   0.8);
  EXPECT_DOUBLE_EQ(CombineConjunctionDoi({0.7, 0.7},
                                         ConjunctionModel::kSumCapped),
                   1.0);
}

TEST(DoiTest, ConjunctionMonotoneUnderInclusion) {
  // Formula 4: adding preferences never lowers the conjunction doi.
  for (ConjunctionModel model :
       {ConjunctionModel::kNoisyOr, ConjunctionModel::kSumCapped}) {
    double smaller = CombineConjunctionDoi({0.4, 0.2}, model);
    double larger = CombineConjunctionDoi({0.4, 0.2, 0.05}, model);
    EXPECT_GE(larger, smaller);
  }
}

// ---------- preferences ----------

ImplicitPreference AllenPref() {
  ImplicitPreference p;
  p.joins = {AtomicJoin{"MOVIE", "did", "DIRECTOR", "did", 1.0}};
  p.selection =
      AtomicSelection{"DIRECTOR", "name", CompareOp::kEq, Value("W. Allen"),
                      0.8};
  p.doi = p.ComputeDoi(PathComposition::kProduct);
  return p;
}

TEST(PreferenceTest, ConditionStrings) {
  ImplicitPreference p = AllenPref();
  EXPECT_EQ(p.selection.ConditionString(), "DIRECTOR.name = 'W. Allen'");
  EXPECT_EQ(p.joins[0].ConditionString(), "MOVIE.did = DIRECTOR.did");
  EXPECT_EQ(p.ConditionString(),
            "MOVIE.did = DIRECTOR.did and DIRECTOR.name = 'W. Allen'");
}

TEST(PreferenceTest, ComputeDoiMatchesPaperExample) {
  // Figure 1: p3 (join, 1.0) composed with p4 (selection, 0.8) -> 0.8.
  EXPECT_DOUBLE_EQ(AllenPref().doi, 0.8);
}

TEST(PreferenceTest, AnchorAndPathRelations) {
  ImplicitPreference p = AllenPref();
  EXPECT_EQ(p.AnchorRelation(), "MOVIE");
  EXPECT_EQ(p.Length(), 2u);
  auto rels = p.PathRelations();
  ASSERT_EQ(rels.size(), 2u);
  EXPECT_EQ(rels[0], "MOVIE");
  EXPECT_EQ(rels[1], "DIRECTOR");
}

TEST(PreferenceTest, JoinFreePreference) {
  ImplicitPreference p;
  p.selection =
      AtomicSelection{"MOVIE", "year", CompareOp::kGe, Value(int64_t{1990}),
                      0.6};
  EXPECT_EQ(p.AnchorRelation(), "MOVIE");
  EXPECT_EQ(p.Length(), 1u);
}

TEST(PreferenceTest, CanExtendEnforcesConnectivityAndAcyclicity) {
  ImplicitPreference p = AllenPref();
  // Extension must leave DIRECTOR (the current tail).
  EXPECT_FALSE(
      p.CanExtendWith(AtomicJoin{"MOVIE", "mid", "GENRE", "mid", 0.9}));
  // Revisiting MOVIE would create a cycle.
  EXPECT_FALSE(
      p.CanExtendWith(AtomicJoin{"DIRECTOR", "did", "MOVIE", "did", 0.9}));
  // A fresh relation is fine.
  EXPECT_TRUE(
      p.CanExtendWith(AtomicJoin{"DIRECTOR", "did", "AWARD", "did", 0.9}));
}

// ---------- profile ----------

TEST(ProfileTest, AddRejectsInvalidDoi) {
  Profile p;
  EXPECT_FALSE(p.AddSelection(AtomicSelection{"R", "a", CompareOp::kEq,
                                              Value(int64_t{1}), 1.5})
                   .ok());
  EXPECT_FALSE(
      p.AddJoin(AtomicJoin{"R", "a", "S", "a", -0.1}).ok());
}

TEST(ProfileTest, AddRejectsDuplicates) {
  Profile p;
  AtomicSelection sel{"R", "a", CompareOp::kEq, Value(int64_t{1}), 0.5};
  ASSERT_TRUE(p.AddSelection(sel).ok());
  sel.doi = 0.7;  // same condition, different doi
  EXPECT_EQ(p.AddSelection(sel).code(), StatusCode::kAlreadyExists);
}

TEST(ProfileTest, AddRejectsSelfJoin) {
  Profile p;
  EXPECT_FALSE(p.AddJoin(AtomicJoin{"R", "a", "R", "b", 0.5}).ok());
}

TEST(ProfileTest, ParseFigureOneProfile) {
  // The paper's Figure 1.
  auto profile = Profile::Parse(R"(
      # Figure 1 example profile
      doi(GENRE.genre = 'musical') = 0.5
      doi(MOVIE.mid = GENRE.mid) = 0.9
      doi(MOVIE.did = DIRECTOR.did) = 1.0
      doi(DIRECTOR.name = 'W. Allen') = 0.8
  )");
  ASSERT_TRUE(profile.ok()) << profile.status().ToString();
  EXPECT_EQ(profile->selections().size(), 2u);
  EXPECT_EQ(profile->joins().size(), 2u);
  EXPECT_DOUBLE_EQ(profile->joins()[1].doi, 1.0);
}

TEST(ProfileTest, ParseRangeOperators) {
  auto profile = Profile::Parse("doi(MOVIE.duration <= 120) = 0.4");
  ASSERT_TRUE(profile.ok());
  EXPECT_EQ(profile->selections()[0].op, CompareOp::kLe);
  EXPECT_EQ(profile->selections()[0].value.AsInt(), 120);
}

TEST(ProfileTest, ParseRejectsMalformedLines) {
  EXPECT_FALSE(Profile::Parse("doi(MOVIE.year) = 0.4").ok());
  EXPECT_FALSE(Profile::Parse("doi(MOVIE.year = 2000)").ok());
  EXPECT_FALSE(Profile::Parse("interest(MOVIE.year = 2000) = 0.4").ok());
  EXPECT_FALSE(Profile::Parse("doi(MOVIE.a < DIRECTOR.b) = 0.4").ok());
}

TEST(ProfileTest, RoundTripThroughText) {
  auto p1 = *Profile::Parse(
      "doi(MOVIE.mid = GENRE.mid) = 0.9\ndoi(GENRE.genre = 'drama') = 0.25");
  auto p2 = Profile::Parse(p1.ToText());
  ASSERT_TRUE(p2.ok());
  EXPECT_EQ(p2->selections().size(), 1u);
  EXPECT_EQ(p2->joins().size(), 1u);
  EXPECT_NEAR(p2->selections()[0].doi, 0.25, 1e-9);
}

TEST(ProfileTest, RoundTripKeepsDoiBitsExactly) {
  const double dois[] = {0.0,
                         -0.0,
                         1.0,
                         0.1,
                         1.0 / 3.0,
                         0.123456789012345678,
                         std::nextafter(1.0, 0.0),
                         1e-300,
                         std::numeric_limits<double>::denorm_min(),
                         0.5000005};
  Profile profile;
  int i = 0;
  for (double doi : dois) {
    ASSERT_TRUE(profile
                    .AddSelection(AtomicSelection{
                        "GENRE", "genre", catalog::CompareOp::kEq,
                        catalog::Value("g" + std::to_string(i++)), doi})
                    .ok());
  }
  ASSERT_TRUE(profile.AddJoin(AtomicJoin{"MOVIE", "mid", "GENRE", "mid",
                                         0.987654321987654321})
                  .ok());
  auto parsed = Profile::Parse(profile.ToText());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  ASSERT_EQ(parsed->selections().size(), std::size(dois));
  for (size_t j = 0; j < std::size(dois); ++j) {
    EXPECT_EQ(std::bit_cast<uint64_t>(parsed->selections()[j].doi),
              std::bit_cast<uint64_t>(dois[j]))
        << j << ": " << profile.ToText();
  }
  ASSERT_EQ(parsed->joins().size(), 1u);
  EXPECT_EQ(parsed->joins()[0].doi, profile.joins()[0].doi);
  // The text is a fixed point of the round trip.
  EXPECT_EQ(parsed->ToText(), profile.ToText());
}

TEST(ProfileTest, ValidateAgainstSchema) {
  storage::Database db = ::cqp::testing::MakeTinyMovieDb();
  auto good = *Profile::Parse("doi(MOVIE.year >= 1990) = 0.4");
  EXPECT_TRUE(good.ValidateAgainst(db).ok());
  auto bad_rel = *Profile::Parse("doi(NOPE.year >= 1990) = 0.4");
  EXPECT_FALSE(bad_rel.ValidateAgainst(db).ok());
  auto bad_attr = *Profile::Parse("doi(MOVIE.rating >= 5) = 0.4");
  EXPECT_FALSE(bad_attr.ValidateAgainst(db).ok());
  auto bad_type = *Profile::Parse("doi(MOVIE.year >= 'x') = 0.4");
  EXPECT_FALSE(bad_type.ValidateAgainst(db).ok());
}

// ---------- personalization graph ----------

TEST(GraphTest, BuildIndexesAdjacency) {
  storage::Database db = ::cqp::testing::MakeTinyMovieDb();
  auto profile = *Profile::Parse(R"(
      doi(GENRE.genre = 'musical') = 0.5
      doi(MOVIE.mid = GENRE.mid) = 0.9
      doi(MOVIE.did = DIRECTOR.did) = 1.0
      doi(DIRECTOR.name = 'W. Allen') = 0.8
  )");
  auto graph = PersonalizationGraph::Build(std::move(profile), db);
  ASSERT_TRUE(graph.ok()) << graph.status().ToString();
  EXPECT_EQ(graph->JoinsFrom("MOVIE").size(), 2u);
  EXPECT_EQ(graph->JoinsFrom("GENRE").size(), 0u);
  EXPECT_EQ(graph->SelectionsFrom("GENRE").size(), 1u);
  EXPECT_EQ(graph->SelectionsFrom("movie").size(), 0u);

  auto rels = graph->Relations();
  EXPECT_EQ(rels.size(), 3u);

  GraphCounts counts = graph->Counts();
  EXPECT_EQ(counts.relation_nodes, 3u);
  EXPECT_EQ(counts.selection_edges, 2u);
  EXPECT_EQ(counts.join_edges, 2u);
  EXPECT_EQ(counts.value_nodes, 2u);
  EXPECT_EQ(counts.attribute_nodes, 6u);
}

TEST(GraphTest, CountsDistinguishValueNodesFromAttributeNodes) {
  storage::Database db = ::cqp::testing::MakeTinyMovieDb();
  // Two values on the same attribute: one attribute node, two value nodes.
  auto profile = *Profile::Parse(R"(
      doi(GENRE.genre = 'musical') = 0.5
      doi(GENRE.genre = 'comedy') = 0.4
  )");
  auto graph = *PersonalizationGraph::Build(std::move(profile), db);
  GraphCounts counts = graph.Counts();
  EXPECT_EQ(counts.relation_nodes, 1u);
  EXPECT_EQ(counts.attribute_nodes, 1u);
  EXPECT_EQ(counts.value_nodes, 2u);
  EXPECT_EQ(counts.selection_edges, 2u);
  EXPECT_EQ(counts.join_edges, 0u);
}

TEST(GraphTest, BuildRejectsInvalidProfile) {
  storage::Database db = ::cqp::testing::MakeTinyMovieDb();
  auto profile = *Profile::Parse("doi(NOPE.x = 1) = 0.2");
  EXPECT_FALSE(PersonalizationGraph::Build(std::move(profile), db).ok());
}

}  // namespace
}  // namespace cqp::prefs
