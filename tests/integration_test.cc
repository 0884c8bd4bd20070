#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <memory>

#include "common/str_util.h"
#include "construct/personalizer.h"
#include "exec/executor.h"
#include "prefs/profile.h"
#include "sql/parser.h"
#include "storage/constraints.h"
#include "workload/experiment.h"
#include "workload/movie_gen.h"
#include "workload/profile_gen.h"
#include "workload/query_gen.h"
#include "workload/tourist_gen.h"

namespace cqp {
namespace {

using construct::PersonalizeRequest;
using construct::Personalizer;

class IntegrationTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    workload::MovieDbConfig config;
    config.n_movies = 3000;
    config.n_directors = 200;
    config.n_actors = 500;
    db_ = new storage::Database(*workload::BuildMovieDatabase(config));
    workload::ProfileGenConfig pc;
    auto profile = *workload::GenerateProfile(pc, config);
    graph_ = new prefs::PersonalizationGraph(
        *prefs::PersonalizationGraph::Build(std::move(profile), *db_));
  }

  static storage::Database* db_;
  static prefs::PersonalizationGraph* graph_;
};

storage::Database* IntegrationTest::db_ = nullptr;
prefs::PersonalizationGraph* IntegrationTest::graph_ = nullptr;

TEST_F(IntegrationTest, Problem2EndToEndWithAllMaxDoiAlgorithms) {
  Personalizer personalizer(db_, graph_);
  for (const char* algorithm :
       {"C-Boundaries", "C-MaxBounds", "D-MaxDoi", "D-SingleMaxDoi",
        "D-HeurDoi"}) {
    PersonalizeRequest request;
    request.sql = "SELECT title FROM MOVIE";
    request.problem = cqp::ProblemSpec::Problem2(400.0);
    request.algorithm = algorithm;
    request.space_options.max_k = 15;
    auto result = personalizer.Personalize(request);
    ASSERT_TRUE(result.ok()) << algorithm << ": "
                             << result.status().ToString();
    ASSERT_TRUE(result->solution.feasible) << algorithm;
    EXPECT_LE(result->solution.params.cost_ms, 400.0) << algorithm;
  }
}

TEST_F(IntegrationTest, ExactAlgorithmsAgreeOnRealWorkload) {
  Personalizer personalizer(db_, graph_);
  PersonalizeRequest request;
  request.sql = "SELECT title FROM MOVIE";
  request.space_options.max_k = 14;
  request.problem = cqp::ProblemSpec::Problem2(500.0);

  request.algorithm = "C-Boundaries";
  auto a = *personalizer.Personalize(request);
  request.algorithm = "D-MaxDoi";
  auto b = *personalizer.Personalize(request);
  request.algorithm = "Exhaustive";
  auto c = *personalizer.Personalize(request);
  ASSERT_TRUE(a.solution.feasible);
  EXPECT_NEAR(a.solution.params.doi, c.solution.params.doi, 1e-9);
  EXPECT_NEAR(b.solution.params.doi, c.solution.params.doi, 1e-9);
}

TEST_F(IntegrationTest, EstimatedCostTracksSimulatedExecution) {
  // The Fig. 15 claim: the Formula 6 estimate is close to the measured
  // execution time of the rewritten query under the engine's I/O clock.
  Personalizer personalizer(db_, graph_);
  PersonalizeRequest request;
  request.sql = "SELECT title FROM MOVIE";
  request.problem = cqp::ProblemSpec::Problem2(2000.0);
  request.algorithm = "C-Boundaries";
  request.space_options.max_k = 10;
  auto result = *personalizer.Personalize(request);
  ASSERT_TRUE(result.solution.feasible);
  ASSERT_GT(result.personalized.L(), 0u);

  exec::ExecStats stats;
  auto rows = personalizer.Execute(result, &stats);
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  double real_ms = stats.SimulatedMillis(exec::CostModelParams());
  double est_ms = result.solution.params.cost_ms;
  // Estimate is I/O-only; the measured time adds CPU. Within 25%.
  EXPECT_GT(real_ms, 0.0);
  EXPECT_NEAR(est_ms, real_ms, 0.25 * real_ms);
  // And the I/O component must match exactly: the sub-queries scan exactly
  // the relations the estimator charged for.
  EXPECT_DOUBLE_EQ(static_cast<double>(stats.blocks_read), est_ms);
}

TEST_F(IntegrationTest, ResultSizeRespectsTopKStyleBounds) {
  // Problem 3: Al wants at most three restaurants — here, at most 40
  // movies, with a cost budget.
  Personalizer personalizer(db_, graph_);
  PersonalizeRequest request;
  request.sql = "SELECT title FROM MOVIE";
  request.problem = cqp::ProblemSpec::Problem3(2000.0, 1.0, 40.0);
  request.algorithm = "C-Boundaries";
  request.space_options.max_k = 10;
  auto result = *personalizer.Personalize(request);
  if (!result.solution.feasible) GTEST_SKIP() << "instance infeasible";
  EXPECT_LE(result.solution.params.size, 40.0);
  EXPECT_GE(result.solution.params.size, 1.0);
  EXPECT_LE(result.solution.params.cost_ms, 2000.0);
}

TEST_F(IntegrationTest, MinCostProblemPicksCheapSatisfyingQuery) {
  Personalizer personalizer(db_, graph_);
  PersonalizeRequest request;
  request.sql = "SELECT title FROM MOVIE";
  request.problem = cqp::ProblemSpec::Problem4(0.9);
  request.algorithm = "MinCost-BB";
  request.space_options.max_k = 12;
  auto result = *personalizer.Personalize(request);
  ASSERT_TRUE(result.solution.feasible);
  EXPECT_GE(result.solution.params.doi, 0.9);

  // Greedy must be no cheaper than the exact optimum.
  request.algorithm = "MinCost-Greedy";
  auto greedy = *personalizer.Personalize(request);
  ASSERT_TRUE(greedy.solution.feasible);
  EXPECT_GE(greedy.solution.params.cost_ms,
            result.solution.params.cost_ms - 1e-6);
}

TEST_F(IntegrationTest, RankedResultsAreDoiSorted) {
  Personalizer personalizer(db_, graph_);
  PersonalizeRequest request;
  request.sql = "SELECT title FROM MOVIE";
  request.problem = cqp::ProblemSpec::Problem2(600.0);
  request.algorithm = "D-HeurDoi";
  request.space_options.max_k = 8;
  auto result = *personalizer.Personalize(request);
  ASSERT_TRUE(result.solution.feasible);
  exec::ExecStats stats;
  auto rows = *personalizer.Execute(result, &stats);
  for (size_t i = 1; i < rows.rows.size(); ++i) {
    EXPECT_GE(rows.rows[i - 1].doi, rows.rows[i].doi);
  }
}

/// FNV-1a over the delivered rows: rendering, doi bits and satisfied set,
/// in delivery order.
uint64_t RowsDigest(const exec::PersonalizedResultSet& rows) {
  uint64_t h = 1469598103934665603ull;
  auto mix = [&h](uint64_t byte) {
    h ^= byte;
    h *= 1099511628211ull;
  };
  for (const exec::PersonalizedRow& row : rows.rows) {
    for (char c : row.row.ToString()) mix(static_cast<unsigned char>(c));
    uint64_t bits = std::bit_cast<uint64_t>(row.doi);
    for (int b = 0; b < 64; b += 8) mix((bits >> b) & 0xff);
    for (int32_t member : row.satisfied) mix(static_cast<uint64_t>(member));
    mix(0xff);
  }
  return h;
}

// Execution accounting pinned on the query_rows benchmark's shape at a
// small scale (movie DB with mined constraints, profiles given high-doi
// tautological and out-of-domain preferences, D-HeurDoi, Problem2(120),
// K = 20): the delivered rows, their order, doi bits and satisfied sets,
// and the simulated clock's blocks and tuples per pair. A change to the
// executor that alters any answer or any charge fails here.
TEST(ExecPinTest, QueryRowsAnswersAndChargesArePinned) {
  workload::MovieDbConfig db_config;
  db_config.n_movies = 5000;
  db_config.n_directors = 500;
  db_config.n_actors = 1000;
  storage::Database db = *workload::BuildMovieDatabase(db_config);
  db.SetConstraints(*storage::DeriveConstraints(db));
  workload::QueryGenConfig query_config;
  query_config.n_queries = 4;
  auto queries = *workload::GenerateQueries(query_config, db_config);

  struct Pinned {
    size_t rows;
    uint64_t blocks_read;
    uint64_t tuples_processed;
    uint64_t digest;
  };
  const Pinned kGolden[] = {
      {2397, 30, 12191, 0xa0941a0131cd7ef3ull},
      {2397, 60, 26182, 0x7e10aaaab6813d8cull},
      {88, 53, 15043, 0x12f3de914a58e5cbull},
      {2397, 32, 15088, 0x9622333ff7918fc8ull},
      {766, 30, 7298, 0xb9d632f4eee642a1ull},
      {2997, 30, 13991, 0xfe85cec51a6f5ac4ull},
      {189, 53, 15447, 0x9d4d1ccb4fa2fcaeull},
      {766, 32, 8564, 0xacfa644338b4c3eaull},
      {5000, 30, 20000, 0xa69d5216bd8a0e67ull},
      {2997, 30, 13991, 0xfe85cec51a6f5ac4ull},
      {189, 53, 15447, 0x9d4d1ccb4fa2fcaeull},
      {5000, 32, 25500, 0x9465592ebc2b8851ull},
  };
  size_t pair = 0;
  for (uint64_t seed : {1000, 1001, 1002}) {
    workload::ProfileGenConfig profile_config;
    profile_config.seed = seed;
    std::string text =
        workload::GenerateProfile(profile_config, db_config)->ToText();
    double doi = 0.95;
    for (const char* attribute : {"year", "duration"}) {
      const catalog::DomainConstraint& d =
          *db.constraints().DomainsFor("MOVIE", attribute).at(0);
      const long long lo = d.min->AsInt(), hi = d.max->AsInt();
      text += StrFormat("\ndoi(MOVIE.%s >= %lld) = %.2f", attribute, lo - 5,
                        doi -= 0.01);
      text += StrFormat("\ndoi(MOVIE.%s <= %lld) = %.2f", attribute, hi + 5,
                        doi -= 0.01);
      text += StrFormat("\ndoi(MOVIE.%s >= %lld) = %.2f", attribute, hi + 37,
                        doi -= 0.01);
    }
    auto graph = *prefs::PersonalizationGraph::Build(
        *prefs::Profile::Parse(text + "\n"), db);
    Personalizer personalizer(&db, &graph);
    for (const sql::SelectQuery& query : queries) {
      PersonalizeRequest request;
      request.sql = query.ToSql();
      request.problem = cqp::ProblemSpec::Problem2(120.0);
      request.algorithm = "D-HeurDoi";
      request.space_options.max_k = 20;
      auto result = personalizer.Personalize(request);
      ASSERT_TRUE(result.ok()) << result.status().ToString();
      exec::ExecStats stats;
      auto rows = personalizer.Execute(*result, &stats);
      ASSERT_TRUE(rows.ok()) << rows.status().ToString();
      ASSERT_LT(pair, std::size(kGolden));
      const Pinned& want = kGolden[pair++];
      EXPECT_EQ(rows->rows.size(), want.rows) << request.sql;
      EXPECT_EQ(stats.blocks_read, want.blocks_read) << request.sql;
      EXPECT_EQ(stats.tuples_processed, want.tuples_processed) << request.sql;
      EXPECT_EQ(RowsDigest(*rows), want.digest) << request.sql;
    }
  }
  EXPECT_EQ(pair, std::size(kGolden));
}

TEST(TouristIntegrationTest, AlInPisaScenario) {
  // The paper's §1 example: a palmtop query with tight cost and size
  // bounds (smax = 3 restaurants) vs. a laptop query with loose bounds.
  auto db = *workload::BuildTouristDatabase(workload::TouristDbConfig{});
  auto graph = *prefs::PersonalizationGraph::Build(
      *workload::BuildAlProfile(), db);
  Personalizer personalizer(&db, &graph);

  PersonalizeRequest palmtop;
  palmtop.sql = "SELECT name FROM RESTAURANT";
  palmtop.problem = cqp::ProblemSpec::Problem3(/*cmax=*/320.0, /*smin=*/1.0,
                                               /*smax=*/12.0);
  palmtop.algorithm = "C-Boundaries";
  auto constrained = personalizer.Personalize(palmtop);
  ASSERT_TRUE(constrained.ok()) << constrained.status().ToString();

  PersonalizeRequest laptop = palmtop;
  laptop.problem = cqp::ProblemSpec::Problem2(1e6);
  auto loose = *personalizer.Personalize(laptop);
  ASSERT_TRUE(loose.solution.feasible);

  // With the shipped tourist data the palmtop instance is feasible; guard
  // with an assert so a workload change cannot silently weaken the test.
  ASSERT_TRUE(constrained->solution.feasible);
  // The palmtop answer must be small and cheap; the laptop one maximizes
  // doi without regard to size.
  EXPECT_LE(constrained->solution.params.size, 12.0);
  EXPECT_LE(constrained->solution.params.cost_ms, 320.0);
  EXPECT_GE(loose.solution.params.doi, constrained->solution.params.doi);
}

}  // namespace
}  // namespace cqp
