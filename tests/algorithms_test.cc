#include <gtest/gtest.h>

#include <bit>
#include <tuple>

#include "common/rng.h"
#include "cqp/algorithms.h"
#include "test_util.h"
#include "workload/experiment.h"

namespace cqp::cqp {
namespace {

using ::cqp::testing::MakeRandomSpace;

/// Recomputes a solution's parameters from its chosen set and checks
/// consistency plus feasibility under `problem`.
void CheckSolutionConsistent(const space::PreferenceSpaceResult& space,
                             const ProblemSpec& problem, const Solution& sol,
                             const std::string& context) {
  if (!sol.feasible) return;
  estimation::StateEvaluator eval = space.MakeEvaluator();
  estimation::StateParams recomputed = eval.Evaluate(sol.chosen);
  EXPECT_NEAR(recomputed.doi, sol.params.doi, 1e-9) << context;
  EXPECT_NEAR(recomputed.cost_ms, sol.params.cost_ms, 1e-6) << context;
  EXPECT_NEAR(recomputed.size, sol.params.size, 1e-6) << context;
  EXPECT_TRUE(problem.IsFeasible(recomputed))
      << context << " chose infeasible " << sol.chosen.ToString();
}

Solution MustSolve(const std::string& name,
                   const space::PreferenceSpaceResult& space,
                   const ProblemSpec& problem) {
  const Algorithm* algorithm = *GetAlgorithm(name);
  SearchContext ctx;
  auto sol = algorithm->Solve(space, problem, ctx);
  CQP_CHECK(sol.ok()) << name << ": " << sol.status().ToString();
  CheckSolutionConsistent(space, problem, *sol, name);
  return *sol;
}

// ---------- registry ----------

TEST(RegistryTest, AllPaperAlgorithmsRegistered) {
  auto names = AlgorithmNames();
  for (const char* expected :
       {"D-MaxDoi", "D-SingleMaxDoi", "C-Boundaries", "C-MaxBounds",
        "D-HeurDoi", "Exhaustive", "MinCost-BB", "MinCost-Greedy"}) {
    bool found = false;
    for (const auto& n : names) found = found || n == expected;
    EXPECT_TRUE(found) << expected;
  }
  EXPECT_TRUE(GetAlgorithm("c-boundaries").ok());  // case-insensitive
  EXPECT_FALSE(GetAlgorithm("nope").ok());
}

TEST(RegistryTest, SupportMatrix) {
  ProblemSpec p2 = ProblemSpec::Problem2(400);
  ProblemSpec p4 = ProblemSpec::Problem4(0.5);
  for (const char* name :
       {"D-MaxDoi", "D-SingleMaxDoi", "C-Boundaries", "C-MaxBounds",
        "D-HeurDoi"}) {
    EXPECT_TRUE((*GetAlgorithm(name))->Supports(p2)) << name;
    EXPECT_FALSE((*GetAlgorithm(name))->Supports(p4)) << name;
  }
  EXPECT_TRUE((*GetAlgorithm("Exhaustive"))->Supports(p2));
  EXPECT_TRUE((*GetAlgorithm("Exhaustive"))->Supports(p4));
  EXPECT_TRUE((*GetAlgorithm("MinCost-BB"))->Supports(p4));
  EXPECT_FALSE((*GetAlgorithm("MinCost-BB"))->Supports(p2));
}

TEST(RegistryTest, ExactnessClaims) {
  ProblemSpec p2 = ProblemSpec::Problem2(400);
  EXPECT_TRUE((*GetAlgorithm("C-Boundaries"))->IsExactFor(p2));
  EXPECT_TRUE((*GetAlgorithm("D-MaxDoi"))->IsExactFor(p2));
  EXPECT_FALSE((*GetAlgorithm("C-MaxBounds"))->IsExactFor(p2));
  EXPECT_FALSE((*GetAlgorithm("D-HeurDoi"))->IsExactFor(p2));
  EXPECT_FALSE((*GetAlgorithm("D-SingleMaxDoi"))->IsExactFor(p2));
}

// ---------- Problem 2 differential sweep ----------

class Problem2Sweep
    : public ::testing::TestWithParam<std::tuple<int, int, double>> {};

TEST_P(Problem2Sweep, ExactAlgorithmsMatchExhaustive) {
  auto [seed, k, fraction] = GetParam();
  Rng rng(static_cast<uint64_t>(seed));
  auto space = MakeRandomSpace(rng, static_cast<size_t>(k));
  double supreme = space.MakeEvaluator().SupremeState().cost_ms;
  ProblemSpec problem = ProblemSpec::Problem2(fraction * supreme);

  Solution optimal = MustSolve("Exhaustive", space, problem);
  ASSERT_TRUE(optimal.feasible);  // fraction >= base-cost always here

  for (const char* name : {"C-Boundaries", "D-MaxDoi", "D-MaxDoi+Prune"}) {
    Solution got = MustSolve(name, space, problem);
    ASSERT_TRUE(got.feasible) << name;
    EXPECT_NEAR(got.params.doi, optimal.params.doi, 1e-9)
        << name << " missed the optimum at seed=" << seed << " k=" << k
        << " fraction=" << fraction;
  }
}

TEST_P(Problem2Sweep, HeuristicsAreFeasibleAndBounded) {
  auto [seed, k, fraction] = GetParam();
  Rng rng(static_cast<uint64_t>(seed) + 1000);
  auto space = MakeRandomSpace(rng, static_cast<size_t>(k));
  double supreme = space.MakeEvaluator().SupremeState().cost_ms;
  ProblemSpec problem = ProblemSpec::Problem2(fraction * supreme);

  Solution optimal = MustSolve("Exhaustive", space, problem);
  for (const char* name :
       {"C-MaxBounds", "D-SingleMaxDoi", "D-HeurDoi"}) {
    Solution got = MustSolve(name, space, problem);
    // Heuristics never fabricate feasibility and never miss it entirely
    // (they all consider the empty state).
    EXPECT_EQ(got.feasible, optimal.feasible) << name;
    if (!optimal.feasible) continue;
    EXPECT_LE(got.params.doi, optimal.params.doi + 1e-9) << name;
    // The paper's Fig. 14 shows tiny quality gaps; assert a loose but
    // meaningful bound (heuristics find at least half the optimal doi).
    EXPECT_GE(got.params.doi, 0.5 * optimal.params.doi) << name;
  }
}

INSTANTIATE_TEST_SUITE_P(
    RandomInstances, Problem2Sweep,
    ::testing::Combine(::testing::Values(1, 2, 3, 4, 5, 6, 7, 8),
                       ::testing::Values(4, 6, 9, 12),
                       ::testing::Values(0.15, 0.3, 0.5, 0.8)));

// ---------- C-Boundaries traversal pin ----------

/// The Fig. 12 setting (5000 movies, K = 20, Problem2(400)) on two
/// profiles x two queries. Phase 1's cost work may change; which states it
/// visits and what it answers may not. Every value below is a golden
/// capture of the default (batch-evaluation) path; doubles are compared as
/// bit patterns.
TEST(CBoundariesPinTest, Fig12TraversalAndAnswersArePinned) {
  struct Golden {
    uint64_t states_examined;
    uint64_t transitions;
    uint64_t boundaries_found;
    const char* chosen;
    uint64_t doi_bits;
    uint64_t cost_bits;
    uint64_t size_bits;
  };
  const Golden golden[] = {
      {110985, 463413, 20308, "{0,1,2,3,4,6,7,8,9,10,13}",
       0x3feffffffe97d7b7ULL, 0x4077e00000000000ULL, 0x3e3051d72e72417bULL},
      {110985, 463413, 20308, "{0,1,2,3,4,6,7,8,9,10,13}",
       0x3feffffffe97d7b7ULL, 0x4077e00000000000ULL, 0x3e2325ffe493b6a3ULL},
      {147253, 584491, 36834, "{0,1,2,3,4,5,6,7,10,11,15,17}",
       0x3fefffffec1a6809ULL, 0x4078b00000000000ULL, 0x3c62a4b2d4ca06d3ULL},
      {109819, 456328, 20877, "{0,1,2,3,4,5,8,9,13,15,16,17}",
       0x3fefffff39e0a034ULL, 0x4078d00000000000ULL, 0x3c1711a703ae74c2ULL},
  };
  workload::ExperimentConfig config;
  config.db.n_movies = 5000;
  config.db.n_directors = 500;
  config.db.n_actors = 1000;
  config.n_profiles = 2;
  config.query.n_queries = 2;
  auto experiment = workload::ExperimentContext::Create(config);
  ASSERT_TRUE(experiment.ok()) << experiment.status().ToString();
  auto instances = workload::BuildInstances(*experiment, 20);
  ASSERT_TRUE(instances.ok()) << instances.status().ToString();
  ASSERT_EQ(instances->size(), std::size(golden));
  const Algorithm* algorithm = *GetAlgorithm("C-Boundaries");
  for (size_t i = 0; i < instances->size(); ++i) {
    const Golden& want = golden[i];
    SearchContext ctx;
    auto sol = algorithm->Solve((*instances)[i].space,
                                ProblemSpec::Problem2(400), ctx);
    ASSERT_TRUE(sol.ok()) << sol.status().ToString();
    ASSERT_TRUE(sol->feasible);
    EXPECT_EQ(ctx.metrics.states_examined, want.states_examined) << i;
    EXPECT_EQ(ctx.metrics.transitions, want.transitions) << i;
    EXPECT_EQ(ctx.metrics.boundaries_found, want.boundaries_found) << i;
    EXPECT_EQ(sol->chosen.ToString(), want.chosen) << i;
    EXPECT_EQ(std::bit_cast<uint64_t>(sol->params.doi), want.doi_bits) << i;
    EXPECT_EQ(std::bit_cast<uint64_t>(sol->params.cost_ms), want.cost_bits)
        << i;
    EXPECT_EQ(std::bit_cast<uint64_t>(sol->params.size), want.size_bits)
        << i;
  }
}

// ---------- Problems 1 and 3 (size bounds) ----------

class SizeBoundSweep : public ::testing::TestWithParam<std::tuple<int, int>> {
};

TEST_P(SizeBoundSweep, Problem1CBoundariesMatchesExhaustive) {
  auto [seed, k] = GetParam();
  Rng rng(static_cast<uint64_t>(seed) + 2000);
  auto space = MakeRandomSpace(rng, static_cast<size_t>(k));
  // Size window below the base size so that some preferences are required.
  double smax = space.base.size * rng.UniformDouble(0.05, 0.6);
  double smin = smax * rng.UniformDouble(0.005, 0.3);
  ProblemSpec problem = ProblemSpec::Problem1(smin, smax);

  Solution optimal = MustSolve("Exhaustive", space, problem);
  Solution got = MustSolve("C-Boundaries", space, problem);
  EXPECT_EQ(got.feasible, optimal.feasible);
  if (optimal.feasible) {
    EXPECT_NEAR(got.params.doi, optimal.params.doi, 1e-9)
        << "seed=" << seed << " k=" << k;
  }
}

TEST_P(SizeBoundSweep, Problem3CBoundariesMatchesExhaustive) {
  auto [seed, k] = GetParam();
  Rng rng(static_cast<uint64_t>(seed) + 3000);
  auto space = MakeRandomSpace(rng, static_cast<size_t>(k));
  double supreme = space.MakeEvaluator().SupremeState().cost_ms;
  double cmax = supreme * rng.UniformDouble(0.2, 0.7);
  double smax = space.base.size * rng.UniformDouble(0.1, 0.9);
  double smin = smax * rng.UniformDouble(0.001, 0.2);
  ProblemSpec problem = ProblemSpec::Problem3(cmax, smin, smax);

  Solution optimal = MustSolve("Exhaustive", space, problem);
  Solution got = MustSolve("C-Boundaries", space, problem);
  EXPECT_EQ(got.feasible, optimal.feasible);
  if (optimal.feasible) {
    EXPECT_NEAR(got.params.doi, optimal.params.doi, 1e-9)
        << "seed=" << seed << " k=" << k;
  }
}

TEST_P(SizeBoundSweep, Problem3HeuristicsStayFeasible) {
  auto [seed, k] = GetParam();
  Rng rng(static_cast<uint64_t>(seed) + 4000);
  auto space = MakeRandomSpace(rng, static_cast<size_t>(k));
  double supreme = space.MakeEvaluator().SupremeState().cost_ms;
  ProblemSpec problem =
      ProblemSpec::Problem3(0.5 * supreme, 0.0, space.base.size);

  Solution optimal = MustSolve("Exhaustive", space, problem);
  for (const char* name :
       {"C-MaxBounds", "D-MaxDoi", "D-SingleMaxDoi", "D-HeurDoi"}) {
    Solution got = MustSolve(name, space, problem);
    if (got.feasible && optimal.feasible) {
      EXPECT_LE(got.params.doi, optimal.params.doi + 1e-9) << name;
    }
    EXPECT_FALSE(got.feasible && !optimal.feasible) << name;
  }
}

INSTANTIATE_TEST_SUITE_P(RandomInstances, SizeBoundSweep,
                         ::testing::Combine(::testing::Values(1, 2, 3, 4, 5,
                                                              6, 7, 8, 9, 10),
                                            ::testing::Values(5, 8, 11)));

// ---------- Problems 4-6 (cost minimization) ----------

class MinCostSweep : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(MinCostSweep, Problem4BbMatchesExhaustive) {
  auto [seed, k] = GetParam();
  Rng rng(static_cast<uint64_t>(seed) + 5000);
  auto space = MakeRandomSpace(rng, static_cast<size_t>(k));
  ProblemSpec problem = ProblemSpec::Problem4(rng.UniformDouble(0.3, 0.99));

  Solution optimal = MustSolve("Exhaustive", space, problem);
  Solution got = MustSolve("MinCost-BB", space, problem);
  EXPECT_EQ(got.feasible, optimal.feasible);
  if (optimal.feasible) {
    EXPECT_NEAR(got.params.cost_ms, optimal.params.cost_ms, 1e-6);
  }
}

TEST_P(MinCostSweep, Problem5BbMatchesExhaustive) {
  auto [seed, k] = GetParam();
  Rng rng(static_cast<uint64_t>(seed) + 6000);
  auto space = MakeRandomSpace(rng, static_cast<size_t>(k));
  double smax = space.base.size * rng.UniformDouble(0.2, 1.0);
  ProblemSpec problem =
      ProblemSpec::Problem5(rng.UniformDouble(0.2, 0.9), 0.0, smax);

  Solution optimal = MustSolve("Exhaustive", space, problem);
  Solution got = MustSolve("MinCost-BB", space, problem);
  EXPECT_EQ(got.feasible, optimal.feasible);
  if (optimal.feasible) {
    EXPECT_NEAR(got.params.cost_ms, optimal.params.cost_ms, 1e-6);
  }
}

TEST_P(MinCostSweep, Problem6BbMatchesExhaustive) {
  auto [seed, k] = GetParam();
  Rng rng(static_cast<uint64_t>(seed) + 7000);
  auto space = MakeRandomSpace(rng, static_cast<size_t>(k));
  double smax = space.base.size * rng.UniformDouble(0.05, 0.7);
  double smin = smax * rng.UniformDouble(0.001, 0.3);
  ProblemSpec problem = ProblemSpec::Problem6(smin, smax);

  Solution optimal = MustSolve("Exhaustive", space, problem);
  Solution got = MustSolve("MinCost-BB", space, problem);
  EXPECT_EQ(got.feasible, optimal.feasible);
  if (optimal.feasible) {
    EXPECT_NEAR(got.params.cost_ms, optimal.params.cost_ms, 1e-6);
  }
}

TEST_P(MinCostSweep, GreedyIsFeasibleAndNoBetterThanOptimal) {
  auto [seed, k] = GetParam();
  Rng rng(static_cast<uint64_t>(seed) + 8000);
  auto space = MakeRandomSpace(rng, static_cast<size_t>(k));
  ProblemSpec problem = ProblemSpec::Problem4(rng.UniformDouble(0.3, 0.95));

  Solution optimal = MustSolve("Exhaustive", space, problem);
  Solution got = MustSolve("MinCost-Greedy", space, problem);
  EXPECT_EQ(got.feasible, optimal.feasible);
  if (optimal.feasible && got.feasible) {
    EXPECT_GE(got.params.cost_ms, optimal.params.cost_ms - 1e-6);
  }
}

INSTANTIATE_TEST_SUITE_P(RandomInstances, MinCostSweep,
                         ::testing::Combine(::testing::Values(1, 2, 3, 4, 5,
                                                              6, 7, 8),
                                            ::testing::Values(5, 8, 11)));

// ---------- edge cases ----------

TEST(AlgorithmEdgeTest, EmptyPreferenceSpace) {
  Rng rng(1);
  auto space = MakeRandomSpace(rng, 0);
  ProblemSpec problem = ProblemSpec::Problem2(1000);
  for (const char* name :
       {"Exhaustive", "C-Boundaries", "C-MaxBounds", "D-MaxDoi",
        "D-SingleMaxDoi", "D-HeurDoi"}) {
    Solution sol = MustSolve(name, space, problem);
    EXPECT_TRUE(sol.feasible) << name;
    EXPECT_TRUE(sol.chosen.empty()) << name;
    EXPECT_DOUBLE_EQ(sol.params.doi, 0.0) << name;
  }
}

TEST(AlgorithmEdgeTest, CmaxBelowBaseCostIsInfeasible) {
  Rng rng(2);
  auto space = MakeRandomSpace(rng, 6, /*base_cost_ms=*/100);
  ProblemSpec problem = ProblemSpec::Problem2(50);  // below cost(Q)
  for (const char* name :
       {"Exhaustive", "C-Boundaries", "C-MaxBounds", "D-MaxDoi",
        "D-SingleMaxDoi", "D-HeurDoi"}) {
    Solution sol = MustSolve(name, space, problem);
    EXPECT_FALSE(sol.feasible) << name;
  }
}

TEST(AlgorithmEdgeTest, UnboundedCmaxSelectsEverything) {
  Rng rng(3);
  auto space = MakeRandomSpace(rng, 7);
  ProblemSpec problem = ProblemSpec::Problem2(1e15);
  for (const char* name :
       {"Exhaustive", "C-Boundaries", "C-MaxBounds", "D-MaxDoi",
        "D-SingleMaxDoi", "D-HeurDoi"}) {
    Solution sol = MustSolve(name, space, problem);
    ASSERT_TRUE(sol.feasible) << name;
    EXPECT_EQ(sol.chosen.size(), 7u)
        << name << " should take all preferences when nothing binds";
  }
}

TEST(AlgorithmEdgeTest, TightCmaxAdmitsOnlyCheapestSingleton) {
  Rng rng(4);
  auto space = MakeRandomSpace(rng, 6);
  // Find the cheapest preference and allow exactly it.
  double min_cost = 1e18;
  for (const auto& p : space.prefs) min_cost = std::min(min_cost, p.cost_ms);
  ProblemSpec problem = ProblemSpec::Problem2(min_cost);
  Solution optimal = MustSolve("Exhaustive", space, problem);
  ASSERT_TRUE(optimal.feasible);
  EXPECT_LE(optimal.chosen.size(), 1u);
  for (const char* name : {"C-Boundaries", "D-MaxDoi", "D-MaxDoi+Prune"}) {
    Solution got = MustSolve(name, space, problem);
    EXPECT_NEAR(got.params.doi, optimal.params.doi, 1e-12) << name;
  }
}

TEST(AlgorithmEdgeTest, ExhaustiveRefusesHugeK) {
  Rng rng(5);
  auto space = MakeRandomSpace(rng, 26);
  ProblemSpec problem = ProblemSpec::Problem2(1000);
  const Algorithm* exhaustive = *GetAlgorithm("Exhaustive");
  SearchContext ctx;
  EXPECT_FALSE(exhaustive->Solve(space, problem, ctx).ok());
}

TEST(AlgorithmEdgeTest, MetricsArePopulated) {
  Rng rng(6);
  auto space = MakeRandomSpace(rng, 10);
  double supreme = space.MakeEvaluator().SupremeState().cost_ms;
  ProblemSpec problem = ProblemSpec::Problem2(0.5 * supreme);
  for (const char* name : {"C-Boundaries", "C-MaxBounds", "D-MaxDoi",
                           "D-SingleMaxDoi", "D-HeurDoi"}) {
    SearchContext ctx;
    auto sol = (*GetAlgorithm(name))->Solve(space, problem, ctx);
    ASSERT_TRUE(sol.ok()) << name;
    EXPECT_GT(ctx.metrics.states_examined, 0u) << name;
    EXPECT_GE(ctx.metrics.wall_ms, 0.0) << name;
    EXPECT_FALSE(ctx.metrics.truncated) << name;
  }
}

TEST(AlgorithmEdgeTest, InvalidProblemRejected) {
  Rng rng(7);
  auto space = MakeRandomSpace(rng, 5);
  ProblemSpec bad;  // unconstrained
  for (const auto& name : AlgorithmNames()) {
    const Algorithm* algorithm = *GetAlgorithm(name);
    SearchContext ctx;
    EXPECT_FALSE(algorithm->Solve(space, bad, ctx).ok()) << name;
  }
}

TEST(AlgorithmEdgeTest, AllPreferencesStrawman) {
  Rng rng(8);
  auto space = MakeRandomSpace(rng, 6);
  double supreme = space.MakeEvaluator().SupremeState().cost_ms;

  // Loose bound: the strawman is feasible and takes everything.
  Solution loose =
      MustSolve("All-Preferences", space, ProblemSpec::Problem2(supreme));
  ASSERT_TRUE(loose.feasible);
  EXPECT_EQ(loose.chosen.size(), 6u);
  EXPECT_NEAR(loose.params.cost_ms, supreme, 1e-9);

  // Tight bound: it still picks everything but reports infeasibility.
  const Algorithm* strawman = *GetAlgorithm("All-Preferences");
  SearchContext ctx;
  Solution tight =
      *strawman->Solve(space, ProblemSpec::Problem2(0.5 * supreme), ctx);
  EXPECT_FALSE(tight.feasible);
  EXPECT_EQ(tight.chosen.size(), 6u);
}

TEST(AlgorithmEdgeTest, EqualDoisHandled) {
  // Degenerate ties: every preference identical.
  space::PreferenceSpaceResult space;
  space.base.cost_ms = 100;
  space.base.size = 500;
  for (int i = 0; i < 6; ++i) {
    estimation::ScoredPreference p;
    p.doi = 0.4;
    p.cost_ms = 150;
    p.selectivity = 0.5;
    p.size = 250;
    space.prefs.push_back(p);
    space.D.push_back(i);
    space.C.push_back(i);
    space.S.push_back(i);
  }
  ProblemSpec problem = ProblemSpec::Problem2(450);  // exactly 3 prefs fit
  Solution optimal = MustSolve("Exhaustive", space, problem);
  ASSERT_TRUE(optimal.feasible);
  EXPECT_EQ(optimal.chosen.size(), 3u);
  for (const char* name : {"C-Boundaries", "D-MaxDoi", "D-MaxDoi+Prune", "C-MaxBounds",
                           "D-SingleMaxDoi", "D-HeurDoi"}) {
    Solution got = MustSolve(name, space, problem);
    EXPECT_NEAR(got.params.doi, optimal.params.doi, 1e-12) << name;
  }
}

// ---------- infeasible paths (satellite c) ----------

/// Algorithms covering both objectives; each must report infeasibility as
/// Solution::feasible == false, never as a Status error.
const char* kEveryAlgorithm[] = {"Exhaustive",     "C-Boundaries",
                                 "C-MaxBounds",    "D-MaxDoi",
                                 "D-MaxDoi+Prune", "D-SingleMaxDoi",
                                 "D-HeurDoi",      "MinCost-BB",
                                 "MinCost-Greedy", "All-Preferences"};

/// A problem the given algorithm supports: the doi family gets Problem 2,
/// the cost-minimization family gets Problem 6.
ProblemSpec SupportedProblem(const Algorithm& algorithm, double cmax,
                             double smin, double smax) {
  ProblemSpec doi_problem = ProblemSpec::Problem2(cmax);
  if (algorithm.Supports(doi_problem)) return doi_problem;
  return ProblemSpec::Problem6(smin, smax);
}

TEST(InfeasiblePathTest, EmptySpaceIsAnAnswerNotAnError) {
  Rng rng(41);
  auto space = MakeRandomSpace(rng, 0);
  for (const char* name : kEveryAlgorithm) {
    const Algorithm* algorithm = *GetAlgorithm(name);
    // A size window strictly above the base size: even the empty subset
    // misses it, so the instance is unsatisfiable.
    ProblemSpec problem = SupportedProblem(
        *algorithm, /*cmax=*/1.0, /*smin=*/space.base.size * 2,
        /*smax=*/space.base.size * 3);
    if (problem.objective == Objective::kMaximizeDoi) {
      problem.cmax_ms = space.base.cost_ms * 0.5;  // below cost(Q)
    }
    SearchContext ctx;
    auto sol = algorithm->Solve(space, problem, ctx);
    ASSERT_TRUE(sol.ok()) << name << ": " << sol.status().ToString();
    EXPECT_FALSE(sol->feasible) << name;
    EXPECT_FALSE(sol->degraded) << name << " (clean completion)";
  }
}

TEST(InfeasiblePathTest, UnsatisfiableConstraintsReturnInfeasible) {
  Rng rng(42);
  auto space = MakeRandomSpace(rng, 8);
  for (const char* name : kEveryAlgorithm) {
    const Algorithm* algorithm = *GetAlgorithm(name);
    // cmax below the base cost / a size window no subset reaches: no
    // subset of P (including the empty one) satisfies the constraints.
    ProblemSpec problem = SupportedProblem(
        *algorithm, /*cmax=*/space.base.cost_ms * 0.5,
        /*smin=*/space.base.size * 100, /*smax=*/space.base.size * 200);
    SearchContext ctx;
    auto sol = algorithm->Solve(space, problem, ctx);
    ASSERT_TRUE(sol.ok()) << name << ": " << sol.status().ToString();
    EXPECT_FALSE(sol->feasible) << name;
  }
}

// ---------- budget behavior across algorithms ----------

TEST(BudgetTest, ExpiredDeadlineStillReturnsOkPossiblyDegraded) {
  Rng rng(43);
  auto space = MakeRandomSpace(rng, 14);
  double supreme = space.MakeEvaluator().SupremeState().cost_ms;
  ProblemSpec doi_problem = ProblemSpec::Problem2(0.6 * supreme);
  ProblemSpec cost_problem = ProblemSpec::Problem4(0.5);
  for (const char* name : kEveryAlgorithm) {
    const Algorithm* algorithm = *GetAlgorithm(name);
    const ProblemSpec& problem =
        algorithm->Supports(doi_problem) ? doi_problem : cost_problem;
    SearchContext ctx(SearchBudget::AfterMillis(0.0));
    auto sol = algorithm->Solve(space, problem, ctx);
    ASSERT_TRUE(sol.ok()) << name << ": " << sol.status().ToString();
    if (ctx.exhausted()) {
      EXPECT_EQ(ctx.exhaustion(), BudgetExhaustion::kDeadline) << name;
      EXPECT_TRUE(sol->degraded) << name;
      EXPECT_TRUE(ctx.metrics.truncated) << name;
    }
  }
}

TEST(BudgetTest, SingleExpansionBudgetDegradesSearchAlgorithms) {
  Rng rng(44);
  auto space = MakeRandomSpace(rng, 12);
  double supreme = space.MakeEvaluator().SupremeState().cost_ms;
  ProblemSpec problem = ProblemSpec::Problem2(0.5 * supreme);
  for (const char* name :
       {"Exhaustive", "C-Boundaries", "C-MaxBounds", "D-MaxDoi",
        "D-SingleMaxDoi", "D-HeurDoi"}) {
    SearchBudget budget;
    budget.max_expansions = 1;
    SearchContext ctx(budget);
    auto sol = (*GetAlgorithm(name))->Solve(space, problem, ctx);
    ASSERT_TRUE(sol.ok()) << name;
    EXPECT_TRUE(ctx.exhausted()) << name;
    EXPECT_EQ(ctx.exhaustion(), BudgetExhaustion::kExpansions) << name;
    EXPECT_TRUE(sol->degraded) << name;
    CheckSolutionConsistent(space, problem, *sol, name);
  }
}

TEST(BudgetTest, CancelTokenAbortsBeforeAnyExpansion) {
  Rng rng(45);
  auto space = MakeRandomSpace(rng, 10);
  double supreme = space.MakeEvaluator().SupremeState().cost_ms;
  ProblemSpec problem = ProblemSpec::Problem2(0.5 * supreme);
  CancelToken cancel;
  cancel.Cancel();
  SearchBudget budget;
  budget.cancel = &cancel;
  SearchContext ctx(budget);
  auto sol = (*GetAlgorithm("C-Boundaries"))->Solve(space, problem, ctx);
  ASSERT_TRUE(sol.ok());
  EXPECT_TRUE(sol->degraded);
  EXPECT_EQ(ctx.exhaustion(), BudgetExhaustion::kCancelled);
}

}  // namespace
}  // namespace cqp::cqp
