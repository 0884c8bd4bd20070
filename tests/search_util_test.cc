#include <gtest/gtest.h>

#include <bit>

#include "common/rng.h"
#include "cqp/algorithms.h"
#include "cqp/search_util.h"
#include "cqp/transitions.h"
#include "test_util.h"

namespace cqp::cqp {
namespace {

using ::cqp::testing::MakeRandomSpace;

// ---------- VisitedSet ----------

TEST(VisitedSetTest, InsertThenHit) {
  SearchMetrics metrics;
  VisitedSet visited(metrics);
  EXPECT_FALSE(visited.CheckAndInsert(IndexSet{1, 2}));
  EXPECT_TRUE(visited.CheckAndInsert(IndexSet{1, 2}));
  EXPECT_FALSE(visited.CheckAndInsert(IndexSet{1, 3}));
  EXPECT_EQ(visited.size(), 2u);
}

TEST(VisitedSetTest, AccountsMemoryOnce) {
  SearchMetrics metrics;
  VisitedSet visited(metrics);
  IndexSet s{1, 2, 3};
  visited.CheckAndInsert(s);
  size_t after_first = metrics.memory.current_bytes();
  EXPECT_GT(after_first, 0u);
  visited.CheckAndInsert(s);  // duplicate: no extra accounting
  EXPECT_EQ(metrics.memory.current_bytes(), after_first);
}

// ---------- StateQueue ----------

TEST(StateQueueTest, FrontAndBackOrdering) {
  SearchMetrics metrics;
  StateQueue queue(metrics);
  queue.PushBack(IndexSet{0});
  queue.PushBack(IndexSet{1});
  queue.PushFront(IndexSet{2});
  EXPECT_EQ(queue.size(), 3u);
  EXPECT_EQ(queue.PopFront(), (IndexSet{2}));
  EXPECT_EQ(queue.PopFront(), (IndexSet{0}));
  EXPECT_EQ(queue.PopFront(), (IndexSet{1}));
  EXPECT_TRUE(queue.empty());
}

TEST(StateQueueTest, ReleasesMemoryOnPop) {
  SearchMetrics metrics;
  StateQueue queue(metrics);
  queue.PushBack(IndexSet{0, 1, 2});
  size_t held = metrics.memory.current_bytes();
  EXPECT_GT(held, 0u);
  queue.PopFront();
  EXPECT_EQ(metrics.memory.current_bytes(), 0u);
  EXPECT_EQ(metrics.memory.peak_bytes(), held);
}

// ---------- BoundaryStore ----------

TEST(BoundaryStoreTest, DominationIsPerGroup) {
  SearchMetrics metrics;
  BoundaryStore store(metrics);
  store.Add(IndexSet{0, 2});
  EXPECT_TRUE(store.DominatesAny(IndexSet{1, 3}));   // 0<=1, 2<=3
  EXPECT_FALSE(store.DominatesAny(IndexSet{0, 1}));  // 2 > 1
  EXPECT_FALSE(store.DominatesAny(IndexSet{1, 2, 3}));  // different group
  // A state never counts as dominated by itself.
  EXPECT_FALSE(store.DominatesAny(IndexSet{0, 2}));
}

TEST(BoundaryStoreTest, DescendingBySizeOrder) {
  SearchMetrics metrics;
  BoundaryStore store(metrics);
  store.Add(IndexSet{0});
  store.Add(IndexSet{0, 1, 2});
  store.Add(IndexSet{1, 2});
  auto ordered = store.DescendingBySize();
  ASSERT_EQ(ordered.size(), 3u);
  EXPECT_EQ(ordered[0].size(), 3u);
  EXPECT_EQ(ordered[1].size(), 2u);
  EXPECT_EQ(ordered[2].size(), 1u);
  EXPECT_EQ(metrics.boundaries_found, 3u);
}

// ---------- BitBoundaryStore ----------

TEST(BitBoundaryStoreTest, PrunesPerGroupAndOrdersBySize) {
  SearchMetrics metrics;
  BitBoundaryStore store(metrics);
  EXPECT_TRUE(store.empty());
  store.Add(IndexSet{0, 2}.Bits());
  EXPECT_TRUE(store.DominatesAny(IndexSet{1, 3}.Bits()));
  EXPECT_FALSE(store.DominatesAny(IndexSet{0, 1}.Bits()));
  EXPECT_FALSE(store.DominatesAny(IndexSet{1, 2, 3}.Bits()));
  EXPECT_FALSE(store.DominatesAny(IndexSet{0, 2}.Bits()));
  store.Add(IndexSet{0}.Bits());
  store.Add(IndexSet{0, 1, 2}.Bits());
  // {0,1} dominates {0,2}, which is dropped as redundant.
  store.Add(IndexSet{0, 1}.Bits());
  EXPECT_EQ(store.DescendingBySize(),
            (std::vector<IndexSet>{IndexSet{0, 1, 2}, IndexSet{0, 1},
                                   IndexSet{0}}));
  EXPECT_EQ(metrics.boundaries_found, 4u);
  EXPECT_EQ(metrics.memory.current_bytes(), 3 * sizeof(uint64_t));
}

TEST(BitBoundaryStoreTest, BoundaryAddedAfterCheckStillPrunes) {
  // The phase-1 pattern: a state passes its push-time domination check,
  // then a boundary dominating it is added before it is popped. The pop-
  // time check must see the new boundary.
  SearchMetrics metrics;
  BitBoundaryStore store(metrics);
  store.Add(IndexSet{0, 3}.Bits());  // does not dominate {1, 2}
  const uint64_t state = IndexSet{1, 2}.Bits();
  ASSERT_FALSE(store.DominatesAny(state));
  const uint32_t pushed_at = store.Generation(state);
  // Unchanged group: the known answer is reused.
  EXPECT_FALSE(store.DominatesAnySince(state, pushed_at));
  // A boundary in another group leaves the generation alone.
  store.Add(IndexSet{0, 1, 2}.Bits());
  EXPECT_EQ(store.Generation(state), pushed_at);
  EXPECT_FALSE(store.DominatesAnySince(state, pushed_at));
  // A dominating boundary in the same group moves it, and prunes.
  store.Add(IndexSet{0, 2}.Bits());
  EXPECT_NE(store.Generation(state), pushed_at);
  EXPECT_TRUE(store.DominatesAnySince(state, pushed_at));
  // A non-dominating Add to the same group also forces a real check,
  // which answers false.
  const uint64_t other = IndexSet{0, 1}.Bits();
  const uint32_t before = store.Generation(other);
  ASSERT_FALSE(store.DominatesAny(other));
  store.Add(IndexSet{1, 3}.Bits());
  EXPECT_FALSE(store.DominatesAnySince(other, before));
}

TEST(BitBoundaryStoreTest, VerticalNeighborCheckMatchesDominatesAny) {
  // Under its precondition (no boundary dominates or equals the parent)
  // the filtered check must agree with the full scan on every neighbor.
  Rng rng(29);
  size_t checked = 0;
  size_t dominated = 0;
  for (int trial = 0; trial < 200; ++trial) {
    const size_t k = 6 + static_cast<size_t>(rng.Uniform(0, 10));
    const int members = 1 + static_cast<int>(rng.Uniform(0, 4));
    auto random_state = [&] {
      uint64_t s = 0;
      while (std::popcount(s) < members) {
        s |= uint64_t{1} << rng.Uniform(0, static_cast<int64_t>(k) - 1);
      }
      return s;
    };
    SearchMetrics metrics;
    BitBoundaryStore store(metrics);
    for (int i = 0; i < 6; ++i) store.Add(random_state());
    for (int i = 0; i < 20; ++i) {
      const uint64_t parent = random_state();
      if (store.DominatesAny(parent)) continue;
      bool stored = false;
      for (const IndexSet& b : store.DescendingBySize()) {
        stored = stored || b.Bits() == parent;
      }
      if (stored) continue;
      ForEachVerticalNeighborBits(parent, k, [&](uint64_t v) {
        const int to = std::bit_width(v ^ parent) - 1;
        const bool full = store.DominatesAny(v);
        EXPECT_EQ(store.DominatesVerticalNeighbor(v, to), full)
            << "parent " << IndexSet::FromBits(parent).ToString() << " v "
            << IndexSet::FromBits(v).ToString();
        ++checked;
        dominated += full;
      });
    }
  }
  EXPECT_GT(checked, 1000u);
  EXPECT_GT(dominated, 50u);  // the filter must also say yes, not only no
}

// ---------- GreedyFill ----------

class GreedyFillTest : public ::testing::Test {
 protected:
  GreedyFillTest()
      : rng_(13),
        space_(MakeRandomSpace(rng_, 8)),
        evaluator_(space_.MakeEvaluator()),
        problem_(ProblemSpec::Problem2(0.0)) {}

  void SetBound(double cmax) { problem_.cmax_ms = cmax; }

  SpaceView View() {
    return SpaceView::ForKind(&evaluator_, &problem_, SpaceKind::kCost,
                              space_);
  }

  Rng rng_;
  space::PreferenceSpaceResult space_;
  estimation::StateEvaluator evaluator_;
  ProblemSpec problem_;
  SearchContext ctx_;
};

TEST_F(GreedyFillTest, FillsEverythingUnderLooseBound) {
  SetBound(1e12);
  SpaceView view = View();
  FillResult fill = GreedyFill(view, IndexSet{3},
                               view.Evaluate(IndexSet{3}, ctx_.metrics),
                               nullptr, ctx_);
  EXPECT_EQ(fill.state.size(), 8u);
}

TEST_F(GreedyFillTest, AddsNothingUnderTightBound) {
  // Bound below any two-preference state: the seed stays alone.
  double min_pair = 1e18;
  for (size_t a = 0; a < 8; ++a) {
    for (size_t b = a + 1; b < 8; ++b) {
      min_pair = std::min(
          min_pair, space_.prefs[a].cost_ms + space_.prefs[b].cost_ms);
    }
  }
  SetBound(min_pair - 1.0);
  SpaceView view = View();
  IndexSet seed{0};  // most expensive preference (C order)
  FillResult fill = GreedyFill(view, seed,
                               view.Evaluate(seed, ctx_.metrics), nullptr,
                               ctx_);
  EXPECT_EQ(fill.state, seed);
}

TEST_F(GreedyFillTest, RespectsBannedPositions) {
  SetBound(1e12);
  SpaceView view = View();
  std::vector<bool> banned(8, false);
  banned[2] = true;
  banned[5] = true;
  FillResult fill = GreedyFill(view, IndexSet{0},
                               view.Evaluate(IndexSet{0}, ctx_.metrics),
                               &banned, ctx_);
  EXPECT_EQ(fill.state.size(), 6u);
  EXPECT_FALSE(fill.state.Contains(2));
  EXPECT_FALSE(fill.state.Contains(5));
}

TEST_F(GreedyFillTest, ResultAlwaysWithinBound) {
  Rng rng(77);
  for (int trial = 0; trial < 30; ++trial) {
    double supreme = evaluator_.SupremeState().cost_ms;
    SetBound(rng.UniformDouble(0.1, 1.0) * supreme);
    SpaceView view = View();
    IndexSet seed{static_cast<int32_t>(rng.Uniform(0, 7))};
    estimation::StateParams seed_params = view.Evaluate(seed, ctx_.metrics);
    if (!view.WithinBound(seed_params)) continue;
    FillResult fill = GreedyFill(view, seed, seed_params, nullptr, ctx_);
    EXPECT_TRUE(view.WithinBound(fill.params));
    // Maximality: no further candidate fits.
    for (int32_t j : Horizontal2Candidates(fill.state, view.K())) {
      estimation::StateParams extended =
          view.ExtendWith(fill.params, j, ctx_.metrics);
      EXPECT_FALSE(view.WithinBound(extended))
          << "fill was not maximal: could still add " << j;
    }
  }
}

// ---------- BoundSpaceKindFor ----------

TEST(BoundSpaceKindTest, PicksCostThenSize) {
  EXPECT_EQ(*BoundSpaceKindFor(ProblemSpec::Problem2(10)), SpaceKind::kCost);
  EXPECT_EQ(*BoundSpaceKindFor(ProblemSpec::Problem3(10, 1, 5)),
            SpaceKind::kCost);
  EXPECT_EQ(*BoundSpaceKindFor(ProblemSpec::Problem1(1, 5)),
            SpaceKind::kSize);
  EXPECT_FALSE(BoundSpaceKindFor(ProblemSpec::Problem4(0.5)).ok());
}

// ---------- budgets ----------

TEST(SearchContextTest, UnlimitedNeverStops) {
  SearchContext ctx;
  ctx.metrics.states_examined = 1000000;
  EXPECT_FALSE(ctx.ShouldStop());
  EXPECT_FALSE(ctx.exhausted());
  EXPECT_EQ(ctx.exhaustion(), BudgetExhaustion::kNone);
}

TEST(SearchContextTest, ExpansionLimitIsSticky) {
  SearchBudget budget;
  budget.max_expansions = 10;
  SearchContext ctx(budget);
  ctx.metrics.states_examined = 9;
  EXPECT_FALSE(ctx.ShouldStop());
  ctx.metrics.states_examined = 10;
  EXPECT_TRUE(ctx.ShouldStop());
  EXPECT_TRUE(ctx.metrics.truncated);
  EXPECT_EQ(ctx.exhaustion(), BudgetExhaustion::kExpansions);
  // Sticky: stays stopped even if the counter were rolled back.
  ctx.metrics.states_examined = 0;
  EXPECT_TRUE(ctx.ShouldStop());
  EXPECT_FALSE(ctx.ExhaustionStatus().ok());
  EXPECT_EQ(ctx.ExhaustionStatus().code(), StatusCode::kResourceExhausted);
}

TEST(SearchContextTest, MemoryLimitFires) {
  SearchBudget budget;
  budget.max_memory_bytes = 100;
  SearchContext ctx(budget);
  ctx.metrics.memory.Allocate(99);
  EXPECT_FALSE(ctx.ShouldStop());
  ctx.metrics.memory.Allocate(1);
  EXPECT_TRUE(ctx.ShouldStop());
  EXPECT_EQ(ctx.exhaustion(), BudgetExhaustion::kMemory);
}

TEST(SearchContextTest, CancelTokenStops) {
  CancelToken cancel;
  SearchBudget budget;
  budget.cancel = &cancel;
  SearchContext ctx(budget);
  EXPECT_FALSE(ctx.ShouldStop());
  cancel.Cancel();
  EXPECT_TRUE(ctx.ShouldStop());
  EXPECT_EQ(ctx.exhaustion(), BudgetExhaustion::kCancelled);
}

TEST(SearchContextTest, ExpiredDeadlineStopsWithinStride) {
  SearchContext ctx(SearchBudget::AfterMillis(0.0));
  bool stopped = false;
  // The deadline is only polled every kDeadlineStride ticks; a handful of
  // calls must be enough to observe it.
  for (int i = 0; i < 64 && !stopped; ++i) stopped = ctx.ShouldStop();
  EXPECT_TRUE(stopped);
  EXPECT_EQ(ctx.exhaustion(), BudgetExhaustion::kDeadline);
  EXPECT_EQ(ctx.ExhaustionStatus().code(), StatusCode::kDeadlineExceeded);
}

TEST(SearchContextTest, ResetForRetryKeepsBudget) {
  SearchBudget budget;
  budget.max_expansions = 5;
  SearchContext ctx(budget);
  ctx.metrics.states_examined = 5;
  EXPECT_TRUE(ctx.ShouldStop());
  ctx.ResetForRetry();
  EXPECT_FALSE(ctx.exhausted());
  EXPECT_EQ(ctx.metrics.states_examined, 0u);
  ctx.metrics.states_examined = 5;
  EXPECT_TRUE(ctx.ShouldStop());  // the budget itself survives the reset
}

class TruncationTest : public ::testing::TestWithParam<const char*> {};

TEST_P(TruncationTest, LimitedRunStillReturnsSolution) {
  Rng rng(31);
  auto space = MakeRandomSpace(rng, 16);
  double supreme = space.MakeEvaluator().SupremeState().cost_ms;
  ProblemSpec problem = ProblemSpec::Problem2(0.5 * supreme);

  const Algorithm* algorithm = *GetAlgorithm(GetParam());
  SearchContext unlimited;
  auto full = algorithm->Solve(space, problem, unlimited);
  ASSERT_TRUE(full.ok());
  EXPECT_FALSE(unlimited.metrics.truncated);
  EXPECT_FALSE(full->degraded);

  SearchBudget budget;
  budget.max_expansions = 20;  // far below what the search needs
  SearchContext limited(budget);
  auto cut = algorithm->Solve(space, problem, limited);
  ASSERT_TRUE(cut.ok()) << GetParam();
  // The capped run is flagged if and only if it actually ran out.
  if (unlimited.metrics.states_examined > 20) {
    EXPECT_TRUE(limited.metrics.truncated) << GetParam();
    EXPECT_TRUE(limited.exhausted()) << GetParam();
    EXPECT_TRUE(cut->degraded) << GetParam();
  }
  // Whatever it returns is still a consistent, feasible-or-flagged answer.
  if (cut->feasible) {
    auto params = space.MakeEvaluator().Evaluate(cut->chosen);
    EXPECT_TRUE(problem.IsFeasible(params)) << GetParam();
    EXPECT_LE(cut->params.doi, full->params.doi + 1e-9) << GetParam();
  }
}

INSTANTIATE_TEST_SUITE_P(Algorithms, TruncationTest,
                         ::testing::Values("C-Boundaries", "C-MaxBounds",
                                           "D-MaxDoi", "D-MaxDoi+Prune",
                                           "D-SingleMaxDoi", "D-HeurDoi"));

}  // namespace
}  // namespace cqp::cqp
