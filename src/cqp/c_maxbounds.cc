#include <algorithm>
#include <optional>

#include "common/stopwatch.h"
#include "cqp/algorithms.h"
#include "cqp/search_util.h"
#include "cqp/transitions.h"
#include "estimation/batch_evaluator.h"

namespace cqp::cqp {

bool CMaxBoundsAlgorithm::Supports(const ProblemSpec& problem) const {
  return problem.Validate().ok() &&
         problem.objective == Objective::kMaximizeDoi &&
         BoundSpaceKindFor(problem).ok();
}

bool CMaxBoundsAlgorithm::IsExactFor(const ProblemSpec&) const {
  // Heuristic: maximal boundaries may miss the optimum's cone (quality is
  // evaluated in Fig. 14).
  return false;
}

namespace {

/// Maximal-boundary collection with subset-based deduplication: none stored
/// is a subset of another (the property C-MAXBOUNDS aims for). Bitmask
/// views make the hot subset tests a single AND (K < 64 is guaranteed by
/// the preference-space extraction).
class MaxBoundStore {
 public:
  explicit MaxBoundStore(SearchMetrics& metrics) : metrics_(metrics) {}

  bool IsSubsetOfExisting(uint64_t bits) const {
    for (const auto& [stored_bits, stored] : bounds_) {
      if ((bits & ~stored_bits) == 0) return true;
    }
    return false;
  }

  bool IsSubsetOfExisting(const IndexSet& state) const {
    return IsSubsetOfExisting(state.Bits());
  }

  void Add(const IndexSet& state) {
    uint64_t bits = state.Bits();
    // Drop any stored bound subsumed by the new one.
    for (size_t i = bounds_.size(); i-- > 0;) {
      if ((bounds_[i].first & ~bits) == 0) {
        metrics_.memory.Release(bounds_[i].second.MemoryBytes());
        bounds_.erase(bounds_.begin() + static_cast<ptrdiff_t>(i));
      }
    }
    metrics_.memory.Allocate(state.MemoryBytes());
    ++metrics_.boundaries_found;
    max_size_ = std::max(max_size_, state.size());
    bounds_.emplace_back(bits, state);
  }

  void Add(uint64_t bits) { Add(IndexSet::FromBits(bits)); }

  size_t max_size() const { return max_size_; }
  std::vector<IndexSet> bounds() const {
    std::vector<IndexSet> out;
    out.reserve(bounds_.size());
    for (const auto& [bits, state] : bounds_) out.push_back(state);
    return out;
  }

 private:
  std::vector<std::pair<uint64_t, IndexSet>> bounds_;
  size_t max_size_ = 0;
  SearchMetrics& metrics_;
};

/// Phase 1 (FINDMAXBOUND rounds) in the bitmask domain with batch
/// evaluation. The traversal is the scalar loop below with only the state
/// representation changed: uint64 masks carried with their push-time batch
/// parameters, GreedyFillBits instead of GreedyFill (same accepted
/// candidates), and each pop's surviving Vertical neighbors evaluated as
/// one frontier. The seed-retention "exit for" cut and the subset checks
/// happen at the same points, so the stored maximal boundaries match.
void FindMaxBoundsBatch(const SpaceView& view, SearchContext& ctx,
                        MaxBoundStore& max_bounds) {
  SearchMetrics& metrics = ctx.metrics;
  const size_t k = view.K();
  BitVisitedSet visited(metrics, k);
  estimation::BatchEvaluator::Results results;
  std::vector<uint64_t> pending;
  std::vector<uint64_t> accepted;

  for (size_t seed = 0; seed < k; ++seed) {
    if (ctx.ShouldStop()) break;
    // Termination: once a maximal boundary covers every preference at or
    // after the seed, later seeds can only produce subsets of it.
    if (seed + max_bounds.max_size() >= k && max_bounds.max_size() > 0) break;

    BitStateQueue queue(metrics);
    const uint64_t seed_bits = uint64_t{1} << seed;
    if (visited.CheckAndInsert(seed_bits)) continue;
    view.EvaluateFrontierBits(&seed_bits, 1, &results, metrics);
    queue.PushBack(BitState{seed_bits, results.Get(0)});

    while (!queue.empty()) {
      if (ctx.ShouldStop()) break;
      const BitState state = queue.PopFront();
      if (max_bounds.IsSubsetOfExisting(state.bits)) continue;

      // Greedy maximal fill via Horizontal2.
      BitFillResult fill = GreedyFillBits(view, state.bits, state.params, ctx);

      if (view.WithinBound(fill.params) &&
          !max_bounds.IsSubsetOfExisting(fill.bits)) {
        // Deviation from the strict "R != R0" of the pseudocode: a seed
        // that is itself maximal (nothing fits next to it) is still a
        // useful boundary; storing it can only improve solution quality.
        max_bounds.Add(fill.bits);
      }

      // Explore Vertical neighbors that retain the seed. The paper's
      // FINDMAXBOUND stops at the first neighbor that drops the seed
      // ("exit for"), i.e. only members before the seed are bumped —
      // this aggressive cut is what keeps C-MAXBOUNDS cheap (§7.2.1).
      pending.clear();
      VerticalNeighborsBits(fill.bits, k, &pending);
      accepted.clear();
      for (uint64_t v : pending) {
        ++metrics.transitions;
        if (((v >> seed) & 1) == 0) break;
        if (visited.CheckAndInsert(v)) continue;
        if (max_bounds.IsSubsetOfExisting(v)) continue;
        accepted.push_back(v);
      }
      if (!accepted.empty()) {
        view.EvaluateFrontierBits(accepted.data(), accepted.size(), &results,
                                  metrics);
        for (size_t i = 0; i < accepted.size(); ++i) {
          queue.PushBack(BitState{accepted[i], results.Get(i)});
        }
      }
    }
  }
}

}  // namespace

StatusOr<Solution> CMaxBoundsAlgorithm::Solve(
    const space::PreferenceSpaceResult& space, const ProblemSpec& problem,
    SearchContext& ctx) const {
  CQP_RETURN_IF_ERROR(problem.Validate());
  CQP_ASSIGN_OR_RETURN(SpaceKind kind, BoundSpaceKindFor(problem));
  if (space.K() >= 64) {
    return FailedPrecondition(
        "C-MaxBounds uses 64-bit state masks; K must be < 64");
  }
  Stopwatch timer;
  SearchMetrics& metrics = ctx.metrics;
  estimation::StateEvaluator evaluator = space.MakeEvaluator();
  SpaceView view = SpaceView::ForKind(&evaluator, &problem, kind, space);
  std::optional<estimation::BatchEvaluator> local_batch;
  view.set_batch(ResolveBatchEvaluator(space, ctx, local_batch));
  const size_t k = view.K();

  // ---- Phase 1: FINDMAXBOUND rounds (paper Fig. 7) ----
  MaxBoundStore max_bounds(metrics);

  if (k > 0 && view.batch_enabled()) {
    FindMaxBoundsBatch(view, ctx, max_bounds);
  } else {
    VisitedSet visited(metrics);
    for (size_t seed = 0; seed < k; ++seed) {
      if (ctx.ShouldStop()) break;
      // Termination: once a maximal boundary covers every preference at or
      // after the seed, later seeds can only produce subsets of it.
      if (seed + max_bounds.max_size() >= k && max_bounds.max_size() > 0) {
        break;
      }

      StateQueue queue(metrics);
      IndexSet seed_state({static_cast<int32_t>(seed)});
      if (visited.CheckAndInsert(seed_state)) continue;
      queue.PushBack(std::move(seed_state));

      while (!queue.empty()) {
        if (ctx.ShouldStop()) break;
        IndexSet state = queue.PopFront();
        if (max_bounds.IsSubsetOfExisting(state)) continue;
        estimation::StateParams params = view.Evaluate(state, metrics);

        // Greedy maximal fill via Horizontal2.
        FillResult fill = GreedyFill(view, state, params, nullptr, ctx);

        if (view.WithinBound(fill.params) &&
            !max_bounds.IsSubsetOfExisting(fill.state)) {
          // Deviation from the strict "R != R0" of the pseudocode: a seed
          // that is itself maximal (nothing fits next to it) is still a
          // useful boundary; storing it can only improve solution quality.
          max_bounds.Add(fill.state);
        }

        // Explore Vertical neighbors that retain the seed. The paper's
        // FINDMAXBOUND stops at the first neighbor that drops the seed
        // ("exit for"), i.e. only members before the seed are bumped —
        // this aggressive cut is what keeps C-MAXBOUNDS cheap (§7.2.1).
        for (IndexSet& v : VerticalNeighbors(fill.state, k)) {
          ++metrics.transitions;
          if (!v.Contains(static_cast<int32_t>(seed))) break;
          if (visited.CheckAndInsert(v)) continue;
          if (max_bounds.IsSubsetOfExisting(v)) continue;
          queue.PushBack(std::move(v));
        }
      }
    }
  }

  // ---- Phase 2: C_FINDMAXDOI over the maximal boundaries ----
  Solution best = BestFeasibleBelowBoundaries(view, max_bounds.bounds(), ctx);

  best.degraded = ctx.exhausted();
  metrics.wall_ms = timer.ElapsedMillis();
  return best;
}

}  // namespace cqp::cqp
