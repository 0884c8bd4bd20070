#include <bit>
#include <optional>

#include "common/stopwatch.h"
#include "cqp/algorithms.h"
#include "cqp/search_util.h"
#include "cqp/transitions.h"
#include "estimation/batch_evaluator.h"

namespace cqp::cqp {
namespace {

/// A phase-1 work item: the state, its push-time evaluation and the
/// generation of its group's boundaries when the push-time domination
/// check passed (kUnchecked when no check ran). The evaluation is stored
/// flat so the generation sits where StateParams keeps tail padding: an
/// entry stays the size of a BitState, and the queue peaks at ~16k of them
/// on the Fig. 12 workload.
struct PhaseOneState {
  static constexpr uint32_t kUnchecked = ~uint32_t{0};

  PhaseOneState(uint64_t state, const estimation::StateParams& p,
                uint32_t checked_at = kUnchecked)
      : bits(state),
        doi(p.doi),
        cost_ms(p.cost_ms),
        size(p.size),
        count(p.count),
        generation(checked_at) {}

  estimation::StateParams params() const {
    return estimation::StateParams{doi, cost_ms, size, count};
  }

  uint64_t bits;
  double doi;
  double cost_ms;
  double size;
  uint32_t count;
  uint32_t generation;
};
static_assert(sizeof(PhaseOneState) == sizeof(BitState));

/// Phase 1 (FINDBOUNDARY) in the bitmask domain with batch evaluation:
/// the traversal — pop order, bound decisions, boundary set — is exactly
/// the scalar loop below, because states are evaluated bit-exactly and
/// neighbors are generated in the same order; only the *representation*
/// (uint64 + push-time frontier evaluation instead of IndexSet + pop-time
/// cached evaluation) changes. The pop-time prune() re-check is skipped
/// when the state's group gained no boundary since its push-time check
/// passed (BitBoundaryStore::DominatesAnySince): its answer is known.
std::vector<IndexSet> FindBoundariesBatch(const SpaceView& view,
                                          SearchContext& ctx) {
  SearchMetrics& metrics = ctx.metrics;
  const size_t k = view.K();
  BitBoundaryStore boundaries(metrics);
  BitVisitedSet visited(metrics, k);
  BitQueue<PhaseOneState> queue(metrics);
  estimation::BatchEvaluator::Results results;
  std::vector<uint64_t> pending;

  uint64_t first = 1;
  visited.CheckAndInsert(first);
  view.EvaluateFrontierBits(&first, 1, &results, metrics);
  queue.PushBack({first, results.Get(0)});

  while (!queue.empty()) {
    if (ctx.ShouldStop()) break;
    const PhaseOneState state = queue.PopFront();
    if (boundaries.DominatesAnySince(state.bits, state.generation)) continue;
    if (view.WithinBound(state.params())) {
      boundaries.Add(state.bits);
      ++metrics.transitions;
      if (uint64_t h = HorizontalBits(state.bits, k)) {
        if (!visited.CheckAndInsert(h)) {
          view.EvaluateFrontierBits(&h, 1, &results, metrics);
          queue.PushBack({h, results.Get(0)});
        }
      }
    } else {
      // Vertical neighbors share the popped state's group, and no boundary
      // is added while they are filtered: one generation tags them all.
      // No boundary dominates the popped state (its check just passed),
      // which is what DominatesVerticalNeighbor needs.
      const uint32_t generation = boundaries.Generation(state.bits);
      pending.clear();
      ForEachVerticalNeighborBits(state.bits, k, [&](uint64_t v) {
        ++metrics.transitions;
        if (visited.CheckAndInsert(v)) return;
        const int to = std::bit_width(v ^ state.bits) - 1;
        if (boundaries.DominatesVerticalNeighbor(v, to)) return;
        pending.push_back(v);
      });
      if (!pending.empty()) {
        // One frontier of sibling states per pop. The scalar loop pushes
        // each survivor to the front as it is generated, so front-pushing
        // in the same generation order reproduces its queue layout (the
        // last-generated neighbor ends up front-most either way).
        view.EvaluateFrontierBits(pending.data(), pending.size(), &results,
                                  metrics);
        for (size_t i = 0; i < pending.size(); ++i) {
          queue.PushFront({pending[i], results.Get(i), generation});
        }
      }
    }
  }
  return boundaries.DescendingBySize();
}

}  // namespace

bool CBoundariesAlgorithm::Supports(const ProblemSpec& problem) const {
  return problem.Validate().ok() &&
         problem.objective == Objective::kMaximizeDoi &&
         BoundSpaceKindFor(problem).ok();
}

bool CBoundariesAlgorithm::IsExactFor(const ProblemSpec& problem) const {
  // Exact for all doi-maximization problems: phase 2 uses the exact greedy
  // slot-swap when feasibility coincides with the binding bound, and a full
  // region scan of the dominated cones otherwise.
  return Supports(problem);
}

StatusOr<Solution> CBoundariesAlgorithm::Solve(
    const space::PreferenceSpaceResult& space, const ProblemSpec& problem,
    SearchContext& ctx) const {
  CQP_RETURN_IF_ERROR(problem.Validate());
  CQP_ASSIGN_OR_RETURN(SpaceKind kind, BoundSpaceKindFor(problem));
  Stopwatch timer;
  SearchMetrics& metrics = ctx.metrics;
  estimation::StateEvaluator evaluator = space.MakeEvaluator();
  SpaceView view = SpaceView::ForKind(&evaluator, &problem, kind, space);
  std::optional<estimation::BatchEvaluator> local_batch;
  view.set_batch(ResolveBatchEvaluator(space, ctx, local_batch));
  const size_t k = view.K();

  // ---- Phase 1: FINDBOUNDARY (paper Fig. 5) ----
  // Breadth-first over groups: Vertical neighbors are pushed to the front
  // (finish the current group), Horizontal successors to the back (start
  // the next group).
  std::vector<IndexSet> boundary_list;
  if (k > 0 && view.batch_enabled()) {
    boundary_list = FindBoundariesBatch(view, ctx);
  } else if (k > 0) {
    BoundaryStore boundaries(metrics);
    VisitedSet visited(metrics);
    StateQueue queue(metrics);
    IndexSet first({0});
    visited.CheckAndInsert(first);
    queue.PushBack(std::move(first));

    while (!queue.empty()) {
      if (ctx.ShouldStop()) break;
      IndexSet state = queue.PopFront();
      // prune(): nodes below an already-found boundary of the same group
      // satisfy the bound but are covered by phase 2 (paper's c2c5 case).
      if (boundaries.DominatesAny(state)) continue;
      estimation::StateParams params = view.Evaluate(state, metrics);
      if (view.WithinBound(params)) {
        boundaries.Add(state);
        ++metrics.transitions;
        if (std::optional<IndexSet> h = Horizontal(state, k)) {
          if (!visited.CheckAndInsert(*h)) queue.PushBack(std::move(*h));
        }
      } else {
        for (IndexSet& v : VerticalNeighbors(state, k)) {
          ++metrics.transitions;
          if (visited.CheckAndInsert(v)) continue;
          if (boundaries.DominatesAny(v)) continue;
          queue.PushFront(std::move(v));
        }
      }
    }
    boundary_list = boundaries.DescendingBySize();
  }

  // ---- Phase 2: C_FINDMAXDOI ----
  Solution best = BestFeasibleBelowBoundaries(view, boundary_list, ctx);

  best.degraded = ctx.exhausted();
  metrics.wall_ms = timer.ElapsedMillis();
  return best;
}

}  // namespace cqp::cqp
