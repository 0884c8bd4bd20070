#include <bit>
#include <optional>
#include <vector>

#include "common/stopwatch.h"
#include "cqp/algorithms.h"
#include "cqp/search_util.h"
#include "estimation/batch_evaluator.h"

namespace cqp::cqp {

namespace {

/// 2^K grows past interactive use beyond this; callers wanting larger K
/// should use the boundary or chain algorithms.
constexpr size_t kMaxExhaustiveK = 25;

/// Tail width of the batch enumeration: each prefix spawns one frontier of
/// 2^L sibling leaves evaluated in a single batch call.
constexpr size_t kBatchTailBits = 6;

struct ExhaustiveState {
  const estimation::StateEvaluator* evaluator;
  const ProblemSpec* problem;
  SearchContext* ctx;
  Solution best;
  std::vector<int32_t> current;
};

void Recurse(ExhaustiveState& st, size_t i,
             const estimation::StateParams& params) {
  if (st.ctx->ShouldStop()) return;
  if (i >= st.evaluator->K()) {
    // Each subset of P reaches this point exactly once.
    ++st.ctx->metrics.states_examined;
    if (st.problem->IsFeasible(params) &&
        (!st.best.feasible || st.problem->Better(params, st.best.params))) {
      st.best.feasible = true;
      st.best.params = params;
      st.best.chosen = IndexSet::FromUnsorted(st.current);
    }
    return;
  }
  // Exclude preference i.
  Recurse(st, i + 1, params);
  // Include preference i.
  st.current.push_back(static_cast<int32_t>(i));
  Recurse(st, i + 1,
          st.evaluator->ExtendWith(params, static_cast<int32_t>(i)));
  st.current.pop_back();
}

/// Batch tail machinery: the DFS leaves below a prefix of K-L include
/// decisions form one frontier of 2^L sibling states over the last L
/// preferences, evaluated in a single EvaluateSequence call. Lane l maps
/// to the l-th leaf in the scalar DFS order (exclude-before-include, so
/// seq position j is included iff bit L-1-j of l is set); scanning lanes
/// in ascending order therefore examines leaves in the scalar order and
/// preserves its first-best tie behavior.
struct BatchTail {
  const estimation::BatchEvaluator* batch = nullptr;
  std::vector<int32_t> seq;          ///< tail P indices, ascending
  std::vector<uint64_t> lane_masks;  ///< 2^L membership masks over seq
  estimation::BatchEvaluator::Results results;
};

void BatchRecurse(ExhaustiveState& st, BatchTail& tail, size_t i,
                  const estimation::StateParams& params) {
  if (st.ctx->ShouldStop()) return;
  const size_t K = st.evaluator->K();
  const size_t L = tail.seq.size();
  if (i + L == K) {
    const size_t n = tail.lane_masks.size();
    tail.batch->EvaluateSequence(params, tail.seq.data(), L,
                                 tail.lane_masks.data(), n, &tail.results);
    SearchMetrics& metrics = st.ctx->metrics;
    metrics.states_examined += n;
    ++metrics.frontiers_evaluated;
    metrics.frontier_states += n;
    for (size_t l = 0; l < n; ++l) {
      estimation::StateParams leaf = tail.results.Get(l);
      if (st.problem->IsFeasible(leaf) &&
          (!st.best.feasible || st.problem->Better(leaf, st.best.params))) {
        st.best.feasible = true;
        st.best.params = leaf;
        std::vector<int32_t> chosen = st.current;
        for (uint64_t rest = tail.lane_masks[l]; rest != 0;
             rest &= rest - 1) {
          chosen.push_back(
              static_cast<int32_t>(K - L + std::countr_zero(rest)));
        }
        st.best.chosen = IndexSet::FromUnsorted(std::move(chosen));
      }
    }
    return;
  }
  // Exclude preference i.
  BatchRecurse(st, tail, i + 1, params);
  // Include preference i (scalar-identical incremental extension).
  st.current.push_back(static_cast<int32_t>(i));
  BatchRecurse(st, tail, i + 1,
               tail.batch->ExtendWith(params, static_cast<int32_t>(i)));
  st.current.pop_back();
}

BatchTail MakeBatchTail(const estimation::BatchEvaluator* batch, size_t K) {
  BatchTail tail;
  tail.batch = batch;
  const size_t L = std::min(K, kBatchTailBits);
  tail.seq.reserve(L);
  for (size_t j = 0; j < L; ++j) {
    tail.seq.push_back(static_cast<int32_t>(K - L + j));
  }
  tail.lane_masks.resize(size_t{1} << L);
  for (size_t l = 0; l < tail.lane_masks.size(); ++l) {
    uint64_t mask = 0;
    for (size_t j = 0; j < L; ++j) {
      if ((l >> (L - 1 - j)) & 1) mask |= uint64_t{1} << j;
    }
    tail.lane_masks[l] = mask;
  }
  return tail;
}

}  // namespace

bool ExhaustiveAlgorithm::Supports(const ProblemSpec& problem) const {
  return problem.Validate().ok();
}

bool ExhaustiveAlgorithm::IsExactFor(const ProblemSpec& problem) const {
  return Supports(problem);
}

StatusOr<Solution> ExhaustiveAlgorithm::Solve(
    const space::PreferenceSpaceResult& space, const ProblemSpec& problem,
    SearchContext& ctx) const {
  CQP_RETURN_IF_ERROR(problem.Validate());
  if (space.K() > kMaxExhaustiveK) {
    return FailedPrecondition(
        "Exhaustive search refuses K > 25 (exponential state space)");
  }
  Stopwatch timer;
  estimation::StateEvaluator evaluator = space.MakeEvaluator();

  ExhaustiveState st;
  st.evaluator = &evaluator;
  st.problem = &problem;
  st.ctx = &ctx;
  st.best = InfeasibleSolution(evaluator);
  // The leaves are evaluated as 2^L-wide frontiers whenever batch
  // evaluation is allowed; the scalar recursion is the forced-scalar path.
  std::optional<estimation::BatchEvaluator> local_batch;
  const estimation::BatchEvaluator* batch =
      ResolveBatchEvaluator(space, ctx, local_batch);
  // Note: both recursions visit states once each, evaluating
  // incrementally; they visit the empty state first, so the fallback
  // "original query" is always considered.
  if (batch != nullptr && space.K() > 0) {
    BatchTail tail = MakeBatchTail(batch, space.K());
    BatchRecurse(st, tail, 0, evaluator.EmptyState());
  } else {
    Recurse(st, 0, evaluator.EmptyState());
  }

  st.best.degraded = ctx.exhausted();
  ctx.metrics.wall_ms = timer.ElapsedMillis();
  return st.best;
}

}  // namespace cqp::cqp
