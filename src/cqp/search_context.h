#ifndef CQP_CQP_SEARCH_CONTEXT_H_
#define CQP_CQP_SEARCH_CONTEXT_H_

#include <string>

#include "common/budget.h"
#include "common/status.h"
#include "cqp/metrics.h"

namespace cqp::estimation {
class BatchEvaluator;
}  // namespace cqp::estimation

namespace cqp::cqp {

/// Per-Solve() state threaded through every search algorithm: the resource
/// budget to honor and the metrics being collected. Algorithms call
/// ShouldStop() at expansion granularity (loop heads, recursion entries) and,
/// when it fires, return their best feasible solution so far with
/// Solution::degraded set instead of failing hard.
///
/// Exhaustion is sticky: once any limit trips, ShouldStop() stays true so a
/// search unwinding through nested loops stops everywhere. Reusing a context
/// for a fallback attempt requires ResetForRetry(); the budget itself is
/// kept, so an absolute deadline keeps shrinking across attempts.
class SearchContext {
 public:
  SearchContext() = default;
  explicit SearchContext(SearchBudget budget) : budget_(budget) {}

  SearchContext(const SearchContext&) = delete;
  SearchContext& operator=(const SearchContext&) = delete;

  const SearchBudget& budget() const { return budget_; }

  /// True when the search must stop now. Checks the cancel token, the
  /// expansion cap, the memory cap and (every kDeadlineStride calls, to
  /// amortize clock reads) the wall-clock deadline. Marks the run truncated.
  bool ShouldStop() {
    if (exhaustion_ != BudgetExhaustion::kNone) return true;
    if (budget_.IsUnlimited()) return false;
    if (budget_.cancel != nullptr && budget_.cancel->cancelled()) {
      return Exhaust(BudgetExhaustion::kCancelled);
    }
    if (budget_.max_expansions != 0 &&
        metrics.states_examined >= budget_.max_expansions) {
      return Exhaust(BudgetExhaustion::kExpansions);
    }
    if (budget_.max_memory_bytes != 0 &&
        metrics.memory.current_bytes() >= budget_.max_memory_bytes) {
      return Exhaust(BudgetExhaustion::kMemory);
    }
    if (budget_.deadline.has_value() && tick_++ % kDeadlineStride == 0 &&
        std::chrono::steady_clock::now() >= *budget_.deadline) {
      return Exhaust(BudgetExhaustion::kDeadline);
    }
    return false;
  }

  bool exhausted() const { return exhaustion_ != BudgetExhaustion::kNone; }
  BudgetExhaustion exhaustion() const { return exhaustion_; }

  /// The error a caller that cannot degrade would report: DeadlineExceeded
  /// for wall-clock/cancellation, ResourceExhausted for expansion/memory
  /// caps, OK when the budget never tripped.
  Status ExhaustionStatus() const {
    switch (exhaustion_) {
      case BudgetExhaustion::kNone:
        return Status::OK();
      case BudgetExhaustion::kDeadline:
        return DeadlineExceeded("search deadline exceeded");
      case BudgetExhaustion::kCancelled:
        return DeadlineExceeded("search cancelled");
      case BudgetExhaustion::kExpansions:
        return ResourceExhausted("search expansion budget exhausted");
      case BudgetExhaustion::kMemory:
        return ResourceExhausted("search memory budget exhausted");
    }
    return Status::OK();
  }

  /// Clears metrics and the sticky exhaustion flag for the next rung of a
  /// fallback chain. The budget stays: expansion/memory counters restart,
  /// but the absolute deadline naturally covers the whole chain.
  void ResetForRetry() {
    metrics.Reset();
    exhaustion_ = BudgetExhaustion::kNone;
    tick_ = 0;
  }

  /// Output record of the current (or last) Solve() run. Public: algorithms
  /// update counters directly, as do the container helpers they own.
  SearchMetrics metrics;

  /// Optional shared SoA batch-evaluation artifact for this run's pruned
  /// space (space::PreparedSpace::BatchForProblem), built once at Prepare
  /// time and reused across solves. Algorithms only trust it when its
  /// prefs_identity() matches the space they were handed (see
  /// search_util's ResolveBatchEvaluator) and build a local one otherwise.
  const estimation::BatchEvaluator* batch_eval = nullptr;

  /// Escape hatch for differential testing: false forces every algorithm
  /// onto the per-state scalar StateEvaluator path (the harness oracle),
  /// exactly as if no batch evaluator existed.
  bool allow_batch_eval = true;

 private:
  /// Deadline checks read the clock only every this many ShouldStop() calls;
  /// tick_ starts at 0 so the very first call does check.
  static constexpr uint32_t kDeadlineStride = 32;

  bool Exhaust(BudgetExhaustion why) {
    exhaustion_ = why;
    metrics.truncated = true;
    return true;
  }

  SearchBudget budget_;
  BudgetExhaustion exhaustion_ = BudgetExhaustion::kNone;
  uint32_t tick_ = 0;
};

}  // namespace cqp::cqp

#endif  // CQP_CQP_SEARCH_CONTEXT_H_
