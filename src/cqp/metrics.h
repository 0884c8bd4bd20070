#ifndef CQP_CQP_METRICS_H_
#define CQP_CQP_METRICS_H_

#include <cstdint>

#include "common/memory_meter.h"

namespace cqp::cqp {

/// Instrumentation of one search-algorithm run, feeding the Fig. 12/13
/// reproductions. Purely an output record: resource *limits* live in
/// cqp::SearchBudget, enforced by SearchContext. Collection is
/// unconditional — every Solve() call fills one of these.
///
/// Concurrency rule (no shared mutation): counters are PLAIN integers, not
/// atomics, on purpose. A SearchMetrics instance belongs to exactly one
/// worker — each request in a PersonalizeBatch owns its SearchContext and
/// therefore its metrics — and batch-level totals are produced by summing
/// the per-worker records after WaitAll(). Never point two threads at the
/// same instance; shared tallies (e.g. a process-wide states total) must
/// be aggregated from these per-run records, not mutated in place.
struct SearchMetrics {
  /// True when the budget stopped the search before completion; exact
  /// algorithms lose their optimality guarantee on truncated runs.
  bool truncated = false;
  /// Number of states whose parameters were evaluated.
  uint64_t states_examined = 0;
  /// Number of transitions generated (Horizontal + Vertical + Horizontal2
  /// extensions attempted).
  uint64_t transitions = 0;
  /// Boundaries / maximal boundaries / chain solutions found in phase 1.
  uint64_t boundaries_found = 0;
  /// Batch (SoA) evaluation calls issued through a BatchEvaluator; 0 on
  /// scalar-only runs. frontier_states / frontiers_evaluated is the
  /// average frontier width of a call.
  uint64_t frontiers_evaluated = 0;
  /// States evaluated through the batch path (these also count under
  /// states_examined).
  uint64_t frontier_states = 0;
  /// Always 0: batch evaluation runs exactly the requested lanes, with no
  /// padding. Kept because external consumers still read the field.
  uint64_t frontier_lanes_wasted = 0;
  /// Wall-clock time of Solve(), milliseconds.
  double wall_ms = 0.0;
  /// Logical working-set accounting (queues, visited sets, boundary lists).
  MemoryMeter memory;

  void Reset() { *this = SearchMetrics{}; }
};

}  // namespace cqp::cqp

#endif  // CQP_CQP_METRICS_H_
