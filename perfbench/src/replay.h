#ifndef PERFBENCH_REPLAY_H_
#define PERFBENCH_REPLAY_H_

// The traced replay: one request at a time through the engine's public
// stage chain, with one span around each call. The benchmark's own
// construct::PlanCache stands in for the facade's, so the plan-cache
// lookup is measured the same way on every workload.

#include <memory>
#include <string>
#include <vector>

#include "common/budget.h"
#include "construct/plan_cache.h"
#include "cqp/problem.h"
#include "exec/exec_stats.h"
#include "prefs/graph.h"
#include "prefs/profile.h"
#include "server/profile_store.h"
#include "storage/database.h"
#include "trace.h"

namespace perfbench {

/// One replayed read. Either `store` resolves `profile_id` (wire
/// workloads, through ProfileStore::FindSnapshot) or `graph` is used as is
/// at `profile_version` (in-process workloads).
struct ReplayRead {
  std::string profile_id;
  const cqp::prefs::PersonalizationGraph* graph = nullptr;
  uint64_t profile_version = 1;
  std::string sql;
  cqp::cqp::ProblemSpec problem;
  std::string algorithm;  ///< already resolved (no "auto")
  size_t max_k = 20;
  cqp::SearchBudget budget;
  bool execute = false;
  std::string expected_final_sql;  ///< what the facade or the wire returned
};

/// Sums over the replayed requests; times in microseconds.
struct LayerTotals {
  size_t requests = 0;
  size_t puts = 0;
  double request_us = 0.0;     ///< root span durations
  double unattributed_us = 0.0;  ///< root self time
  double store_find_us = 0.0;
  double put_us = 0.0;
  double parse_us = 0.0;
  double fingerprint_us = 0.0;
  double plan_find_us = 0.0;
  size_t plan_lookups = 0;
  size_t plan_hits = 0;
  size_t extracts = 0;
  double extract_us = 0.0;
  double for_problem_us = 0.0;
  double batch_us = 0.0;
  size_t batch_builds = 0;
  double batch_build_us = 0.0;  ///< BatchForProblem on a fresh space
  double solve_us = 0.0;
  uint64_t states = 0;
  uint64_t frontiers = 0;
  uint64_t frontier_states = 0;
  uint64_t lanes_wasted = 0;
  size_t degraded = 0;
  double k_admitted = 0.0;
  uint64_t prefs_pruned = 0;
  double build_us = 0.0;
  uint64_t conjuncts_dropped = 0;
  uint64_t branches_eliminated = 0;
  double render_us = 0.0;
  size_t executes = 0;
  double execute_us = 0.0;
  uint64_t blocks_read = 0;
  uint64_t tuples_processed = 0;
  uint64_t rows_returned = 0;
  double estimated_cost_ms = 0.0;  ///< Formula 6 cost of the chosen state
  double simulated_ms = 0.0;       ///< ExecStats::SimulatedMillis
  double wall_us = 0.0;            ///< whole replay, spans or not
};

class Replayer {
 public:
  /// `store` may be null for in-process workloads. `tracer` null runs the
  /// same chain untraced (the overhead baseline).
  Replayer(const cqp::storage::Database* db, cqp::server::ProfileStore* store,
           Tracer* tracer);

  /// Replays one read; returns "" or a description of the mismatch
  /// against `read.expected_final_sql` (or of a failed stage).
  std::string Read(const ReplayRead& read);

  /// Replays one ProfileStore::Put.
  std::string Put(const std::string& id, cqp::prefs::Profile profile);

  /// Excludes everything recorded so far from totals() (warm-up pass).
  void ResetTotals() { totals_ = LayerTotals(); }
  const LayerTotals& totals() const { return totals_; }

 private:
  const cqp::storage::Database* db_;
  cqp::server::ProfileStore* store_;
  Tracer* tracer_;
  cqp::construct::PlanCache plans_;
  uint64_t next_request_ = 1;
  LayerTotals totals_;
};

}  // namespace perfbench

#endif  // PERFBENCH_REPLAY_H_
