#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

// The four workloads. Each is chosen so that one layer does most of the
// work (see perfbench/README.md for the layer -> metric map):
//   fig12_search   in-process, closed loop, 1 caller — cqp + estimation
//   query_rows     in-process, closed loop, 1 caller — exec + rewrite
//   wire_zipf      loopback server, open loop        — server, sql, plan cache
//   profile_churn  wire_zipf plus durable Puts       — space, shard, journal

#include <string>
#include <vector>

#include "construct/personalizer.h"
#include "env.h"
#include "replay.h"
#include "server/protocol.h"

namespace perfbench {

/// Set-ups per run; setup_s is their median.
inline constexpr size_t kSetupRepeats = 3;
/// The untraced replay stops after this long; the traced one replays the
/// same requests, which keeps a traced run well inside its time limit.
inline constexpr double kReplaySeconds = 3.0;

inline double Ratio(double num, double den) {
  return den > 0.0 ? num / den : 0.0;
}

RunResult RunFig12Search(const Options& options);
RunResult RunQueryRows(const Options& options);
RunResult RunWireZipf(const Options& options);
RunResult RunProfileChurn(const Options& options);

/// The fields a correct answer must reproduce bit for bit.
struct Answer {
  std::string final_sql;
  bool feasible = false;
  std::vector<int32_t> chosen;
  double doi = 0.0;
  double cost_ms = 0.0;
  double size = 0.0;
};
Answer AnswerOf(const cqp::construct::PersonalizeResult& result);
Answer AnswerOf(const cqp::server::PersonalizeResultPayload& payload);
/// "" when identical, else the first difference.
std::string DiffAnswer(const Answer& got, const Answer& want);

/// Figures of the timed run that a traced run reports per layer. All but
/// latency_p90_ms exist only on the wire workloads (zero in-process).
struct TimedRunStats {
  double latency_p90_ms = 0.0;  ///< same windows as latency_p50_ms
  double server_ms_p50 = 0.0;
  double server_ms_p99 = 0.0;
  double wire_ms_p50 = 0.0;
  double search_share = 0.0;
  double shed_ratio = 0.0;
  double degraded_ratio = 0.0;
  double wakeups_per_request = 0.0;
  double frames_per_writev = 0.0;
  double plan_hit_ratio = -1.0;  ///< < 0: use the replay's own plan cache
  double plan_invalidations = 0.0;
  double page_ins_per_request = 0.0;
  double evictions = 0.0;
  double resident_mb = 0.0;
  double fsyncs_per_put = 0.0;
  double bytes_per_put = 0.0;
  double compactions = 0.0;
  double generator_lag_p99_ms = 0.0;
  double wire_p99_ms = 0.0;
  double slo_rps = 0.0;
  double put_p50_ms = 0.0;
  double put_p90_ms = 0.0;
  double error_ratio = 0.0;
};

/// Appends every per-layer metric. `traced` and `untraced` are the two
/// replays of the same request sequence; `cold` is the traced warm-up pass
/// before it, where preference spaces are extracted and batch evaluators
/// built (both are averaged over cold and measured passes).
void AddLayerMetrics(const LayerTotals& cold, const LayerTotals& traced,
                     const LayerTotals& untraced, const TimedRunStats& wire,
                     RunResult& result);

/// Appends the end-to-end metrics shared by every workload. `windows`
/// holds one latency sample per attempted primary request (inf = failed),
/// grouped into the run's windows: whole rounds of consecutive requests for
/// the closed loops, one-second windows of due time for the open loops. The
/// latency percentiles are medians over windows; each window's median is
/// also recorded.
void AddEndToEndMetrics(double setup_s,
                        const std::vector<std::vector<double>>& windows,
                        double ok_per_s, RunResult& result);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
