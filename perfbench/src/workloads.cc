#include "workloads.h"

#include <bit>
#include <cmath>
#include <cstdio>
#include <map>
#include <memory>

#include "common/stopwatch.h"
#include "common/str_util.h"
#include "construct/plan_cache.h"
#include "construct/query_builder.h"
#include "logic.h"
#include "prefs/graph.h"
#include "prefs/profile.h"
#include "storage/constraints.h"
#include "workload/movie_gen.h"
#include "workload/profile_gen.h"
#include "workload/query_gen.h"

namespace perfbench {

using namespace cqp;  // NOLINT

namespace {

bool SameBits(double a, double b) {
  return std::bit_cast<uint64_t>(a) == std::bit_cast<uint64_t>(b);
}

JsonValue Num(double v) { return JsonValue::Number(v); }

}  // namespace

Answer AnswerOf(const construct::PersonalizeResult& result) {
  Answer a;
  a.final_sql = result.final_sql;
  a.feasible = result.solution.feasible;
  a.chosen.assign(result.solution.chosen.begin(),
                  result.solution.chosen.end());
  a.doi = result.solution.params.doi;
  a.cost_ms = result.solution.params.cost_ms;
  a.size = result.solution.params.size;
  return a;
}

Answer AnswerOf(const server::PersonalizeResultPayload& payload) {
  Answer a;
  a.final_sql = payload.final_sql;
  a.feasible = payload.feasible;
  a.chosen = payload.chosen;
  a.doi = payload.doi;
  a.cost_ms = payload.cost_ms;
  a.size = payload.size;
  return a;
}

std::string DiffAnswer(const Answer& got, const Answer& want) {
  if (got.final_sql != want.final_sql) {
    return "final_sql '" + got.final_sql + "' vs '" + want.final_sql + "'";
  }
  if (got.feasible != want.feasible) return "feasible differs";
  if (got.chosen != want.chosen) return "chosen set differs";
  if (!SameBits(got.doi, want.doi) || !SameBits(got.cost_ms, want.cost_ms) ||
      !SameBits(got.size, want.size)) {
    return StrFormat("doi/cost/size %.17g/%.17g/%.17g vs %.17g/%.17g/%.17g",
                     got.doi, got.cost_ms, got.size, want.doi, want.cost_ms,
                     want.size);
  }
  return "";
}

void AddEndToEndMetrics(double setup_s,
                        const std::vector<std::vector<double>>& windows,
                        double ok_per_s, RunResult& result) {
  std::optional<double> p50 = MedianOverWindows(windows, 0.50);
  std::optional<double> p90 = MedianOverWindows(windows, 0.90);
  size_t total = 0;
  size_t smallest = windows.empty() ? 0 : SIZE_MAX;
  for (const std::vector<double>& w : windows) {
    total += w.size();
    smallest = std::min(smallest, w.size());
  }
  if (!p90.has_value() || SamplesBeyond(smallest, 0.9) < 10) {
    result.Fail(StrFormat("%zu windows, smallest %zu samples: fewer than 10 "
                          "beyond p90",
                          windows.size(), smallest));
  }
  JsonValue window_p50 = JsonValue::Array();
  for (const std::vector<double>& w : windows) {
    window_p50.Append(Num(Percentile(w, 0.50, 0).value_or(0.0)));
  }
  result.record.Set("window_latency_p50_ms", std::move(window_p50));
  JsonValue samples = JsonValue::Object();
  samples.Set("latency", Num(static_cast<double>(total)));
  samples.Set("windows", Num(static_cast<double>(windows.size())));
  samples.Set("smallest_window", Num(static_cast<double>(smallest)));
  samples.Set("smallest_window_beyond_p90",
              Num(static_cast<double>(SamplesBeyond(smallest, 0.9))));
  result.record.Set("samples", std::move(samples));
  result.Add("setup_s", setup_s, "s");
  result.Add("peak_rss_mb", PeakRssMb(), "MB");
  result.Add("requests_per_s", ok_per_s, "req/s");
  result.Add("latency_p50_ms", p50.value_or(0.0), "ms");
  result.record.Set("latency_p90_ms", Num(p90.value_or(0.0)));
}

void AddLayerMetrics(const LayerTotals& cold, const LayerTotals& t,
                     const LayerTotals& untraced, const TimedRunStats& w,
                     RunResult& result) {
  const double n = static_cast<double>(t.requests);
  const double solve_ms = t.solve_us / 1e3;
  result.Add("cqp.solve_ms", Ratio(solve_ms, n), "ms");
  result.Add("cqp.states_examined", Ratio(static_cast<double>(t.states), n),
             "count");
  result.Add("cqp.states_per_s",
             Ratio(static_cast<double>(t.states), solve_ms / 1e3), "1/s");
  result.Add("cqp.degraded_ratio", Ratio(static_cast<double>(t.degraded), n),
             "ratio");
  result.Add("estimation.batch_build_us",
             Ratio(cold.batch_build_us + t.batch_build_us,
                   static_cast<double>(cold.batch_builds + t.batch_builds)),
             "us");
  result.Add("estimation.frontier_width",
             Ratio(static_cast<double>(t.frontier_states),
                   static_cast<double>(t.frontiers)),
             "count");
  result.Add("estimation.lanes_wasted_ratio",
             Ratio(static_cast<double>(t.lanes_wasted),
                   static_cast<double>(t.frontier_states + t.lanes_wasted)),
             "ratio");
  const double execs = static_cast<double>(t.executes);
  result.Add("exec.execute_ms", Ratio(t.execute_us / 1e3, execs), "ms");
  result.Add("exec.blocks_read",
             Ratio(static_cast<double>(t.blocks_read), execs), "count");
  result.Add("exec.tuples_processed",
             Ratio(static_cast<double>(t.tuples_processed), execs), "count");
  result.Add("exec.rows_returned",
             Ratio(static_cast<double>(t.rows_returned), execs), "count");
  result.Add("exec.estimate_ratio", Ratio(t.estimated_cost_ms, t.simulated_ms),
             "ratio");
  result.Add("rewrite.conjuncts_dropped",
             Ratio(static_cast<double>(t.conjuncts_dropped), n), "count");
  result.Add("rewrite.branches_eliminated",
             Ratio(static_cast<double>(t.branches_eliminated), n), "count");
  result.Add("construct.build_us", Ratio(t.build_us, n), "us");
  result.Add("sql.parse_us", Ratio(t.parse_us, n), "us");
  result.Add("sql.fingerprint_us", Ratio(t.fingerprint_us, n), "us");
  result.Add("construct.plan_cache.lookup_us",
             Ratio(t.plan_find_us, static_cast<double>(t.plan_lookups)), "us");
  result.Add("construct.plan_cache.hit_ratio",
             w.plan_hit_ratio >= 0.0
                 ? w.plan_hit_ratio
                 : Ratio(static_cast<double>(t.plan_hits),
                         static_cast<double>(t.plan_lookups)),
             "ratio");
  result.Add("construct.render_us", Ratio(t.render_us, n), "us");
  result.Add("construct.plan_cache.invalidations", w.plan_invalidations,
             "count");
  result.Add("server.server_ms_p50", w.server_ms_p50, "ms");
  result.Add("server.server_ms_p99", w.server_ms_p99, "ms");
  result.Add("server.wire_ms_p50", w.wire_ms_p50, "ms");
  result.Add("server.search_share", w.search_share, "ratio");
  result.Add("server.shed_ratio", w.shed_ratio, "ratio");
  result.Add("server.degraded_ratio", w.degraded_ratio, "ratio");
  result.Add("server.wakeups_per_request", w.wakeups_per_request, "count");
  result.Add("server.frames_per_writev", w.frames_per_writev, "count");
  result.Add("space.extract_ms",
             Ratio((cold.extract_us + t.extract_us) / 1e3,
                   static_cast<double>(cold.extracts + t.extracts)),
             "ms");
  result.Add("space.extracts_per_request",
             Ratio(static_cast<double>(t.extracts), n), "count");
  result.Add("space.for_problem_us", Ratio(t.for_problem_us, n), "us");
  result.Add("space.k_admitted", Ratio(t.k_admitted, n), "count");
  result.Add("space.prefs_pruned", Ratio(static_cast<double>(t.prefs_pruned), n),
             "count");
  result.Add("server.shard.find_us", Ratio(t.store_find_us, n), "us");
  result.Add("server.shard.page_ins_per_request", w.page_ins_per_request,
             "count");
  result.Add("server.shard.evictions", w.evictions, "count");
  result.Add("server.shard.resident_mb", w.resident_mb, "MB");
  result.Add("storage.journal.put_us",
             Ratio(t.put_us, static_cast<double>(t.puts)), "us");
  result.Add("storage.journal.fsyncs_per_put", w.fsyncs_per_put, "count");
  result.Add("storage.journal.bytes_per_put", w.bytes_per_put, "B");
  result.Add("storage.journal.compactions", w.compactions, "count");
  result.Add("bench.latency_p90_ms", w.latency_p90_ms, "ms");
  result.Add("bench.request_ms", Ratio(t.request_us / 1e3, n), "ms");
  result.Add("bench.generator_lag_p99_ms", w.generator_lag_p99_ms, "ms");
  result.Add("bench.unattributed_ratio", Ratio(t.unattributed_us, t.request_us),
             "ratio");
  result.Add("bench.trace_overhead_ratio",
             untraced.wall_us > 0.0 ? t.wall_us / untraced.wall_us - 1.0 : 0.0,
             "ratio");
  result.Add("bench.error_ratio", w.error_ratio, "ratio");
  result.Add("bench.wire_p99_ms", w.wire_p99_ms, "ms");
  result.Add("bench.wire_slo_rps", w.slo_rps, "req/s");
  result.Add("bench.put_p50_ms", w.put_p50_ms, "ms");
  result.Add("bench.put_p90_ms", w.put_p90_ms, "ms");
}

// ---------------------------------------------------------------------------
// In-process workloads: fig12_search and query_rows.

namespace {

/// Executed rows of one answer, exactly as delivered (order and doi bits).
using Rows = std::vector<std::pair<std::string, uint64_t>>;

Rows RowsOf(const exec::PersonalizedResultSet& set) {
  Rows rows;
  rows.reserve(set.rows.size());
  for (const exec::PersonalizedRow& row : set.rows) {
    rows.emplace_back(row.row.ToString(), std::bit_cast<uint64_t>(row.doi));
  }
  return rows;
}

/// The same rows as a keyed set with a doi tolerance: the optimizer may
/// regroup noisy-or terms, so optimized vs unoptimized emissions are
/// compared as sets (the rewrite layer's own equivalence rule).
std::map<std::string, double> RowSetOf(const exec::PersonalizedResultSet& s) {
  std::map<std::string, double> out;
  for (const exec::PersonalizedRow& row : s.rows) {
    out[row.row.ToString()] = row.doi;
  }
  return out;
}

struct InProcConfig {
  bool execute;          ///< query_rows: SQL text -> rows
  bool constraint_rich;  ///< mined constraints + augmented profiles
  std::string algorithm;
  ::cqp::cqp::ProblemSpec problem;
};

/// Everything one in-process run needs, built by Setup().
struct InProcWorld {
  std::unique_ptr<storage::Database> db;
  std::vector<std::unique_ptr<prefs::PersonalizationGraph>> graphs;
  std::vector<std::string> queries;
  std::vector<Answer> reference;   ///< [profile * queries + query]
  std::vector<Rows> reference_rows;  ///< query_rows only
  std::unique_ptr<construct::PlanCache> plans;

  size_t pairs() const { return graphs.size() * queries.size(); }
};

/// Appends high-doi preferences that the mined constraints make vacuous
/// (out-of-domain selections: pruned before search) or tautological
/// (implied by a domain: dropped by the rewrite passes), so that the
/// semantic rewrite layer has real work on every request.
std::string ConstraintRichProfile(const std::string& text,
                                  const catalog::ConstraintSet& constraints) {
  std::string out = text;
  double doi = 0.93;
  for (const char* attribute : {"year", "duration", "mid", "did"}) {
    auto domains = constraints.DomainsFor("MOVIE", attribute);
    if (domains.empty()) continue;
    const catalog::DomainConstraint& d = *domains[0];
    if (!d.min.has_value() || !d.max.has_value()) continue;
    long long lo = d.min->AsInt();
    long long hi = d.max->AsInt();
    for (long long offset : {37, 81}) {
      out += StrFormat("\ndoi(MOVIE.%s >= %lld) = %.2f", attribute,
                       hi + offset, doi -= 0.01);
      out += StrFormat("\ndoi(MOVIE.%s <= %lld) = %.2f", attribute,
                       lo - offset, doi -= 0.01);
    }
    if (std::string(attribute) == "year" ||
        std::string(attribute) == "duration") {
      out += StrFormat("\ndoi(MOVIE.%s >= %lld) = %.2f", attribute, lo - 5,
                       doi -= 0.01);
      out += StrFormat("\ndoi(MOVIE.%s <= %lld) = %.2f", attribute, hi + 5,
                       doi -= 0.01);
    }
  }
  return out + "\n";
}

construct::PersonalizeRequest MakeRequest(const InProcConfig& config,
                                          const InProcWorld& world,
                                          size_t pair, bool cached) {
  const size_t u = pair / world.queries.size();
  const size_t q = pair % world.queries.size();
  construct::PersonalizeRequest request;
  request.sql = world.queries[q];
  request.graph = world.graphs[u].get();
  request.problem = config.problem;
  request.algorithm = config.algorithm;
  request.space_options.max_k = 20;
  // The paper-setting caps every figure bench applies per solve.
  request.budget.max_expansions = 2'000'000;
  request.budget.max_memory_bytes = 512ull << 20;
  if (cached) {
    request.plan_cache = world.plans.get();
    request.profile_id = "p" + std::to_string(u);
    request.profile_version = 1;
  }
  return request;
}

/// The paper's evaluation setting (§7.2, scaled as in EXPERIMENTS.md):
/// 5000 movies, 5 profiles x 4 queries, K = 20.
StatusOr<InProcWorld> Setup(const InProcConfig& config) {
  workload::MovieDbConfig db_config;
  db_config.n_movies = 5000;
  db_config.n_directors = 500;
  db_config.n_actors = 1000;
  const size_t n_profiles = 5;
  workload::QueryGenConfig query_config;
  query_config.n_queries = 4;

  InProcWorld world;
  CQP_ASSIGN_OR_RETURN(storage::Database db,
                       workload::BuildMovieDatabase(db_config));
  world.db = std::make_unique<storage::Database>(std::move(db));
  if (config.constraint_rich) {
    CQP_ASSIGN_OR_RETURN(catalog::ConstraintSet mined,
                         storage::DeriveConstraints(*world.db));
    world.db->SetConstraints(std::move(mined));
  }
  for (size_t u = 0; u < n_profiles; ++u) {
    workload::ProfileGenConfig profile_config;
    profile_config.seed = 1000 + u;
    CQP_ASSIGN_OR_RETURN(prefs::Profile profile,
                         workload::GenerateProfile(profile_config, db_config));
    if (config.constraint_rich) {
      CQP_ASSIGN_OR_RETURN(
          profile, prefs::Profile::Parse(ConstraintRichProfile(
                       profile.ToText(), world.db->constraints())));
    }
    CQP_ASSIGN_OR_RETURN(
        prefs::PersonalizationGraph graph,
        prefs::PersonalizationGraph::Build(std::move(profile), *world.db));
    world.graphs.push_back(
        std::make_unique<prefs::PersonalizationGraph>(std::move(graph)));
  }
  CQP_ASSIGN_OR_RETURN(std::vector<sql::SelectQuery> queries,
                       workload::GenerateQueries(query_config, db_config));
  for (const sql::SelectQuery& q : queries) world.queries.push_back(q.ToSql());

  // References: the facade with no plan cache. Then one cached pass warms
  // the plan cache the timed loop uses.
  construct::Personalizer personalizer(world.db.get(), world.graphs[0].get());
  world.plans = std::make_unique<construct::PlanCache>();
  for (size_t pair = 0; pair < world.pairs(); ++pair) {
    CQP_ASSIGN_OR_RETURN(
        construct::PersonalizeResult result,
        personalizer.Personalize(MakeRequest(config, world, pair, false)));
    world.reference.push_back(AnswerOf(result));
    if (config.execute) {
      exec::ExecStats stats;
      CQP_ASSIGN_OR_RETURN(exec::PersonalizedResultSet rows,
                           personalizer.Execute(result, &stats));
      world.reference_rows.push_back(RowsOf(rows));
    }
  }
  for (size_t pair = 0; pair < world.pairs(); ++pair) {
    CQP_RETURN_IF_ERROR(
        personalizer.Personalize(MakeRequest(config, world, pair, true))
            .status());
  }
  return world;
}

/// For every reference solution, the optimized and the unoptimized
/// emission of the same chosen set must return the same rows.
void CheckOptimizeEquivalence(const InProcConfig& config,
                              const InProcWorld& world, RunResult& result) {
  construct::Personalizer personalizer(world.db.get(), world.graphs[0].get());
  size_t checked = 0;
  for (size_t pair = 0; pair < world.pairs(); ++pair) {
    auto r = personalizer.Personalize(MakeRequest(config, world, pair, false));
    if (!r.ok()) {
      result.Fail("equivalence personalize: " + r.status().ToString());
      continue;
    }
    construct::BuildOptions unopt_options;
    unopt_options.optimize = false;
    auto unopt = construct::BuildPersonalizedQuery(
        *world.db, r->space->query, r->space->prefs,
        r->solution.feasible ? r->solution.chosen : IndexSet(), unopt_options);
    if (!unopt.ok()) {
      result.Fail("unoptimized build: " + unopt.status().ToString());
      continue;
    }
    construct::PersonalizeResult unopt_result = *r;
    unopt_result.personalized = *std::move(unopt);
    exec::ExecStats stats;
    auto rows_opt = personalizer.Execute(*r, &stats);
    auto rows_unopt = personalizer.Execute(unopt_result, &stats);
    if (!rows_opt.ok() || !rows_unopt.ok()) {
      result.Fail("equivalence execute failed");
      continue;
    }
    auto a = RowSetOf(*rows_opt);
    auto b = RowSetOf(*rows_unopt);
    bool same = a.size() == b.size();
    for (auto ia = a.begin(), ib = b.begin(); same && ia != a.end();
         ++ia, ++ib) {
      same = ia->first == ib->first && std::fabs(ia->second - ib->second) <=
                                           1e-9;
    }
    if (!same) {
      result.Fail(StrFormat("pair %zu: optimized rows differ from "
                            "unoptimized rows",
                            pair));
    }
    ++checked;
  }
  result.record.Set("optimize_equivalence_checked",
                    Num(static_cast<double>(checked)));
}

/// Replays `sequence` (pair indices) untraced, then traced, each after a
/// cold pass over every pair, and appends the per-layer metrics.
void ReplayInProcess(const Options& options, const InProcConfig& config,
                     const InProcWorld& world,
                     const std::vector<size_t>& sequence,
                     const TimedRunStats& timed, RunResult& result) {
  auto make_read = [&](size_t pair) {
    const size_t u = pair / world.queries.size();
    ReplayRead read;
    read.profile_id = "p" + std::to_string(u);
    read.graph = world.graphs[u].get();
    read.sql = world.queries[pair % world.queries.size()];
    read.problem = config.problem;
    read.algorithm = config.algorithm;
    read.budget = MakeRequest(config, world, pair, false).budget;
    read.execute = config.execute;
    read.expected_final_sql = world.reference[pair].final_sql;
    return read;
  };
  auto pass = [&](Tracer* tracer, size_t limit, LayerTotals* cold,
                  LayerTotals* measured) {
    Replayer replayer(world.db.get(), nullptr, tracer);
    for (size_t pair = 0; pair < world.pairs(); ++pair) {
      std::string diff = replayer.Read(make_read(pair));
      if (!diff.empty()) result.Fail("replay: " + diff);
    }
    *cold = replayer.totals();
    replayer.ResetTotals();
    Stopwatch clock;
    size_t done = 0;
    for (; done < sequence.size() && done < limit; ++done) {
      if (tracer == nullptr && clock.ElapsedSeconds() > kReplaySeconds) break;
      std::string diff = replayer.Read(make_read(sequence[done]));
      if (!diff.empty()) result.Fail("replay: " + diff);
    }
    *measured = replayer.totals();
    return done;
  };
  LayerTotals cold_untraced, untraced, cold, traced;
  size_t replayed = pass(nullptr, sequence.size(), &cold_untraced, &untraced);
  Tracer tracer;
  pass(&tracer, replayed, &cold, &traced);

  AddLayerMetrics(cold, traced, untraced, timed, result);
  result.record.Set("replayed_requests", Num(static_cast<double>(replayed)));
  std::string spans = options.out_dir + "/" + options.workload + "-s" +
                      std::to_string(options.seed) + ".spans.jsonl";
  if (!tracer.WriteJsonl(spans)) result.Fail("cannot write " + spans);
  result.record.Set("spans_file", JsonValue::Str(spans));
}

RunResult RunInProcess(const Options& options, const InProcConfig& config) {
  RunResult result;
  std::vector<double> setup_s;
  StatusOr<InProcWorld> world = Internal("no setup ran");
  for (size_t i = 0; i < kSetupRepeats; ++i) {
    world = Internal("replaced");  // free the previous world first
    Stopwatch timer;
    world = Setup(config);
    setup_s.push_back(timer.ElapsedSeconds());
    if (!world.ok()) {
      result.Fail("setup: " + world.status().ToString());
      result.attempted = 1;
      result.failed = 1;
      return result;
    }
  }
  if (config.execute) CheckOptimizeEquivalence(config, *world, result);

  construct::Personalizer personalizer(world->db.get(),
                                       world->graphs[0].get());
  Rng rng(options.seed);
  std::vector<size_t> order;
  std::vector<size_t> sequence;
  std::vector<double> latency_ms;
  size_t ok = 0;
  size_t degraded = 0;
  std::map<std::string, uint64_t> errors;  ///< failed requests by kind
  // A window is the fewest whole rounds (each a seeded permutation of every
  // pair) that leave p90 ten samples beyond it. Only whole windows are run,
  // so every pair weighs the same in every window.
  const size_t window_size =
      (MinSamplesFor(0.90) + world->pairs() - 1) / world->pairs() *
      world->pairs();
  Stopwatch run;
  while (!order.empty() || run.ElapsedSeconds() < options.seconds ||
         latency_ms.size() % window_size != 0) {
    if (order.empty()) order = Permutation(world->pairs(), rng);
    const size_t pair = order.back();
    order.pop_back();
    construct::PersonalizeRequest request =
        MakeRequest(config, *world, pair, true);

    Stopwatch timer;
    StatusOr<construct::PersonalizeResult> answer =
        personalizer.Personalize(request);
    StatusOr<exec::PersonalizedResultSet> rows =
        Internal("not executed");
    exec::ExecStats stats;
    if (answer.ok() && config.execute) {
      rows = personalizer.Execute(*answer, &stats);
    }
    const double seconds = timer.ElapsedSeconds();

    sequence.push_back(pair);
    ++result.attempted;
    std::string diff;
    if (!answer.ok()) {
      diff = answer.status().ToString();
      ++errors[StatusCodeName(answer.status().code())];
    } else if (config.execute && !rows.ok()) {
      diff = rows.status().ToString();
      ++errors[StatusCodeName(rows.status().code())];
    } else {
      diff = DiffAnswer(AnswerOf(*answer), world->reference[pair]);
      if (diff.empty() && config.execute &&
          RowsOf(*rows) != world->reference_rows[pair]) {
        diff = "rows differ from the reference rows";
      }
      if (!diff.empty()) ++errors["mismatch"];
    }
    if (!diff.empty()) {
      ++result.failed;
      result.Fail(StrFormat("pair %zu: %s", pair, diff.c_str()));
      latency_ms.push_back(std::numeric_limits<double>::infinity());
      continue;
    }
    ++ok;
    if (answer->degraded()) ++degraded;
    latency_ms.push_back(seconds * 1e3);
  }

  JsonValue params = JsonValue::Object();
  params.Set("loop", JsonValue::Str("closed, 1 caller"));
  params.Set("movies", Num(5000));
  params.Set("profiles", Num(static_cast<double>(world->graphs.size())));
  params.Set("queries", Num(static_cast<double>(world->queries.size())));
  params.Set("k", Num(20));
  params.Set("algorithm", JsonValue::Str(config.algorithm));
  params.Set("problem", JsonValue::Str(config.problem.ToString()));
  params.Set("plan_cache", JsonValue::Str("warm"));
  params.Set("constraint_rich", JsonValue::Bool(config.constraint_rich));
  params.Set("execute", JsonValue::Bool(config.execute));
  params.Set("setup_repeats", Num(kSetupRepeats));
  result.record.Set("workload_parameters", std::move(params));
  JsonValue accounting = JsonValue::Object();
  accounting.Set("attempted", Num(static_cast<double>(result.attempted)));
  accounting.Set("ok", Num(static_cast<double>(ok)));
  accounting.Set("failed", Num(static_cast<double>(result.failed)));
  accounting.Set("degraded", Num(static_cast<double>(degraded)));
  JsonValue by_kind = JsonValue::Object();
  for (const auto& [kind, n] : errors) {
    by_kind.Set(kind, Num(static_cast<double>(n)));
  }
  accounting.Set("errors", std::move(by_kind));
  result.record.Set("accounting", std::move(accounting));

  // Windows of consecutive requests: a slow spell of a shared machine that
  // covers less than half of them barely moves a median over windows.
  const std::vector<std::vector<double>> windows =
      ConsecutiveWindows(latency_ms, window_size);
  if (!options.trace) {
    AddEndToEndMetrics(Median(setup_s), windows,
                       MedianRateOverWindows(windows), result);
  } else {
    TimedRunStats timed;
    timed.latency_p90_ms = MedianOverWindows(windows, 0.90).value_or(0.0);
    ReplayInProcess(options, config, *world, sequence, timed, result);
  }
  return result;
}

}  // namespace

RunResult RunFig12Search(const Options& options) {
  InProcConfig config{/*execute=*/false,
                      /*constraint_rich=*/false, "C-Boundaries",
                      ::cqp::cqp::ProblemSpec::Problem2(400.0)};
  return RunInProcess(options, config);
}

RunResult RunQueryRows(const Options& options) {
  InProcConfig config{/*execute=*/true,
                      /*constraint_rich=*/true, "D-HeurDoi",
                      ::cqp::cqp::ProblemSpec::Problem2(120.0)};
  return RunInProcess(options, config);
}

}  // namespace perfbench
