#include "construct/personalizer.h"

#include <bit>
#include <optional>
#include <utility>

#include "common/failpoint.h"
#include "common/stopwatch.h"
#include "common/str_util.h"
#include "common/thread_pool.h"
#include "estimation/batch_evaluator.h"
#include "exec/executor.h"
#include "sql/fingerprint.h"
#include "sql/parser.h"

namespace cqp::construct {

const char* FallbackRungName(FallbackRung rung) {
  switch (rung) {
    case FallbackRung::kPrimary:
      return "Primary";
    case FallbackRung::kHeuristic:
      return "Heuristic";
    case FallbackRung::kTopK:
      return "TopK";
    case FallbackRung::kOriginal:
      return "Original";
  }
  return "Unknown";
}

Personalizer::Personalizer(const storage::Database* db,
                           const prefs::PersonalizationGraph* graph,
                           exec::CostModelParams cost_params)
    : db_(db), graph_(graph), cost_params_(cost_params) {
  CQP_CHECK(db_ != nullptr);
  CQP_CHECK(graph_ != nullptr);
}

namespace {

/// A solver rung's outcome is *accepted* when the search finished with a
/// usable answer: a feasible solution (possibly degraded), or a clean
/// completion proving infeasibility. An exhausted search that found nothing
/// feasible proves nothing — the ladder descends.
bool AcceptRung(const cqp::Solution& solution, const cqp::SearchContext& ctx) {
  return solution.feasible || !ctx.exhausted();
}

std::string DescribeAttempt(const std::string& name, const Status& status,
                            const cqp::Solution& solution,
                            const cqp::SearchContext& ctx) {
  if (!status.ok()) return name + ": " + status.ToString();
  std::string out = name + ": ";
  out += solution.feasible ? "feasible" : "infeasible";
  if (ctx.exhausted()) {
    out += std::string(" (budget: ") + BudgetExhaustionName(ctx.exhaustion()) +
           ")";
  }
  return out;
}

/// The TopK rung: evaluate the doi-descending prefixes {p1}, {p1,p2}, ... of
/// P (P is doi-sorted) and keep the best feasible one. O(K) evaluations —
/// cheap enough to run under an almost-spent budget, and the natural
/// "integrate the top preferences that still fit" degradation.
cqp::Solution GreedyTopK(const space::PreferenceSpaceResult& space,
                         const cqp::ProblemSpec& problem,
                         cqp::SearchContext& ctx) {
  estimation::StateEvaluator evaluator = space.MakeEvaluator();
  cqp::Solution best;
  best.feasible = false;
  best.params = evaluator.EmptyState();
  estimation::StateParams params = evaluator.EmptyState();
  std::vector<int32_t> prefix;
  prefix.reserve(evaluator.K());
  for (size_t i = 0; i < evaluator.K(); ++i) {
    if (ctx.ShouldStop()) break;
    params = evaluator.ExtendWith(params, static_cast<int32_t>(i));
    ++ctx.metrics.states_examined;
    prefix.push_back(static_cast<int32_t>(i));
    if (problem.IsFeasible(params) &&
        (!best.feasible || problem.Better(params, best.params))) {
      best.feasible = true;
      best.chosen = IndexSet::FromUnsorted(prefix);
      best.params = params;
    }
  }
  best.degraded = true;  // a fallback answer is degraded by definition
  return best;
}

/// The terminal rung: the unpersonalized original query (empty preference
/// subset), delivered with an OK status no matter what failed above.
cqp::Solution OriginalQuerySolution() {
  cqp::Solution s;
  s.feasible = false;
  s.degraded = true;
  return s;
}

/// The K=0 space a result falls back to when extraction itself failed, so
/// PersonalizeResult::space is never null. Shared process-wide (immutable).
std::shared_ptr<const space::PreferenceSpaceResult> EmptySpace() {
  static const auto* empty =
      new std::shared_ptr<const space::PreferenceSpaceResult>(
          std::make_shared<const space::PreferenceSpaceResult>());
  return *empty;
}

std::string DoubleBits(double v) {
  return StrFormat(
      "%llx", static_cast<unsigned long long>(std::bit_cast<uint64_t>(v)));
}

/// Plan-cache config key: every knob extraction (and hence the cached
/// artifact) depends on besides query and profile. Exact bit patterns, so
/// "almost equal" configs never share an entry. The constraint-set revision
/// joins the key because the pre-search pruning pass consults the
/// constraints: SetConstraints() bumps the revision and all prior entries
/// (extracted under the old constraints) become unreachable.
std::string PlanConfigKey(const exec::CostModelParams& cost,
                          const space::PreferenceSpaceOptions& options,
                          uint64_t constraint_revision) {
  return StrFormat("b%s:t%s:k%zu:j%zu:p%d:c%d:d%s:v%d:x%d:r%llu",
                   DoubleBits(cost.millis_per_block).c_str(),
                   DoubleBits(cost.micros_per_tuple).c_str(), options.max_k,
                   options.max_path_joins,
                   static_cast<int>(options.path_composition),
                   static_cast<int>(options.conjunction_model),
                   DoubleBits(options.min_doi).c_str(),
                   options.build_cost_size_vectors ? 1 : 0,
                   options.constraint_prune ? 1 : 0,
                   static_cast<unsigned long long>(constraint_revision));
}

}  // namespace

StatusOr<Personalizer::ResolvedAlgorithm> Personalizer::ResolveAlgorithm(
    const PersonalizeRequest& request) const {
  CQP_RETURN_IF_ERROR(request.problem.Validate());
  ResolvedAlgorithm resolved;
  resolved.doi_objective =
      request.problem.objective == cqp::Objective::kMaximizeDoi;
  // "auto": the exact boundary algorithm for doi maximization, the exact
  // branch-and-bound for cost minimization.
  resolved.name = request.algorithm;
  if (EqualsIgnoreCase(resolved.name, "auto")) {
    resolved.name = resolved.doi_objective ? "C-Boundaries" : "MinCost-BB";
  }
  CQP_ASSIGN_OR_RETURN(resolved.algorithm, cqp::GetAlgorithm(resolved.name));
  if (!resolved.algorithm->Supports(request.problem)) {
    return FailedPrecondition(std::string(resolved.algorithm->name()) +
                              " does not support problem: " +
                              request.problem.ToString());
  }
  return resolved;
}

StatusOr<PreparedQuery> Personalizer::PrepareParsed(
    sql::SelectQuery query, const PersonalizeRequest& request) const {
  PreparedQuery prepared;
  prepared.query = std::move(query);
  prepared.fingerprint = sql::QueryFingerprint(prepared.query);

  // Effective extraction options: the pruning pass reads the database's
  // constraint set, and disable_rewrite turns the pass off wholesale.
  space::PreferenceSpaceOptions space_options = request.space_options;
  space_options.constraints = &db_->constraints();
  space_options.constraint_prune =
      space_options.constraint_prune && !request.disable_rewrite;

  PlanCache::Key key;
  if (request.plan_cache != nullptr) {
    key.query_fingerprint = prepared.fingerprint;
    key.profile_id = request.profile_id;
    key.profile_version = request.profile_version;
    key.config = PlanConfigKey(cost_params_, space_options,
                               db_->constraint_revision());
    if (auto cached = request.plan_cache->Find(key)) {
      prepared.space = std::move(cached);
      prepared.cache_hit = true;
      return prepared;
    }
  }

  const prefs::PersonalizationGraph& graph =
      request.graph != nullptr ? *request.graph : *graph_;
  estimation::ParameterEstimator estimator(db_, cost_params_);
  CQP_ASSIGN_OR_RETURN(space::PreferenceSpaceResult extracted,
                       space::ExtractPreferenceSpace(
                           prepared.query, graph, estimator, space_options));
  prepared.space = space::PreparedSpace::Create(std::move(extracted));
  if (request.plan_cache != nullptr) {
    request.plan_cache->Insert(key, prepared.space);
  }
  return prepared;
}

StatusOr<PreparedQuery> Personalizer::Prepare(
    const PersonalizeRequest& request) const {
  sql::SelectQuery query = request.query;
  if (query.from.empty()) {
    CQP_ASSIGN_OR_RETURN(query, sql::ParseSelect(request.sql));
  }
  return PrepareParsed(std::move(query), request);
}

StatusOr<PersonalizeResult> Personalizer::Solve(
    const PreparedQuery& prepared, const PersonalizeRequest& request) const {
  CQP_CHECK(prepared.space != nullptr);
  CQP_ASSIGN_OR_RETURN(ResolvedAlgorithm resolved, ResolveAlgorithm(request));
  return SolveResolved(prepared, request, resolved);
}

StatusOr<PersonalizeResult> Personalizer::SolveResolved(
    const PreparedQuery& prepared, const PersonalizeRequest& request,
    const ResolvedAlgorithm& resolved) const {
  const bool fallback = request.fallback.enabled;
  const cqp::Algorithm* algorithm = resolved.algorithm;

  PersonalizeResult result;
  result.plan_cache_hit = prepared.cache_hit;
  // The problem-dependent view of the shared artifact: preferences pruned by
  // the monotone cmax/smin bounds are gone and survivors are reindexed, so
  // every algorithm — and Solution::chosen — sees exactly the space the
  // single-problem extraction used to produce.
  result.space = prepared.space->ForProblem(request.problem);
  const space::PreferenceSpaceResult& view = *result.space;

  cqp::SearchContext ctx(request.budget);
  ctx.allow_batch_eval = !request.disable_batch_eval;
  // The shared SoA artifact rides on the PreparedSpace next to the view it
  // was built over (same ProblemPruneKey memo), so its prefs_identity()
  // matches `view` and every rung below can trust it.
  std::shared_ptr<const estimation::BatchEvaluator> shared_batch;
  if (ctx.allow_batch_eval) {
    shared_batch = prepared.space->BatchForProblem(request.problem);
    ctx.batch_eval = shared_batch.get();
  }
  bool answered = false;

  // ---- Rung 1: the requested algorithm ----
  {
    auto primary = [&]() -> StatusOr<cqp::Solution> {
      CQP_FAILPOINT("cqp.solve");
      return algorithm->Solve(view, request.problem, ctx);
    };
    StatusOr<cqp::Solution> solved = primary();
    if (!fallback) {
      CQP_RETURN_IF_ERROR(solved.status());
      result.solution = *std::move(solved);
      result.metrics = ctx.metrics;
      answered = true;
    } else {
      cqp::Solution solution = solved.ok() ? *solved : cqp::Solution{};
      result.attempts.push_back(DescribeAttempt(
          algorithm->name(), solved.status(), solution, ctx));
      if (solved.ok() && AcceptRung(solution, ctx)) {
        result.solution = std::move(solution);
        result.metrics = ctx.metrics;
        result.rung = FallbackRung::kPrimary;
        answered = true;
      }
    }
  }

  // ---- Rung 2: a cheap heuristic for the same objective ----
  if (!answered) {
    std::string heuristic_name = request.fallback.heuristic;
    if (heuristic_name.empty()) {
      heuristic_name =
          resolved.doi_objective ? "D-HeurDoi" : "MinCost-Greedy";
    }
    StatusOr<const cqp::Algorithm*> heuristic =
        cqp::GetAlgorithm(heuristic_name);
    if (heuristic.ok() && !EqualsIgnoreCase(heuristic_name, resolved.name) &&
        (*heuristic)->Supports(request.problem)) {
      ctx.ResetForRetry();
      StatusOr<cqp::Solution> solved =
          (*heuristic)->Solve(view, request.problem, ctx);
      cqp::Solution solution = solved.ok() ? *solved : cqp::Solution{};
      result.attempts.push_back(DescribeAttempt(
          (*heuristic)->name(), solved.status(), solution, ctx));
      if (solved.ok() && AcceptRung(solution, ctx)) {
        solution.degraded = true;  // not the requested algorithm's answer
        result.solution = std::move(solution);
        result.metrics = ctx.metrics;
        result.rung = FallbackRung::kHeuristic;
        answered = true;
      }
    } else {
      result.attempts.push_back(heuristic_name + ": skipped (unavailable)");
    }
  }

  // ---- Rung 3: greedy top-k prefix of P by doi ----
  if (!answered) {
    ctx.ResetForRetry();
    cqp::Solution solution = GreedyTopK(view, request.problem, ctx);
    result.attempts.push_back(
        DescribeAttempt("top-k", Status::OK(), solution, ctx));
    if (solution.feasible) {
      result.solution = std::move(solution);
      result.metrics = ctx.metrics;
      result.rung = FallbackRung::kTopK;
      answered = true;
    }
  }

  // ---- Rung 4: the original query, always ----
  if (!answered) {
    result.attempts.push_back("original: returned unpersonalized query");
    result.solution = OriginalQuerySolution();
    result.metrics = ctx.metrics;
    result.rung = FallbackRung::kOriginal;
  }

  BuildOptions build_options = request.build_options;
  build_options.optimize = build_options.optimize && !request.disable_rewrite;
  CQP_ASSIGN_OR_RETURN(
      result.personalized,
      BuildPersonalizedQuery(*db_, prepared.query, view.prefs,
                             result.solution.feasible ? result.solution.chosen
                                                      : IndexSet(),
                             build_options));
  result.final_sql = result.personalized.ToSql();
  return result;
}

StatusOr<PersonalizeResult> Personalizer::Personalize(
    const PersonalizeRequest& request) const {
  sql::SelectQuery query = request.query;
  if (query.from.empty()) {
    CQP_ASSIGN_OR_RETURN(query, sql::ParseSelect(request.sql));
  }
  CQP_ASSIGN_OR_RETURN(ResolvedAlgorithm resolved, ResolveAlgorithm(request));

  StatusOr<PreparedQuery> prepared = PrepareParsed(query, request);
  if (prepared.ok()) {
    return SolveResolved(*prepared, request, resolved);
  }
  if (!request.fallback.enabled) return prepared.status();

  // No preference space — nothing any solver rung could search. Straight
  // to the terminal rung.
  PersonalizeResult result;
  result.space = EmptySpace();
  result.attempts.push_back("extract: " + prepared.status().ToString());
  result.solution = OriginalQuerySolution();
  result.rung = FallbackRung::kOriginal;
  BuildOptions build_options = request.build_options;
  build_options.optimize = build_options.optimize && !request.disable_rewrite;
  CQP_ASSIGN_OR_RETURN(
      result.personalized,
      BuildPersonalizedQuery(*db_, query, result.space->prefs, IndexSet(),
                             build_options));
  result.final_sql = result.personalized.ToSql();
  return result;
}

BatchResult Personalizer::PersonalizeBatch(
    const std::vector<PersonalizeRequest>& requests,
    const BatchOptions& options) const {
  Stopwatch batch_timer;
  const size_t n = requests.size();
  BatchResult batch;
  batch.latencies_ms.assign(n, 0.0);
  // StatusOr has no default constructor; optional slots let workers move
  // their answer into a pre-sized vector. Each worker writes only slot i
  // and latencies_ms[i], so no synchronization beyond WaitAll is needed.
  std::vector<std::optional<StatusOr<PersonalizeResult>>> slots(n);
  {
    ThreadPool pool(options.num_threads);
    for (size_t i = 0; i < n; ++i) {
      pool.Submit([this, &requests, &slots, &batch, i] {
        Stopwatch timer;
        slots[i].emplace(Personalize(requests[i]));
        batch.latencies_ms[i] = timer.ElapsedMillis();
      });
    }
    pool.WaitAll();
  }
  batch.results.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    CQP_CHECK(slots[i].has_value());
    if (slots[i]->ok()) {
      const PersonalizeResult& r = **slots[i];
      batch.states_examined += r.metrics.states_examined;
      batch.frontiers_evaluated += r.metrics.frontiers_evaluated;
      batch.frontier_states += r.metrics.frontier_states;
      if (r.plan_cache_hit) ++batch.plan_cache_hits;
      if (r.degraded()) ++batch.degraded;
    }
    batch.results.push_back(*std::move(slots[i]));
  }
  batch.wall_ms = batch_timer.ElapsedMillis();
  return batch;
}

StatusOr<exec::PersonalizedResultSet> Personalizer::Execute(
    const PersonalizeResult& result, exec::ExecStats* stats) const {
  exec::Executor executor(db_, cost_params_);
  if (result.personalized.subqueries.empty()) {
    // No preference integrated: run the (canonicalized) original query.
    CQP_ASSIGN_OR_RETURN(exec::RowSet rows,
                         executor.Execute(result.personalized.base, stats));
    exec::PersonalizedResultSet out;
    out.column_names = rows.column_names();
    out.rows.reserve(rows.row_count());
    for (const storage::Tuple& row : rows.rows()) {
      out.rows.push_back(exec::PersonalizedRow{row, IndexSet(), 0.0});
    }
    return out;
  }
  CQP_ASSIGN_OR_RETURN(
      exec::PersonalizedResultSet rows,
      exec::ExecutePersonalized(executor, result.personalized.subqueries,
                                result.personalized.dois,
                                exec::CombineMode::kIntersection, stats));
  // A LIMIT on the original query caps the doi-ranked delivery.
  if (result.personalized.base.limit.has_value()) {
    size_t cap = static_cast<size_t>(*result.personalized.base.limit);
    if (rows.rows.size() > cap) rows.rows.resize(cap);
  }
  return rows;
}

}  // namespace cqp::construct
