#include "replay.h"

#include "common/stopwatch.h"
#include "construct/personalizer.h"
#include "construct/query_builder.h"
#include "cqp/algorithm.h"
#include "cqp/search_context.h"
#include "estimation/batch_evaluator.h"
#include "estimation/estimate.h"
#include "space/preference_space.h"
#include "space/prepared_space.h"
#include "sql/fingerprint.h"
#include "sql/parser.h"

namespace perfbench {

using namespace cqp;  // NOLINT

Replayer::Replayer(const storage::Database* db, server::ProfileStore* store,
                   Tracer* tracer)
    : db_(db), store_(store), tracer_(tracer), plans_(4096) {}

std::string Replayer::Read(const ReplayRead& read) {
  Stopwatch wall;
  LayerTotals& t = totals_;
  if (tracer_ != nullptr) tracer_->set_request(next_request_);
  ++next_request_;
  ScopedSpan root(tracer_, "request");

  const prefs::PersonalizationGraph* graph = read.graph;
  uint64_t version = read.profile_version;
  server::ProfileStore::Snapshot snapshot;
  if (store_ != nullptr) {
    ScopedSpan span(tracer_, "ProfileStore::FindSnapshot");
    snapshot = store_->FindSnapshot(read.profile_id);
    t.store_find_us += span.Close();
    if (snapshot.graph == nullptr) return "no profile " + read.profile_id;
    graph = snapshot.graph.get();
    version = snapshot.version;
  }

  StatusOr<sql::SelectQuery> query = [&] {
    ScopedSpan span(tracer_, "sql::ParseSelect");
    auto parsed = sql::ParseSelect(read.sql);
    t.parse_us += span.Close();
    return parsed;
  }();
  if (!query.ok()) return "parse: " + query.status().ToString();

  uint64_t fingerprint = 0;
  {
    ScopedSpan span(tracer_, "sql::QueryFingerprint");
    fingerprint = sql::QueryFingerprint(*query);
    t.fingerprint_us += span.Close();
  }

  space::PreferenceSpaceOptions space_options;
  space_options.max_k = read.max_k;
  space_options.constraints = &db_->constraints();
  construct::PlanCache::Key key;
  key.query_fingerprint = fingerprint;
  key.profile_id = read.profile_id;
  key.profile_version = version;
  key.config = "k" + std::to_string(read.max_k) + ":r" +
               std::to_string(db_->constraint_revision());

  std::shared_ptr<const space::PreparedSpace> prepared;
  {
    ScopedSpan span(tracer_, "PlanCache::Find");
    prepared = plans_.Find(key);
    t.plan_find_us += span.Close();
  }
  ++t.plan_lookups;
  const bool fresh = prepared == nullptr;
  if (fresh) {
    StatusOr<space::PreferenceSpaceResult> extracted = [&] {
      ScopedSpan span(tracer_, "space::ExtractPreferenceSpace");
      estimation::ParameterEstimator estimator(db_);
      auto result =
          space::ExtractPreferenceSpace(*query, *graph, estimator,
                                        space_options);
      t.extract_us += span.Close();
      return result;
    }();
    if (!extracted.ok()) return "extract: " + extracted.status().ToString();
    ++t.extracts;
    {
      ScopedSpan span(tracer_, "PreparedSpace::Create");
      prepared = space::PreparedSpace::Create(*std::move(extracted));
    }
    ScopedSpan span(tracer_, "PlanCache::Insert");
    plans_.Insert(key, prepared);
  } else {
    ++t.plan_hits;
  }

  std::shared_ptr<const space::PreferenceSpaceResult> view;
  {
    ScopedSpan span(tracer_, "PreparedSpace::ForProblem");
    view = prepared->ForProblem(read.problem);
    t.for_problem_us += span.Close();
  }
  std::shared_ptr<const estimation::BatchEvaluator> batch;
  {
    ScopedSpan span(tracer_, "PreparedSpace::BatchForProblem");
    batch = prepared->BatchForProblem(read.problem);
    double us = span.Close();
    t.batch_us += us;
    if (fresh) {
      t.batch_build_us += us;
      ++t.batch_builds;
    }
  }
  t.k_admitted += static_cast<double>(view->K());
  t.prefs_pruned += view->constraint_pruned;

  StatusOr<const ::cqp::cqp::Algorithm*> algorithm =
      ::cqp::cqp::GetAlgorithm(read.algorithm);
  if (!algorithm.ok()) return "algorithm: " + algorithm.status().ToString();
  ::cqp::cqp::SearchContext ctx(read.budget);
  ctx.batch_eval = batch.get();
  StatusOr<::cqp::cqp::Solution> solution = [&] {
    ScopedSpan span(tracer_, "Algorithm::Solve");
    auto solved = (*algorithm)->Solve(*view, read.problem, ctx);
    t.solve_us += span.Close();
    return solved;
  }();
  if (!solution.ok()) return "solve: " + solution.status().ToString();
  t.states += ctx.metrics.states_examined;
  t.frontiers += ctx.metrics.frontiers_evaluated;
  t.frontier_states += ctx.metrics.frontier_states;
  t.lanes_wasted += ctx.metrics.frontier_lanes_wasted;
  if (solution->degraded || ctx.exhausted()) ++t.degraded;

  construct::PersonalizeResult result;
  {
    ScopedSpan span(tracer_, "BuildPersonalizedQuery");
    auto built = construct::BuildPersonalizedQuery(
        *db_, *query, view->prefs,
        solution->feasible ? solution->chosen : IndexSet());
    t.build_us += span.Close();
    if (!built.ok()) return "build: " + built.status().ToString();
    result.personalized = *std::move(built);
  }
  t.conjuncts_dropped += result.personalized.rewrite.conjuncts_dropped;
  t.branches_eliminated += result.personalized.rewrite.branches_eliminated();
  {
    ScopedSpan span(tracer_, "PersonalizedQuery::ToSql");
    result.final_sql = result.personalized.ToSql();
    t.render_us += span.Close();
  }

  if (read.execute) {
    construct::Personalizer personalizer(db_, graph);
    exec::ExecStats stats;
    ScopedSpan span(tracer_, "Personalizer::Execute");
    auto rows = personalizer.Execute(result, &stats);
    t.execute_us += span.Close();
    if (!rows.ok()) return "execute: " + rows.status().ToString();
    ++t.executes;
    t.blocks_read += stats.blocks_read;
    t.tuples_processed += stats.tuples_processed;
    t.rows_returned += rows->rows.size();
    t.estimated_cost_ms += solution->feasible ? solution->params.cost_ms
                                              : view->base.cost_ms;
    t.simulated_ms += stats.SimulatedMillis(exec::CostModelParams());
  }

  double root_us = root.Close();
  if (tracer_ != nullptr) {
    t.request_us += root_us;
    const std::vector<Span>& spans = tracer_->spans();
    double covered = 0.0;
    for (size_t i = spans.size(); i-- > 0;) {
      if (spans[i].request != next_request_ - 1) break;
      if (spans[i].parent >= 0 &&
          spans[static_cast<size_t>(spans[i].parent)].parent == -1) {
        covered += spans[i].end_us - spans[i].start_us;
      }
    }
    t.unattributed_us += root_us - covered;
  }
  ++t.requests;
  t.wall_us += wall.ElapsedMicros();

  if (result.final_sql != read.expected_final_sql) {
    return "replayed final_sql differs: '" + result.final_sql + "' vs '" +
           read.expected_final_sql + "'";
  }
  return "";
}

std::string Replayer::Put(const std::string& id, prefs::Profile profile) {
  Stopwatch wall;
  if (tracer_ != nullptr) tracer_->set_request(next_request_);
  ++next_request_;
  ScopedSpan span(tracer_, "ProfileStore::Put");
  Status status = store_->Put(id, std::move(profile));
  totals_.put_us += span.Close();
  ++totals_.puts;
  totals_.wall_us += wall.ElapsedMicros();
  return status.ok() ? "" : "put " + id + ": " + status.ToString();
}

}  // namespace perfbench
