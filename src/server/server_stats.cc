#include "server/server_stats.h"

#include <bit>
#include <cmath>

namespace cqp::server {

namespace {

size_t BucketFor(double millis) {
  double us = millis * 1000.0;
  if (us < 1.0) return 0;
  uint64_t v = static_cast<uint64_t>(us);
  size_t bucket = static_cast<size_t>(63 - std::countl_zero(v));
  return bucket < LatencyHistogram::kBuckets
             ? bucket
             : LatencyHistogram::kBuckets - 1;
}

}  // namespace

void LatencyHistogram::Record(double millis) {
  buckets_[BucketFor(millis)].fetch_add(1, std::memory_order_relaxed);
}

uint64_t LatencyHistogram::TotalCount() const {
  uint64_t total = 0;
  for (const auto& b : buckets_) total += b.load(std::memory_order_relaxed);
  return total;
}

double LatencyHistogram::PercentileMillis(double p) const {
  uint64_t total = TotalCount();
  if (total == 0) return 0.0;
  if (p < 0.0) p = 0.0;
  if (p > 1.0) p = 1.0;
  uint64_t rank = static_cast<uint64_t>(std::ceil(p * static_cast<double>(total)));
  if (rank == 0) rank = 1;
  uint64_t seen = 0;
  for (size_t i = 0; i < kBuckets; ++i) {
    seen += buckets_[i].load(std::memory_order_relaxed);
    if (seen >= rank) {
      // Upper bound of bucket i: 2^(i+1) µs, reported in ms.
      return std::ldexp(1.0, static_cast<int>(i) + 1) / 1000.0;
    }
  }
  return std::ldexp(1.0, static_cast<int>(kBuckets)) / 1000.0;
}

JsonValue LatencyHistogram::ToJson() const {
  JsonValue obj = JsonValue::Object();
  obj.Set("count", JsonValue::Number(static_cast<double>(TotalCount())));
  obj.Set("p50_ms", JsonValue::Number(PercentileMillis(0.50)));
  obj.Set("p90_ms", JsonValue::Number(PercentileMillis(0.90)));
  obj.Set("p99_ms", JsonValue::Number(PercentileMillis(0.99)));
  JsonValue buckets = JsonValue::Array();
  for (size_t i = 0; i < kBuckets; ++i) {
    uint64_t count = buckets_[i].load(std::memory_order_relaxed);
    if (count == 0) continue;
    JsonValue b = JsonValue::Object();
    b.Set("le_us", JsonValue::Number(std::ldexp(1.0, static_cast<int>(i) + 1)));
    b.Set("count", JsonValue::Number(static_cast<double>(count)));
    buckets.Append(std::move(b));
  }
  obj.Set("buckets", std::move(buckets));
  return obj;
}

void LatencyHistogram::Reset() {
  for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
}

void ServerStats::OnConnectionOpened() {
  connections_opened_.fetch_add(1, std::memory_order_relaxed);
}

void ServerStats::OnConnectionClosed() {
  connections_closed_.fetch_add(1, std::memory_order_relaxed);
}

void ServerStats::OnProtocolError() {
  protocol_errors_.fetch_add(1, std::memory_order_relaxed);
}

void ServerStats::OnAdmitted() {
  admitted_total_.fetch_add(1, std::memory_order_relaxed);
}

void ServerStats::OnShed() {
  shed_total_.fetch_add(1, std::memory_order_relaxed);
}

void ServerStats::OnDegradedAdmission() {
  degraded_admissions_.fetch_add(1, std::memory_order_relaxed);
}

void ServerStats::OnRequestDone(bool ok, bool degraded_answer,
                                double latency_ms,
                                uint64_t states_examined) {
  requests_total_.fetch_add(1, std::memory_order_relaxed);
  if (!ok) errors_total_.fetch_add(1, std::memory_order_relaxed);
  if (degraded_answer) {
    degraded_answers_total_.fetch_add(1, std::memory_order_relaxed);
  }
  states_total_.fetch_add(states_examined, std::memory_order_relaxed);
  latency_.Record(latency_ms);
}

void ServerStats::OnPlanLookup(bool hit) {
  (hit ? plan_hits_total_ : plan_misses_total_)
      .fetch_add(1, std::memory_order_relaxed);
}

void ServerStats::OnRewrite(uint64_t conjuncts_dropped,
                            uint64_t branches_contradicted,
                            uint64_t branches_subsumed,
                            uint64_t prefs_pruned) {
  conjuncts_dropped_total_.fetch_add(conjuncts_dropped,
                                     std::memory_order_relaxed);
  branches_contradicted_total_.fetch_add(branches_contradicted,
                                         std::memory_order_relaxed);
  branches_subsumed_total_.fetch_add(branches_subsumed,
                                     std::memory_order_relaxed);
  prefs_pruned_total_.fetch_add(prefs_pruned, std::memory_order_relaxed);
}

void ServerStats::ConfigureLoops(size_t n) {
  loops_.clear();
  loops_.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    loops_.push_back(std::make_unique<LoopStats>());
  }
}

JsonValue ServerStats::ToJson() const {
  auto n = [](uint64_t v) { return JsonValue::Number(static_cast<double>(v)); };
  JsonValue obj = JsonValue::Object();
  obj.Set("connections_opened",
          n(connections_opened_.load(std::memory_order_relaxed)));
  obj.Set("connections_closed",
          n(connections_closed_.load(std::memory_order_relaxed)));
  obj.Set("protocol_errors",
          n(protocol_errors_.load(std::memory_order_relaxed)));
  obj.Set("admitted", n(admitted_total_.load(std::memory_order_relaxed)));
  obj.Set("shed", n(shed_total_.load(std::memory_order_relaxed)));
  obj.Set("degraded_admissions",
          n(degraded_admissions_.load(std::memory_order_relaxed)));
  obj.Set("requests", n(requests_total_.load(std::memory_order_relaxed)));
  obj.Set("errors", n(errors_total_.load(std::memory_order_relaxed)));
  obj.Set("degraded_answers",
          n(degraded_answers_total_.load(std::memory_order_relaxed)));
  obj.Set("plan_cache_hits",
          n(plan_hits_total_.load(std::memory_order_relaxed)));
  obj.Set("plan_cache_misses",
          n(plan_misses_total_.load(std::memory_order_relaxed)));
  obj.Set("states_examined",
          n(states_total_.load(std::memory_order_relaxed)));
  JsonValue rewrite = JsonValue::Object();
  rewrite.Set("conjuncts_dropped",
              n(conjuncts_dropped_total_.load(std::memory_order_relaxed)));
  rewrite.Set("branches_contradicted",
              n(branches_contradicted_total_.load(std::memory_order_relaxed)));
  rewrite.Set("branches_subsumed",
              n(branches_subsumed_total_.load(std::memory_order_relaxed)));
  rewrite.Set(
      "branches_eliminated",
      n(branches_contradicted_total_.load(std::memory_order_relaxed) +
        branches_subsumed_total_.load(std::memory_order_relaxed)));
  rewrite.Set("prefs_pruned",
              n(prefs_pruned_total_.load(std::memory_order_relaxed)));
  obj.Set("rewrite", std::move(rewrite));
  obj.Set("latency", latency_.ToJson());
  if (!loops_.empty()) {
    JsonValue loops = JsonValue::Array();
    for (size_t i = 0; i < loops_.size(); ++i) {
      const LoopStats& ls = *loops_[i];
      auto r = [](const std::atomic<uint64_t>& v) {
        return JsonValue::Number(
            static_cast<double>(v.load(std::memory_order_relaxed)));
      };
      JsonValue one = JsonValue::Object();
      one.Set("loop", n(i));
      one.Set("connections",
              JsonValue::Number(static_cast<double>(
                  ls.connections.load(std::memory_order_relaxed))));
      one.Set("accepts", r(ls.accepts));
      one.Set("frames", r(ls.frames));
      one.Set("wakeups", r(ls.wakeups));
      one.Set("tasks", r(ls.tasks));
      one.Set("reads", r(ls.reads));
      one.Set("read_bytes", r(ls.read_bytes));
      one.Set("writevs", r(ls.writevs));
      one.Set("write_bytes", r(ls.write_bytes));
      one.Set("read_pauses", r(ls.read_pauses));
      one.Set("backpressure_closes", r(ls.backpressure_closes));
      one.Set("frame_cap_closes", r(ls.frame_cap_closes));
      loops.Append(std::move(one));
    }
    obj.Set("loops", std::move(loops));
  }
  return obj;
}

std::string ServerStats::ToJsonString() const { return ToJson().Dump(); }

}  // namespace cqp::server
