// Unit tests of the benchmark's own logic (perfbench/src/logic.h):
// the tail-percentile rule, the seeded Zipf and schedule, due-time
// latency accounting, span self time and the wire_slo_rps ladder.
// Run with: python3 perfbench/run.py --selftest

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <vector>

#include "logic.h"

namespace perfbench {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

std::vector<double> OneTo(size_t n) {
  std::vector<double> v;
  for (size_t i = 1; i <= n; ++i) v.push_back(static_cast<double>(i));
  return v;
}

TEST(PercentileRule, NeedsTenSamplesBeyond) {
  EXPECT_EQ(SamplesBeyond(100, 0.90), 10u);
  EXPECT_EQ(SamplesBeyond(99, 0.90), 9u);
  EXPECT_EQ(SamplesBeyond(1000, 0.99), 10u);
  EXPECT_EQ(SamplesBeyond(999, 0.99), 9u);
  EXPECT_EQ(MinSamplesFor(0.90), 100u);
  EXPECT_EQ(MinSamplesFor(0.99), 1000u);
  EXPECT_EQ(MinSamplesFor(0.50), 20u);

  EXPECT_FALSE(Percentile(OneTo(99), 0.90).has_value());
  ASSERT_TRUE(Percentile(OneTo(100), 0.90).has_value());
  EXPECT_EQ(*Percentile(OneTo(100), 0.90), 90.0);
  EXPECT_FALSE(Percentile(OneTo(999), 0.99).has_value());
  EXPECT_EQ(*Percentile(OneTo(1000), 0.99), 990.0);
  EXPECT_FALSE(Percentile({}, 0.5).has_value());
}

TEST(PercentileRule, FailedRequestsCountAgainstTheLimit) {
  std::vector<double> v = OneTo(100);
  for (size_t i = 0; i < 11; ++i) v[i] = kInf;  // 11 failures
  std::optional<double> p90 = Percentile(v, 0.90);
  ASSERT_TRUE(p90.has_value());
  EXPECT_TRUE(std::isinf(*p90));
  EXPECT_EQ(Median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_EQ(Median({4.0, 1.0, 3.0, 2.0}), 2.0);
}

TEST(SeededInputs, ZipfIsDeterministicAndSkewed) {
  ZipfSampler zipf(100, 1.1);
  Rng a(42);
  Rng b(42);
  Rng c(43);
  std::vector<size_t> counts(100, 0);
  bool differs = false;
  for (int i = 0; i < 20000; ++i) {
    size_t x = zipf.Sample(a);
    ASSERT_EQ(x, zipf.Sample(b));
    differs |= x != zipf.Sample(c);
    ASSERT_LT(x, 100u);
    ++counts[x];
  }
  EXPECT_TRUE(differs);
  EXPECT_GT(counts[0], counts[1]);
  EXPECT_GT(counts[1], counts[10]);
  EXPECT_GT(counts[10], counts[99]);
  // Rank 0 carries 1 / H(100, 1.1) = 23.4% of the mass.
  EXPECT_NEAR(static_cast<double>(counts[0]) / 20000.0, 0.234, 0.02);
}

TEST(SeededInputs, ScheduleIsDeterministic) {
  ScheduleSpec spec;
  spec.read_rps = 500.0;
  spec.write_rps = 20.0;
  spec.seconds = 4.0;
  spec.pairs = 60;
  spec.pairs_per_profile = 12;
  spec.variants = 3;
  std::vector<ScheduledOp> a = MakeSchedule(spec, 7);
  std::vector<ScheduledOp> b = MakeSchedule(spec, 7);
  std::vector<ScheduledOp> c = MakeSchedule(spec, 8);
  ASSERT_EQ(a.size(), b.size());
  size_t writes = 0;
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].due_s, b[i].due_s);
    EXPECT_EQ(a[i].write, b[i].write);
    EXPECT_EQ(a[i].item, b[i].item);
    EXPECT_EQ(a[i].variant, b[i].variant);
    if (i > 0) EXPECT_LE(a[i - 1].due_s, a[i].due_s);
    EXPECT_LT(a[i].due_s, spec.seconds);
    if (a[i].write) {
      ++writes;
      EXPECT_LT(a[i].item, 5u);
      EXPECT_LT(a[i].variant, 3u);
    } else {
      EXPECT_LT(a[i].item, 60u);
    }
  }
  // Poisson arrivals: counts near rate x seconds.
  EXPECT_NEAR(static_cast<double>(a.size() - writes), 2000.0, 200.0);
  EXPECT_NEAR(static_cast<double>(writes), 80.0, 30.0);
  bool differs = a.size() != c.size();
  for (size_t i = 0; !differs && i < a.size(); ++i) {
    differs = a[i].due_s != c[i].due_s || a[i].item != c[i].item;
  }
  EXPECT_TRUE(differs);
}

TEST(DueTimeAccounting, StallIsChargedToEveryRequestDueDuringIt) {
  // Requests due every 1 ms; the generator stalls from t=2 ms to t=7 ms
  // (it sends the requests due at 3..6 ms late, at 7 ms). Each takes 0.5 ms
  // of service once sent.
  DueTimeAccount account;
  for (int k = 0; k < 10; ++k) {
    double due = k * 1e-3;
    double sent = (k >= 3 && k <= 6) ? 7e-3 : due;
    account.OnSent(due, sent);
    account.OnDone(due, sent + 0.5e-3, /*ok=*/true);
  }
  ASSERT_EQ(account.latency_ms().size(), 10u);
  EXPECT_NEAR(account.latency_ms()[0], 0.5, 1e-9);
  EXPECT_NEAR(account.latency_ms()[3], 4.5, 1e-9);  // waited 4 ms
  EXPECT_NEAR(account.latency_ms()[6], 1.5, 1e-9);
  EXPECT_NEAR(account.lag_ms()[3], 4.0, 1e-9);
  EXPECT_NEAR(account.lag_ms()[9], 0.0, 1e-9);
  EXPECT_EQ(account.failed(), 0u);

  account.OnSent(0.02, 0.02);
  account.OnDone(0.02, 0.021, /*ok=*/false);
  EXPECT_EQ(account.failed(), 1u);
  EXPECT_TRUE(std::isinf(account.latency_ms().back()));
}

TEST(DueTimeAccounting, WindowsByDueTimeAndTheirMedian) {
  DueTimeAccount account;
  // Three one-second windows of 100 requests each; the middle one is a
  // slow spell, and one request is due after the last window.
  for (int w = 0; w < 3; ++w) {
    for (int k = 0; k < 100; ++k) {
      double due = w + k / 100.0;
      double service = (w == 1 ? 10.0 : 1.0) * (1 + k) * 1e-5;
      account.OnSent(due, due);
      account.OnDone(due, due + service, /*ok=*/true);
    }
  }
  account.OnSent(3.5, 3.5);
  account.OnDone(3.5, 3.6, /*ok=*/true);
  std::vector<std::vector<double>> windows = account.Windows(1.0, 3);
  ASSERT_EQ(windows.size(), 3u);
  for (const auto& w : windows) EXPECT_EQ(w.size(), 100u);
  // Window p90s are 0.9, 9.0 and 0.9 ms: the slow spell moves the median
  // not at all.
  ASSERT_TRUE(MedianOverWindows(windows, 0.90).has_value());
  EXPECT_NEAR(*MedianOverWindows(windows, 0.90), 0.9, 1e-9);
  EXPECT_FALSE(MedianOverWindows({{1.0, 2.0}}, 0.90).has_value());
}

TEST(ClosedLoopWindows, ConsecutiveWholeWindowsAndTheirMedianRate) {
  std::vector<std::vector<double>> windows =
      ConsecutiveWindows(OneTo(7), 3);
  ASSERT_EQ(windows.size(), 2u);  // the tail {7} is left out
  EXPECT_EQ(windows[0], (std::vector<double>{1, 2, 3}));
  EXPECT_EQ(windows[1], (std::vector<double>{4, 5, 6}));
  EXPECT_TRUE(ConsecutiveWindows(OneTo(2), 3).empty());

  // Rates 100, 10 and 100 requests/s: the slow window moves the median not
  // at all. A failed request adds neither a request nor time.
  EXPECT_NEAR(MedianRateOverWindows({{10.0, 10.0},
                                     {100.0, 100.0},
                                     {5.0, kInf, 15.0}}),
              100.0, 1e-9);
  EXPECT_EQ(MedianRateOverWindows({{kInf}}), 0.0);
}

TEST(SpanSelfTime, SubtractsTheUnionOfChildren) {
  std::vector<Span> spans(5);
  spans[0] = {"request", 1, -1, 0.0, 100.0};
  spans[1] = {"parse", 1, 0, 10.0, 30.0};
  spans[2] = {"solve", 1, 0, 25.0, 60.0};   // overlaps parse by 5
  spans[3] = {"inner", 1, 2, 30.0, 40.0};   // grandchild of request
  spans[4] = {"late", 1, 0, 90.0, 120.0};   // clipped to the parent
  std::vector<double> self = SelfTimesUs(spans);
  // Children of request cover [10, 60) and [90, 100): 60 us.
  EXPECT_DOUBLE_EQ(self[0], 40.0);
  EXPECT_DOUBLE_EQ(self[1], 20.0);
  EXPECT_DOUBLE_EQ(self[2], 25.0);
  EXPECT_DOUBLE_EQ(self[3], 10.0);
  EXPECT_DOUBLE_EQ(self[4], 30.0);
}

RungOutcome Rung(double rps, double latency, size_t n, size_t mid,
                 size_t end) {
  RungOutcome r;
  r.offered_rps = rps;
  r.achieved_rps = rps * 0.99;
  r.latency_ms.assign(n, latency);
  r.backlog_mid = mid;
  r.backlog_end = end;
  return r;
}

TEST(SloLadder, HighestRungWhoseP99MeetsTheLimitWithoutBacklogGrowth) {
  const double limit = 10.0;
  EXPECT_TRUE(RungPasses(Rung(100, 5.0, 1000, 2, 3), limit));
  EXPECT_FALSE(RungPasses(Rung(100, 5.0, 999, 2, 3), limit));   // too few
  EXPECT_FALSE(RungPasses(Rung(100, 11.0, 1000, 2, 3), limit));  // slow
  EXPECT_FALSE(RungPasses(Rung(100, 5.0, 1000, 10, 40), limit)); // backlog

  RungOutcome failing = Rung(100, 5.0, 1000, 2, 3);
  for (size_t i = 0; i < 11; ++i) failing.latency_ms[i] = kInf;
  EXPECT_FALSE(RungPasses(failing, limit));

  std::vector<RungOutcome> rungs = {Rung(100, 2.0, 1000, 1, 1),
                                    Rung(200, 4.0, 2000, 2, 2),
                                    Rung(300, 12.0, 3000, 5, 9),
                                    Rung(400, 3.0, 4000, 2, 2)};
  // The 300 rung fails, so the 400 rung does not count.
  EXPECT_DOUBLE_EQ(SloRps(rungs, limit), 200 * 0.99);
  rungs[0].latency_ms.assign(1000, 20.0);
  EXPECT_DOUBLE_EQ(SloRps(rungs, limit), 0.0);
}

}  // namespace
}  // namespace perfbench
