#ifndef PERFBENCH_LOGIC_H_
#define PERFBENCH_LOGIC_H_

// The benchmark's own decision logic, kept free of engine types so the
// unit tests in tests/logic_test.cc can pin it down: the tail-percentile
// rule, the seeded generators, due-time latency accounting, span self
// time and the wire_slo_rps ladder decision.

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <optional>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Samples strictly beyond the nearest-rank p-quantile of n samples.
size_t SamplesBeyond(size_t n, double p);

/// Smallest sample count whose p-quantile has at least `min_beyond`
/// samples beyond it.
size_t MinSamplesFor(double p, size_t min_beyond = 10);

/// Nearest-rank p-quantile (p in [0, 1]); nullopt when `values` is empty or
/// fewer than `min_beyond` samples lie beyond it. Infinite values (failed
/// requests) sort last, so they count against every latency limit.
std::optional<double> Percentile(std::vector<double> values, double p,
                                 size_t min_beyond = 10);

/// Median of `values` (lower middle for even counts); 0 when empty.
double Median(std::vector<double> values);

/// The median, over windows, of each window's p-quantile. Windows whose
/// p-quantile has fewer than `min_beyond` samples beyond it are skipped;
/// nullopt when none is left. A slow spell of a shared machine that covers
/// less than half of the windows then barely moves the result.
std::optional<double> MedianOverWindows(
    const std::vector<std::vector<double>>& windows, double p,
    size_t min_beyond = 10);

/// Splits `samples`, in the order they were taken, into consecutive
/// windows of `size` samples each; a shorter tail is left out.
std::vector<std::vector<double>> ConsecutiveWindows(
    const std::vector<double>& samples, size_t size);

/// The median, over windows of latencies in ms, of each window's rate: its
/// finite samples per second of their summed time. Infinite (failed)
/// samples add neither a request nor time. 0 when no window has a finite
/// sample.
double MedianRateOverWindows(const std::vector<std::vector<double>>& windows);

/// SplitMix64: the deterministic generator behind every seeded input.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t Next();
  double Uniform();  ///< [0, 1)
  size_t Below(size_t n) { return static_cast<size_t>(Next() % n); }

 private:
  uint64_t state_;
};

/// Zipf(s) over ranks [0, n): rank r has weight 1 / (r + 1)^s.
class ZipfSampler {
 public:
  ZipfSampler(size_t n, double s);
  size_t Sample(Rng& rng) const;
  size_t size() const { return cdf_.size(); }

 private:
  std::vector<double> cdf_;
};

/// Fisher-Yates permutation of [0, n) drawn from `rng`.
std::vector<size_t> Permutation(size_t n, Rng& rng);

/// One scheduled operation of an open-loop run.
struct ScheduledOp {
  double due_s = 0.0;   ///< offset from the run's start
  bool write = false;   ///< a ProfileStore::Put instead of a wire read
  size_t item = 0;      ///< read: pair index; write: profile index
  size_t variant = 0;   ///< write: the profile text it installs
};

/// Parameters of an open-loop schedule. Reads arrive as a Poisson process
/// at `read_rps`; writes (if any) as an independent one at `write_rps`.
/// Read items follow Zipf(zipf_s) over `pairs` ranks; each rank is mapped
/// to a pair through a permutation drawn from `popularity_seed`, which is
/// part of the workload's definition (which pairs are hot), while the run
/// seed draws the arrivals and the requests. A write targets the profile
/// of a Zipf-drawn pair (so hot plans get invalidated) and installs the
/// next of `variants` texts.
struct ScheduleSpec {
  double read_rps = 0.0;
  double write_rps = 0.0;
  double seconds = 0.0;
  size_t pairs = 1;
  size_t pairs_per_profile = 1;  ///< pair p belongs to profile p / this
  size_t variants = 1;
  double zipf_s = 1.1;
  uint64_t popularity_seed = 1;
};

/// Deterministic in (spec, seed). Ops are sorted by due time.
std::vector<ScheduledOp> MakeSchedule(const ScheduleSpec& spec, uint64_t seed);

/// Open-loop accounting. Latency runs from an operation's due time, not
/// its send time, so a stall in the system (or in the generator) is
/// charged to every request that was due during it. Generator lag (send
/// minus due) is kept separately to show when the generator, not the server,
/// was slow. A failed request is recorded as an infinite latency.
class DueTimeAccount {
 public:
  void OnSent(double due_s, double sent_s) {
    lag_ms_.push_back((sent_s - due_s) * 1e3);
  }
  void OnDone(double due_s, double done_s, bool ok) {
    latency_ms_.push_back(ok ? (done_s - due_s) * 1e3
                             : std::numeric_limits<double>::infinity());
    due_s_.push_back(due_s);
    if (!ok) ++failed_;
  }
  const std::vector<double>& latency_ms() const { return latency_ms_; }
  /// Latencies grouped by due time into `n` windows of `window_s` seconds
  /// each; requests due after the last window are left out.
  std::vector<std::vector<double>> Windows(double window_s, size_t n) const;
  const std::vector<double>& lag_ms() const { return lag_ms_; }
  size_t failed() const { return failed_; }

 private:
  std::vector<double> latency_ms_;
  std::vector<double> due_s_;  ///< parallel to latency_ms_
  std::vector<double> lag_ms_;
  size_t failed_ = 0;
};

/// One recorded span. Times are microseconds from the tracer's origin;
/// parent is an index into the same span vector, -1 for a root.
struct Span {
  const char* name = "";
  uint64_t request = 0;
  int32_t parent = -1;
  double start_us = 0.0;
  double end_us = 0.0;
};

/// Self time of every span: its duration minus the part of its interval
/// covered by the union of its children's intervals.
std::vector<double> SelfTimesUs(const std::vector<Span>& spans);

/// Measured outcome of one rung of the offered-rate ladder.
struct RungOutcome {
  double offered_rps = 0.0;
  double achieved_rps = 0.0;      ///< OK responses per second of the rung
  std::vector<double> latency_ms; ///< due-time latencies (inf = failed)
  size_t backlog_mid = 0;         ///< in flight halfway through sending
  size_t backlog_end = 0;         ///< in flight when sending ended
};

/// A rung passes when its p99 (with >= 10 samples beyond) meets the limit
/// and its backlog did not grow over the second half of the rung.
bool RungPasses(const RungOutcome& rung, double limit_ms);

/// wire_slo_rps: the achieved rate of the highest rung such that it and
/// every rung below it pass; 0 when even the first rung fails.
double SloRps(const std::vector<RungOutcome>& rungs, double limit_ms);

}  // namespace perfbench

#endif  // PERFBENCH_LOGIC_H_
