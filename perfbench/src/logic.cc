#include "logic.h"

#include <algorithm>
#include <cmath>
#include <numeric>

namespace perfbench {

namespace {

/// 0-based index of the nearest-rank p-quantile among n sorted samples.
size_t RankIndex(size_t n, double p) {
  double rank = std::ceil(p * static_cast<double>(n));
  size_t r = rank < 1.0 ? 1 : static_cast<size_t>(rank);
  return std::min(r, n) - 1;
}

}  // namespace

size_t SamplesBeyond(size_t n, double p) {
  if (n == 0) return 0;
  return n - 1 - RankIndex(n, p);
}

size_t MinSamplesFor(double p, size_t min_beyond) {
  size_t n = 1;
  while (SamplesBeyond(n, p) < min_beyond) ++n;
  return n;
}

std::optional<double> Percentile(std::vector<double> values, double p,
                                 size_t min_beyond) {
  if (values.empty() || SamplesBeyond(values.size(), p) < min_beyond) {
    return std::nullopt;
  }
  size_t idx = RankIndex(values.size(), p);
  std::nth_element(values.begin(), values.begin() + static_cast<long>(idx),
                   values.end());
  return values[idx];
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  size_t idx = (values.size() - 1) / 2;
  std::nth_element(values.begin(), values.begin() + static_cast<long>(idx),
                   values.end());
  return values[idx];
}

std::optional<double> MedianOverWindows(
    const std::vector<std::vector<double>>& windows, double p,
    size_t min_beyond) {
  std::vector<double> per_window;
  for (const std::vector<double>& window : windows) {
    if (std::optional<double> q = Percentile(window, p, min_beyond)) {
      per_window.push_back(*q);
    }
  }
  if (per_window.empty()) return std::nullopt;
  return Median(std::move(per_window));
}

std::vector<std::vector<double>> ConsecutiveWindows(
    const std::vector<double>& samples, size_t size) {
  std::vector<std::vector<double>> windows;
  for (size_t i = 0; size > 0 && i + size <= samples.size(); i += size) {
    windows.emplace_back(samples.begin() + static_cast<long>(i),
                         samples.begin() + static_cast<long>(i + size));
  }
  return windows;
}

double MedianRateOverWindows(const std::vector<std::vector<double>>& windows) {
  std::vector<double> rates;
  for (const std::vector<double>& window : windows) {
    double n = 0.0;
    double ms = 0.0;
    for (double v : window) {
      if (std::isfinite(v)) {
        n += 1.0;
        ms += v;
      }
    }
    if (ms > 0.0) rates.push_back(n / (ms / 1e3));
  }
  return Median(std::move(rates));
}

std::vector<std::vector<double>> DueTimeAccount::Windows(double window_s,
                                                         size_t n) const {
  std::vector<std::vector<double>> windows(n);
  for (size_t i = 0; i < latency_ms_.size(); ++i) {
    const double w = std::floor(due_s_[i] / window_s);
    if (w >= 0.0 && w < static_cast<double>(n)) {
      windows[static_cast<size_t>(w)].push_back(latency_ms_[i]);
    }
  }
  return windows;
}

uint64_t Rng::Next() {
  uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

double Rng::Uniform() {
  return static_cast<double>(Next() >> 11) * 0x1.0p-53;
}

ZipfSampler::ZipfSampler(size_t n, double s) : cdf_(n) {
  double sum = 0.0;
  for (size_t r = 0; r < n; ++r) {
    sum += 1.0 / std::pow(static_cast<double>(r + 1), s);
    cdf_[r] = sum;
  }
  for (double& c : cdf_) c /= sum;
}

size_t ZipfSampler::Sample(Rng& rng) const {
  double u = rng.Uniform();
  size_t rank = static_cast<size_t>(
      std::upper_bound(cdf_.begin(), cdf_.end(), u) - cdf_.begin());
  return std::min(rank, cdf_.size() - 1);
}

std::vector<size_t> Permutation(size_t n, Rng& rng) {
  std::vector<size_t> out(n);
  std::iota(out.begin(), out.end(), 0);
  for (size_t i = n; i > 1; --i) std::swap(out[i - 1], out[rng.Below(i)]);
  return out;
}

std::vector<ScheduledOp> MakeSchedule(const ScheduleSpec& spec,
                                      uint64_t seed) {
  Rng popularity(spec.popularity_seed);
  const std::vector<size_t> rank_to_pair = Permutation(spec.pairs, popularity);
  Rng rng(seed);
  const ZipfSampler zipf(spec.pairs, spec.zipf_s);
  auto exponential = [&rng](double rate) {
    return -std::log(1.0 - rng.Uniform()) / rate;
  };

  std::vector<ScheduledOp> ops;
  for (double t = exponential(spec.read_rps); t < spec.seconds;
       t += exponential(spec.read_rps)) {
    ScheduledOp op;
    op.due_s = t;
    op.item = rank_to_pair[zipf.Sample(rng)];
    ops.push_back(op);
  }
  if (spec.write_rps > 0.0) {
    std::vector<size_t> next_variant(spec.pairs / spec.pairs_per_profile + 1,
                                     0);
    for (double t = exponential(spec.write_rps); t < spec.seconds;
         t += exponential(spec.write_rps)) {
      ScheduledOp op;
      op.due_s = t;
      op.write = true;
      op.item = rank_to_pair[zipf.Sample(rng)] / spec.pairs_per_profile;
      op.variant = ++next_variant[op.item] % spec.variants;
      ops.push_back(op);
    }
  }
  std::stable_sort(ops.begin(), ops.end(),
                   [](const ScheduledOp& a, const ScheduledOp& b) {
                     return a.due_s < b.due_s;
                   });
  return ops;
}

std::vector<double> SelfTimesUs(const std::vector<Span>& spans) {
  std::vector<std::vector<size_t>> children(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    int32_t parent = spans[i].parent;
    if (parent >= 0 && static_cast<size_t>(parent) < spans.size()) {
      children[static_cast<size_t>(parent)].push_back(i);
    }
  }
  std::vector<double> self(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::vector<std::pair<double, double>> covered;
    for (size_t c : children[i]) {
      double lo = std::max(spans[c].start_us, s.start_us);
      double hi = std::min(spans[c].end_us, s.end_us);
      if (hi > lo) covered.emplace_back(lo, hi);
    }
    std::sort(covered.begin(), covered.end());
    double union_us = 0.0;
    double run_lo = 0.0;
    double run_hi = -1.0;
    for (const auto& [lo, hi] : covered) {
      if (lo > run_hi) {
        if (run_hi > run_lo) union_us += run_hi - run_lo;
        run_lo = lo;
        run_hi = hi;
      } else {
        run_hi = std::max(run_hi, hi);
      }
    }
    if (run_hi > run_lo) union_us += run_hi - run_lo;
    self[i] = (s.end_us - s.start_us) - union_us;
  }
  return self;
}

bool RungPasses(const RungOutcome& rung, double limit_ms) {
  std::optional<double> p99 = Percentile(rung.latency_ms, 0.99);
  if (!p99.has_value() || !(*p99 <= limit_ms)) return false;
  return rung.backlog_end <= 2 * rung.backlog_mid + 4;
}

double SloRps(const std::vector<RungOutcome>& rungs, double limit_ms) {
  double best = 0.0;
  for (const RungOutcome& rung : rungs) {
    if (!RungPasses(rung, limit_ms)) break;
    best = rung.achieved_rps;
  }
  return best;
}

}  // namespace perfbench
