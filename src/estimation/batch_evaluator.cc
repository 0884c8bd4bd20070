#include "estimation/batch_evaluator.h"

#include <algorithm>
#include <bit>

#include "common/logging.h"

namespace cqp::estimation {
namespace {

void Resize(size_t n, BatchEvaluator::Results* out) {
  out->n = n;
  out->doi.resize(n);
  out->cost_ms.resize(n);
  out->size.resize(n);
  out->count.resize(n);
}

void Store(const StateParams& s, size_t l, BatchEvaluator::Results* out) {
  out->doi[l] = s.doi;
  out->cost_ms[l] = s.cost_ms;
  out->size[l] = s.size;
  out->count[l] = s.count;
}

}  // namespace

template <bool kSumCapped>
inline StateParams BatchEvaluator::Step(const StateParams& parent,
                                        size_t p) const {
  CQP_DCHECK(p < K());
  StateParams s;
  // Formula 6: the first member *replaces* the base-query cost.
  s.cost_ms = (parent.count == 0 ? 0.0 : parent.cost_ms) + cost_ms_[p];
  // Formula 8: size multiplies by the member's selectivity.
  s.size = parent.size * selectivity_[p];
  // Formula 10 (noisy-or) or the capped-sum model.
  if constexpr (kSumCapped) {
    s.doi = std::min(1.0, parent.doi + doi_[p]);
  } else {
    s.doi = 1.0 - (1.0 - parent.doi) * one_minus_doi_[p];
  }
  s.count = parent.count + 1;
  return s;
}

BatchEvaluator::BatchEvaluator(const QueryBaseEstimate& base,
                               const std::vector<ScoredPreference>& prefs,
                               prefs::ConjunctionModel model)
    : base_(base), prefs_(&prefs), model_(model) {
  const size_t k = prefs.size();
  cost_ms_.reserve(k);
  selectivity_.reserve(k);
  doi_.reserve(k);
  one_minus_doi_.reserve(k);
  for (const ScoredPreference& p : prefs) {
    CQP_CHECK(prefs::IsValidDoi(p.doi));
    CQP_CHECK_GE(p.cost_ms, base_.cost_ms);
    CQP_CHECK_GE(p.selectivity, 0.0);
    CQP_CHECK_LE(p.selectivity, 1.0);
    cost_ms_.push_back(p.cost_ms);
    selectivity_.push_back(p.selectivity);
    doi_.push_back(p.doi);
    one_minus_doi_.push_back(1.0 - p.doi);
  }
}

StateParams BatchEvaluator::EmptyState() const {
  StateParams s;
  s.doi = 0.0;
  s.cost_ms = base_.cost_ms;
  s.size = base_.size;
  s.count = 0;
  return s;
}

StateParams BatchEvaluator::ExtendWith(const StateParams& parent,
                                       int32_t i) const {
  const size_t p = static_cast<size_t>(i);
  CQP_CHECK_LT(p, K());
  return model_ == prefs::ConjunctionModel::kSumCapped
             ? Step<true>(parent, p)
             : Step<false>(parent, p);
}

template <bool kSumCapped>
void BatchEvaluator::FoldMasks(const StateParams& start, const int32_t* seq,
                               const uint64_t* lane_masks, size_t n,
                               Results* out) const {
  Resize(n, out);
  for (size_t l = 0; l < n; ++l) {
    StateParams s = start;
    for (uint64_t rest = lane_masks[l]; rest != 0; rest &= rest - 1) {
      const int j = std::countr_zero(rest);
      s = Step<kSumCapped>(s, seq == nullptr ? static_cast<size_t>(j)
                                             : static_cast<size_t>(seq[j]));
    }
    Store(s, l, out);
  }
}

template <bool kSumCapped>
void BatchEvaluator::BuildFamily(const StateParams& parent,
                                 const int32_t* seq, size_t seq_len,
                                 const uint64_t* lane_masks, size_t n,
                                 Results* out) const {
  Resize(n, out);
  // Row m holds the state of subset mask m. Its members are applied in
  // ascending sequence position, so for 2^t <= m < 2^(t+1) it is row
  // m - 2^t extended by seq[t]: one step per subset, and each pass over t
  // reads rows [0, 2^t) and writes rows [2^t, 2^(t+1)) with one shared
  // preference. Lanes in mask order are built in place; any other order
  // is gathered from a stack table (plain arrays: no zero-fill per call).
  bool identity = true;
  for (size_t l = 0; l < n && identity; ++l) identity = lane_masks[l] == l;
  struct Family {
    double doi[size_t{1} << kMaxFamilyBits];
    double cost_ms[size_t{1} << kMaxFamilyBits];
    double size[size_t{1} << kMaxFamilyBits];
    uint32_t count[size_t{1} << kMaxFamilyBits];
  };
  Family table;
  double* doi = identity ? out->doi.data() : table.doi;
  double* cost = identity ? out->cost_ms.data() : table.cost_ms;
  double* size = identity ? out->size.data() : table.size;
  uint32_t* count = identity ? out->count.data() : table.count;
  doi[0] = parent.doi;
  cost[0] = parent.cost_ms;
  size[0] = parent.size;
  count[0] = parent.count;
  for (size_t t = 0; t < seq_len; ++t) {
    const size_t half = size_t{1} << t;
    const size_t p = static_cast<size_t>(seq[t]);
    for (size_t m = 0; m < half; ++m) {
      const StateParams s = Step<kSumCapped>(
          StateParams{doi[m], cost[m], size[m], count[m]}, p);
      doi[half + m] = s.doi;
      cost[half + m] = s.cost_ms;
      size[half + m] = s.size;
      count[half + m] = s.count;
    }
  }
  if (identity) return;
  for (size_t l = 0; l < n; ++l) {
    CQP_DCHECK(lane_masks[l] < n);
    const size_t m = lane_masks[l] & (n - 1);
    out->doi[l] = doi[m];
    out->cost_ms[l] = cost[m];
    out->size[l] = size[m];
    out->count[l] = count[m];
  }
}

void BatchEvaluator::EvaluateMasks(const uint64_t* member_bits, size_t n,
                                   Results* out) const {
  CQP_CHECK_LT(K(), size_t{64});
  if (model_ == prefs::ConjunctionModel::kSumCapped) {
    FoldMasks<true>(EmptyState(), nullptr, member_bits, n, out);
  } else {
    FoldMasks<false>(EmptyState(), nullptr, member_bits, n, out);
  }
}

void BatchEvaluator::EvaluateSequence(const StateParams& parent,
                                      const int32_t* seq, size_t seq_len,
                                      const uint64_t* lane_masks, size_t n,
                                      Results* out) const {
  CQP_CHECK_LE(seq_len, size_t{64});
  const bool sum_capped = model_ == prefs::ConjunctionModel::kSumCapped;
  if (seq_len <= kMaxFamilyBits && n == size_t{1} << seq_len) {
    if (sum_capped) {
      BuildFamily<true>(parent, seq, seq_len, lane_masks, n, out);
    } else {
      BuildFamily<false>(parent, seq, seq_len, lane_masks, n, out);
    }
  } else if (sum_capped) {
    FoldMasks<true>(parent, seq, lane_masks, n, out);
  } else {
    FoldMasks<false>(parent, seq, lane_masks, n, out);
  }
}

void BatchEvaluator::ExtendBatch(const StateParams& parent,
                                 const int32_t* pref_idx, size_t n,
                                 Results* out) const {
  Resize(n, out);
  for (size_t l = 0; l < n; ++l) {
    Store(ExtendWith(parent, pref_idx[l]), l, out);
  }
}

}  // namespace cqp::estimation
