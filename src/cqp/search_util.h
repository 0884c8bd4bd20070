#ifndef CQP_CQP_SEARCH_UTIL_H_
#define CQP_CQP_SEARCH_UTIL_H_

#include <array>
#include <bit>
#include <deque>
#include <map>
#include <optional>
#include <unordered_set>
#include <vector>

#include "common/index_set.h"
#include "cqp/algorithm.h"
#include "cqp/search_space.h"
#include "estimation/batch_evaluator.h"

namespace cqp::cqp {

/// Visited-state set with MemoryMeter accounting.
class VisitedSet {
 public:
  explicit VisitedSet(SearchMetrics& metrics) : metrics_(metrics) {}

  /// Returns true if `state` was already present; inserts it otherwise.
  bool CheckAndInsert(const IndexSet& state) {
    auto [it, inserted] = set_.insert(state);
    if (inserted) metrics_.memory.Allocate(state.MemoryBytes());
    return !inserted;
  }

  bool Contains(const IndexSet& state) const { return set_.count(state) > 0; }
  size_t size() const { return set_.size(); }

 private:
  std::unordered_set<IndexSet, IndexSetHash> set_;
  SearchMetrics& metrics_;
};

/// FIFO/LIFO hybrid work queue (Vertical neighbors go to the front so a
/// group is exhausted before the next one starts), with memory accounting.
class StateQueue {
 public:
  explicit StateQueue(SearchMetrics& metrics) : metrics_(metrics) {}

  void PushBack(IndexSet state) {
    metrics_.memory.Allocate(state.MemoryBytes());
    queue_.push_back(std::move(state));
  }
  void PushFront(IndexSet state) {
    metrics_.memory.Allocate(state.MemoryBytes());
    queue_.push_front(std::move(state));
  }
  IndexSet PopFront() {
    IndexSet out = std::move(queue_.front());
    queue_.pop_front();
    metrics_.memory.Release(out.MemoryBytes());
    return out;
  }
  bool empty() const { return queue_.empty(); }
  size_t size() const { return queue_.size(); }

 private:
  std::deque<IndexSet> queue_;
  SearchMetrics& metrics_;
};

/// Boundaries found during phase 1, grouped by group size, with domination
/// queries used by prune() (paper: nodes below an already-found boundary
/// need not be visited).
class BoundaryStore {
 public:
  explicit BoundaryStore(SearchMetrics& metrics) : metrics_(metrics) {}

  /// Stores `boundary`, dropping previously stored boundaries of the same
  /// group it dominates: their cones are subsets of the new one (domination
  /// is transitive), so they are redundant for both pruning and phase 2.
  /// This keeps only the maximal boundaries without changing which states
  /// the search visits.
  void Add(const IndexSet& boundary) {
    std::vector<IndexSet>& group = by_size_[boundary.size()];
    for (size_t i = group.size(); i-- > 0;) {
      if (boundary.Dominates(group[i])) {
        metrics_.memory.Release(group[i].MemoryBytes());
        group.erase(group.begin() + static_cast<ptrdiff_t>(i));
      }
    }
    group.push_back(boundary);
    metrics_.memory.Allocate(boundary.MemoryBytes());
    ++metrics_.boundaries_found;
  }

  /// True if some stored boundary of the same group dominates `state`
  /// (i.e. `state` is reachable from it via Vertical transitions).
  bool DominatesAny(const IndexSet& state) const {
    auto it = by_size_.find(state.size());
    if (it == by_size_.end()) return false;
    for (const IndexSet& b : it->second) {
      if (b == state) continue;
      if (b.Dominates(state)) return true;
    }
    return false;
  }

  bool empty() const { return by_size_.empty(); }

  /// All boundaries ordered by decreasing group size (phase-2 order).
  std::vector<IndexSet> DescendingBySize() const {
    std::vector<IndexSet> out;
    for (auto it = by_size_.rbegin(); it != by_size_.rend(); ++it) {
      out.insert(out.end(), it->second.begin(), it->second.end());
    }
    return out;
  }

 private:
  std::map<size_t, std::vector<IndexSet>> by_size_;
  SearchMetrics& metrics_;
};

// --- Bitmask-domain companions for the batch-evaluation search loops ----
//
// The gprof profile of the C-Boundaries hot path showed ~75% of the time
// in IndexSet hashing/allocation, memo-cache probes on a ~0%-hit cold
// path and Dominates() calls — not in Formula evaluation. The batch search
// loops therefore keep the whole phase-1 working set in the uint64
// position-bitmask domain (k < 64): states are plain uint64s carried next
// to their already-evaluated StateParams, the visited set is a bitmap,
// and domination is a couple of countr_zero loops. docs/simd.md.

/// A frontier work item: the state as a position bitmask plus its batch-
/// evaluated parameters (evaluated at push time — evaluation is a pure
/// function of the state, so push-time vs pop-time changes nothing).
struct BitState {
  uint64_t bits = 0;
  estimation::StateParams params;
};

/// Deque of frontier work items (BitState, or a variant carrying more
/// per-state data) with the same memory accounting role as StateQueue.
template <typename Entry>
class BitQueue {
 public:
  explicit BitQueue(SearchMetrics& metrics) : metrics_(metrics) {}
  ~BitQueue() { metrics_.memory.Release(queue_.size() * kEntryBytes); }

  void PushBack(Entry state) {
    metrics_.memory.Allocate(kEntryBytes);
    queue_.push_back(state);
  }
  void PushFront(Entry state) {
    metrics_.memory.Allocate(kEntryBytes);
    queue_.push_front(state);
  }
  Entry PopFront() {
    Entry out = queue_.front();
    queue_.pop_front();
    metrics_.memory.Release(kEntryBytes);
    return out;
  }
  bool empty() const { return queue_.empty(); }
  size_t size() const { return queue_.size(); }

 private:
  static constexpr size_t kEntryBytes = sizeof(Entry);
  std::deque<Entry> queue_;
  SearchMetrics& metrics_;
};

using BitStateQueue = BitQueue<BitState>;

/// Visited set over bitmask states, with memory accounting. For k up to
/// kDenseMaxK the whole 2^k state universe fits a direct bitmap (one bit
/// per state, 2 MiB at the cap), making CheckAndInsert a test-and-set —
/// the profiled scalar loop spent ~50% of its time hashing and rehashing
/// visited states, and the dense form removes that entirely. Larger k
/// (only reachable in synthetic tests) falls back to a hash set.
class BitVisitedSet {
 public:
  static constexpr size_t kDenseMaxK = 24;

  BitVisitedSet(SearchMetrics& metrics, size_t k) : metrics_(metrics) {
    if (k <= kDenseMaxK) {
      dense_.assign(((size_t{1} << k) + 63) / 64, 0);
      metrics_.memory.Allocate(dense_.size() * sizeof(uint64_t));
    }
  }
  ~BitVisitedSet() {
    metrics_.memory.Release((dense_.size() + set_.size()) *
                            sizeof(uint64_t));
  }

  /// Returns true if `state` was already present; inserts it otherwise.
  bool CheckAndInsert(uint64_t state) {
    if (!dense_.empty()) {
      uint64_t& word = dense_[state >> 6];
      const uint64_t bit = uint64_t{1} << (state & 63);
      if ((word & bit) != 0) return true;
      word |= bit;
      ++dense_count_;
      return false;
    }
    auto [it, inserted] = set_.insert(state);
    if (inserted) metrics_.memory.Allocate(sizeof(uint64_t));
    return !inserted;
  }

  size_t size() const {
    return dense_.empty() ? set_.size() : dense_count_;
  }

 private:
  std::vector<uint64_t> dense_;  ///< bit s set <=> state s visited
  size_t dense_count_ = 0;
  std::unordered_set<uint64_t> set_;  ///< k > kDenseMaxK fallback
  SearchMetrics& metrics_;
};

/// IndexSet::Dominates over equal-popcount bitmasks: true iff the j-th
/// smallest member of `a` is <= the j-th smallest member of `b` for all j.
inline bool DominatesBits(uint64_t a, uint64_t b) {
  while (b != 0) {
    if (std::countr_zero(a) > std::countr_zero(b)) return false;
    a &= a - 1;
    b &= b - 1;
  }
  return true;
}

/// BoundaryStore over bitmask states: same maximal-boundary maintenance
/// and queries, same boundaries_found accounting, uint64 domination.
/// Groups live in a flat array indexed by popcount.
///
/// Each group also counts its Adds (its generation). Add only ever
/// replaces boundaries by one that dominates them, so a state that no
/// boundary of its group dominated stays undominated until the group's
/// generation moves: DominatesAnySince() skips the scan in that case.
/// Generations count modulo 2^32; a stale one could only alias after 2^32
/// Adds to one group, i.e. billions of pops, between two checks.
class BitBoundaryStore {
 public:
  explicit BitBoundaryStore(SearchMetrics& metrics) : metrics_(metrics) {}
  ~BitBoundaryStore() {
    metrics_.memory.Release(stored_ * sizeof(uint64_t));
  }

  void Add(uint64_t boundary) {
    Group& group = groups_[static_cast<size_t>(std::popcount(boundary))];
    std::vector<uint64_t>& members = group.members;
    for (size_t i = members.size(); i-- > 0;) {
      if (DominatesBits(boundary, members[i])) {
        metrics_.memory.Release(sizeof(uint64_t));
        --stored_;
        members.erase(members.begin() + static_cast<ptrdiff_t>(i));
      }
    }
    members.push_back(boundary);
    ++group.generation;
    metrics_.memory.Allocate(sizeof(uint64_t));
    ++stored_;
    ++metrics_.boundaries_found;
  }

  bool DominatesAny(uint64_t state) const {
    for (uint64_t b : GroupOf(state).members) {
      if (b == state) continue;
      if (DominatesBits(b, state)) return true;
    }
    return false;
  }

  /// DominatesAny(v) for a Vertical neighbor v of a state that no stored
  /// boundary dominates or equals, where v moved one member up to
  /// position `to`. A boundary that dominates v but not the parent must
  /// hold `to` at the rank it has in v, so one bit test and one popcount
  /// rule out most boundaries before the full domination check.
  bool DominatesVerticalNeighbor(uint64_t v, int to) const {
    const uint64_t below = (uint64_t{1} << to) - 1;
    const int rank = std::popcount(v & below);
    for (uint64_t b : GroupOf(v).members) {
      if (((b >> to) & 1) == 0 || std::popcount(b & below) != rank) continue;
      if (b != v && DominatesBits(b, v)) return true;
    }
    return false;
  }

  /// Generation of `state`'s group: the number of Adds to it so far.
  uint32_t Generation(uint64_t state) const {
    return GroupOf(state).generation;
  }

  /// DominatesAny(state), given that it was false when the group was at
  /// `generation`: false without a scan if the group has not changed.
  bool DominatesAnySince(uint64_t state, uint32_t generation) const {
    return Generation(state) != generation && DominatesAny(state);
  }

  bool empty() const { return stored_ == 0; }

  /// All boundaries as IndexSets, ordered by decreasing group size —
  /// drop-in replacement for BoundaryStore::DescendingBySize().
  std::vector<IndexSet> DescendingBySize() const {
    std::vector<IndexSet> out;
    out.reserve(stored_);
    for (size_t size = groups_.size(); size-- > 0;) {
      for (uint64_t b : groups_[size].members) {
        out.push_back(IndexSet::FromBits(b));
      }
    }
    return out;
  }

 private:
  struct Group {
    std::vector<uint64_t> members;
    uint32_t generation = 0;
  };
  const Group& GroupOf(uint64_t state) const {
    return groups_[static_cast<size_t>(std::popcount(state))];
  }

  std::array<Group, 65> groups_;  ///< index = popcount, 0..64
  size_t stored_ = 0;
  SearchMetrics& metrics_;
};

/// Resolves the batch evaluator a Solve() should use for `space`: the
/// shared artifact from ctx when it was built over the same preference
/// vector (PreparedSpace::BatchForProblem hands out the pruned space's
/// arrays), else one constructed into `local`. Returns nullptr — meaning
/// "stay on the scalar path" — when ctx.allow_batch_eval is false or the
/// space does not fit a uint64 mask.
const estimation::BatchEvaluator* ResolveBatchEvaluator(
    const space::PreferenceSpaceResult& space, SearchContext& ctx,
    std::optional<estimation::BatchEvaluator>& local);

/// The paper's C_FINDMAXDOI slot-swap: the maximum-doi state dominated by
/// `boundary` (positions), exact under SpaceView::GreedyPhase2Exact().
/// Returns a position-set.
IndexSet GreedyMaxDoiBelow(const SpaceView& view, const IndexSet& boundary);

/// Phase 2 for doi-maximization problems: the best feasible state at or
/// below any of `boundaries` (position-sets), also considering the empty
/// state. Uses the greedy slot-swap when exact for the view, otherwise an
/// exhaustive region scan of each boundary's dominated cone (needed when
/// constraints beyond the space's key exist, e.g. smax — the paper's
/// Up/Low-boundary enhancement of §6 generalized). Honors ctx's budget:
/// stops scanning on exhaustion, keeping the best state found so far.
Solution BestFeasibleBelowBoundaries(const SpaceView& view,
                                     const std::vector<IndexSet>& boundaries,
                                     SearchContext& ctx);

/// Wraps a position-set solution into P-index form.
Solution MakeSolution(const SpaceView& view, const IndexSet& positions,
                      const estimation::StateParams& params);

/// Space the boundary (C-family) algorithms search for `problem`: the cost
/// space when a cost bound exists, otherwise the size space (paper §6).
/// Fails for problems without a degrading bound.
StatusOr<SpaceKind> BoundSpaceKindFor(const ProblemSpec& problem);

/// Result of a greedy Horizontal2 fill.
struct FillResult {
  IndexSet state;
  estimation::StateParams params;
};

/// Extends `state` by repeatedly adding the first Horizontal2 candidate (in
/// increasing position order, i.e. decreasing key order) that keeps the
/// binding bound, until none fits. `banned`, if non-null, marks positions
/// that must not be added (used by D-HeurDoi's refinement). Stops early
/// (keeping the fill so far) when ctx's budget runs out.
FillResult GreedyFill(const SpaceView& view, IndexSet state,
                      estimation::StateParams params,
                      const std::vector<bool>* banned, SearchContext& ctx);

/// Bitmask result of a batch greedy Horizontal2 fill.
struct BitFillResult {
  uint64_t bits = 0;
  estimation::StateParams params;
};

/// GreedyFill in the bitmask domain, requires view.batch_enabled():
/// candidates are batch-extended in chunks of a few lanes and the first
/// in-bound one (in the same increasing-position order as GreedyFill) is
/// accepted per round, so the fill reaches the same maximal state.
BitFillResult GreedyFillBits(const SpaceView& view, uint64_t bits,
                             estimation::StateParams params,
                             SearchContext& ctx);

/// The infeasible sentinel (no state satisfies the constraints).
Solution InfeasibleSolution(const estimation::StateEvaluator& evaluator);

}  // namespace cqp::cqp

#endif  // CQP_CQP_SEARCH_UTIL_H_
