#ifndef CQP_CQP_TRANSITIONS_H_
#define CQP_CQP_TRANSITIONS_H_

#include <bit>
#include <cstdint>
#include <optional>
#include <vector>

#include "common/index_set.h"

namespace cqp::cqp {

/// Syntactic state transitions (paper §5.1/§5.2.1).
///
/// States are sets of 0-based positions into a pointer vector (C, D or S)
/// of size K. Because the vector is sorted by the space's key parameter,
/// every transition has a *known* direction of change for that parameter —
/// the syntax-based partial orders of Observation 1.

/// Horizontal(Cx): Cx ∪ {i+1} where i is the largest member. Moves to the
/// next group (one more preference), adding the successor of the largest
/// member. Returns nullopt when the largest member is already K-1.
std::optional<IndexSet> Horizontal(const IndexSet& state, size_t k);

/// Vertical(Cx): every set obtained by replacing a member i with i+1 when
/// i+1 is not already a member. Stays in the same group; moves "down" the
/// key order (lower cost in the cost space, larger size in the size space).
/// Neighbors are returned in increasing replaced-position order (the paper
/// orders them by decreasing cost; any fixed order preserves correctness
/// since all neighbors are enqueued).
std::vector<IndexSet> VerticalNeighbors(const IndexSet& state, size_t k);

/// Horizontal2 candidates: the positions not in `state`, in increasing
/// position order — i.e. in decreasing key order, matching the paper's
/// "ordered in decreasing cost". The caller extends `state` with the first
/// candidate that satisfies the bound (greedy maximal fill).
std::vector<int32_t> Horizontal2Candidates(const IndexSet& state, size_t k);

// Bitmask fast paths of the same transitions, for the batch-evaluation
// search loops (k < 64; a state is a uint64 of position bits). They visit
// neighbors in the same order as their IndexSet counterparts.

/// Horizontal for a non-empty bitmask state; 0 when the largest member is
/// already K-1 (0 is never a valid successor — it would be the empty set).
uint64_t HorizontalBits(uint64_t state, size_t k);

/// Calls fn(neighbor) for each VerticalNeighbors member of a bitmask
/// state, in increasing replaced-position order.
template <typename Fn>
void ForEachVerticalNeighborBits(uint64_t state, size_t k, Fn&& fn) {
  for (uint64_t rest = state; rest != 0; rest &= rest - 1) {
    const int member = std::countr_zero(rest);
    const int next = member + 1;
    if (next >= static_cast<int>(k)) continue;
    if ((state >> next) & 1) continue;
    fn((state ^ (uint64_t{1} << member)) | (uint64_t{1} << next));
  }
}

/// VerticalNeighbors for a bitmask state, appended to `out` in increasing
/// replaced-position order.
void VerticalNeighborsBits(uint64_t state, size_t k,
                           std::vector<uint64_t>* out);

}  // namespace cqp::cqp

#endif  // CQP_CQP_TRANSITIONS_H_
