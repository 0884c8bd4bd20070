#include "cqp/transitions.h"

#include <bit>

#include "common/logging.h"

namespace cqp::cqp {

std::optional<IndexSet> Horizontal(const IndexSet& state, size_t k) {
  CQP_CHECK(!state.empty()) << "Horizontal requires a non-empty state";
  int32_t max = state.Max();
  if (max + 1 >= static_cast<int32_t>(k)) return std::nullopt;
  return state.WithAdded(max + 1);
}

std::vector<IndexSet> VerticalNeighbors(const IndexSet& state, size_t k) {
  std::vector<IndexSet> out;
  for (int32_t member : state) {
    int32_t next = member + 1;
    if (next >= static_cast<int32_t>(k)) continue;
    if (state.Contains(next)) continue;
    out.push_back(state.WithReplaced(member, next));
  }
  return out;
}

uint64_t HorizontalBits(uint64_t state, size_t k) {
  CQP_CHECK(state != 0) << "Horizontal requires a non-empty state";
  const int max = 63 - std::countl_zero(state);
  if (max + 1 >= static_cast<int>(k)) return 0;
  return state | (uint64_t{1} << (max + 1));
}

void VerticalNeighborsBits(uint64_t state, size_t k,
                           std::vector<uint64_t>* out) {
  ForEachVerticalNeighborBits(state, k,
                              [out](uint64_t v) { out->push_back(v); });
}

std::vector<int32_t> Horizontal2Candidates(const IndexSet& state, size_t k) {
  std::vector<int32_t> out;
  out.reserve(k - state.size());
  size_t member_pos = 0;
  for (int32_t i = 0; i < static_cast<int32_t>(k); ++i) {
    if (member_pos < state.size() && state[member_pos] == i) {
      ++member_pos;
      continue;
    }
    out.push_back(i);
  }
  return out;
}

}  // namespace cqp::cqp
