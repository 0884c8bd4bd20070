// Bit-for-bit parity of estimation::BatchEvaluator against the scalar
// StateEvaluator oracle. Every comparison here is operator== on doubles —
// batch evaluation is required to reproduce the scalar chain exactly
// (docs/simd.md), so no tolerance is ever appropriate in this file.

#include "estimation/batch_evaluator.h"

#include <vector>

#include "common/rng.h"
#include "estimation/evaluator.h"
#include "gtest/gtest.h"
#include "testing/instance.h"

namespace cqp::estimation {
namespace {

using ::cqp::testing::MakeSyntheticPref;
using prefs::ConjunctionModel;

struct Fixture {
  QueryBaseEstimate base;
  std::vector<ScoredPreference> prefs;
};

Fixture MakeFixture(uint64_t seed, size_t k) {
  Rng rng(seed);
  Fixture f;
  f.base.cost_ms = rng.UniformDouble(1.0, 500.0);
  f.base.size = rng.UniformDouble(10.0, 1e7);
  for (size_t i = 0; i < k; ++i) {
    f.prefs.push_back(MakeSyntheticPref(
        i, rng.NextDouble(), f.base.cost_ms + rng.UniformDouble(0.0, 2000.0),
        rng.NextDouble(), f.base.size));
  }
  return f;
}

void ExpectExactlyEqual(const StateParams& got, const StateParams& want,
                        const std::string& what) {
  EXPECT_EQ(got.doi, want.doi) << what;
  EXPECT_EQ(got.cost_ms, want.cost_ms) << what;
  EXPECT_EQ(got.size, want.size) << what;
  EXPECT_EQ(got.count, want.count) << what;
}

TEST(BatchEvaluatorTest, EvaluateMasksMatchesEvaluateBitsExactly) {
  for (ConjunctionModel model :
       {ConjunctionModel::kNoisyOr, ConjunctionModel::kSumCapped}) {
    for (size_t k : {1u, 2u, 3u, 7u, 13u, 20u, 63u}) {
      Fixture f = MakeFixture(100 + k, k);
      StateEvaluator scalar(f.base, f.prefs, model);
      BatchEvaluator batch(f.base, f.prefs, model);
      Rng rng(7 * k + static_cast<uint64_t>(model));
      const uint64_t all = k == 64 ? ~uint64_t{0} : (uint64_t{1} << k) - 1;
      for (size_t n : {1u, 2u, 3u, 5u, 8u, 17u}) {
        std::vector<uint64_t> masks(n);
        for (uint64_t& m : masks) m = rng.Next() & all;
        masks[0] = 0;    // the empty state
        masks[n - 1] = all;  // the supreme state
        BatchEvaluator::Results results;
        batch.EvaluateMasks(masks.data(), n, &results);
        ASSERT_EQ(results.n, n);
        for (size_t l = 0; l < n; ++l) {
          ExpectExactlyEqual(results.Get(l), scalar.EvaluateBits(masks[l]),
                             "k=" + std::to_string(k) +
                                 " lane=" + std::to_string(l));
        }
      }
    }
  }
}

TEST(BatchEvaluatorTest, EvaluateSequenceMatchesExtendWithChain) {
  for (ConjunctionModel model :
       {ConjunctionModel::kNoisyOr, ConjunctionModel::kSumCapped}) {
    Fixture f = MakeFixture(42, 16);
    StateEvaluator scalar(f.base, f.prefs, model);
    BatchEvaluator batch(f.base, f.prefs, model);
    Rng rng(static_cast<uint64_t>(model) + 5);
    for (int trial = 0; trial < 50; ++trial) {
      // A random parent chain, then a shuffled sequence over the rest —
      // sequences are applied in *given* order (MinCost-BB feeds a
      // cost-ascending order, not ascending P index).
      std::vector<int32_t> all(16);
      for (int32_t i = 0; i < 16; ++i) all[i] = i;
      rng.Shuffle(all);
      const size_t parent_len = static_cast<size_t>(rng.Uniform(0, 8));
      StateParams parent = scalar.EmptyState();
      for (size_t i = 0; i < parent_len; ++i) {
        parent = scalar.ExtendWith(parent, all[i]);
      }
      const std::vector<int32_t> seq(all.begin() + parent_len, all.end());
      const size_t n = static_cast<size_t>(rng.Uniform(1, 9));
      std::vector<uint64_t> lane_masks(n);
      for (uint64_t& m : lane_masks) {
        m = rng.Next() & ((uint64_t{1} << seq.size()) - 1);
      }
      BatchEvaluator::Results results;
      batch.EvaluateSequence(parent, seq.data(), seq.size(),
                             lane_masks.data(), n, &results);
      for (size_t l = 0; l < n; ++l) {
        StateParams want = parent;
        for (size_t j = 0; j < seq.size(); ++j) {
          if ((lane_masks[l] >> j) & 1) want = scalar.ExtendWith(want, seq[j]);
        }
        ExpectExactlyEqual(results.Get(l), want,
                           "trial=" + std::to_string(trial) +
                               " lane=" + std::to_string(l));
      }
    }
  }
}

TEST(BatchEvaluatorTest, ExtendBatchMatchesExtendWith) {
  Fixture f = MakeFixture(9, 12);
  StateEvaluator scalar(f.base, f.prefs);
  BatchEvaluator batch(f.base, f.prefs);
  StateParams parent = scalar.ExtendWith(scalar.EmptyState(), 3);
  std::vector<int32_t> idx = {0, 1, 2, 4, 5, 6, 7, 8, 9, 10, 11};
  BatchEvaluator::Results results;
  batch.ExtendBatch(parent, idx.data(), idx.size(), &results);
  for (size_t l = 0; l < idx.size(); ++l) {
    ExpectExactlyEqual(results.Get(l), scalar.ExtendWith(parent, idx[l]),
                       "lane=" + std::to_string(l));
  }
  ExpectExactlyEqual(batch.EmptyState(), scalar.EmptyState(), "empty");
  ExpectExactlyEqual(batch.ExtendWith(parent, 5), scalar.ExtendWith(parent, 5),
                     "scalar ExtendWith mirror");
}

/// The scalar chain for `parent` extended by { seq[j] : bit j of mask },
/// in sequence order — what every EvaluateSequence lane must reproduce.
StateParams SequenceChain(const StateEvaluator& scalar, StateParams parent,
                          const std::vector<int32_t>& seq, uint64_t mask) {
  for (size_t j = 0; j < seq.size(); ++j) {
    if ((mask >> j) & 1) parent = scalar.ExtendWith(parent, seq[j]);
  }
  return parent;
}

TEST(BatchEvaluatorTest, EvaluateMasksSingleBitsAndFullSpace) {
  for (ConjunctionModel model :
       {ConjunctionModel::kNoisyOr, ConjunctionModel::kSumCapped}) {
    Fixture f = MakeFixture(31, 63);
    StateEvaluator scalar(f.base, f.prefs, model);
    BatchEvaluator batch(f.base, f.prefs, model);
    // Every single-bit state, then the empty and the full K=63 state.
    std::vector<uint64_t> masks;
    for (size_t i = 0; i < 63; ++i) masks.push_back(uint64_t{1} << i);
    masks.push_back(0);
    masks.push_back((uint64_t{1} << 63) - 1);
    BatchEvaluator::Results results;
    batch.EvaluateMasks(masks.data(), masks.size(), &results);
    ASSERT_EQ(results.n, masks.size());
    for (size_t l = 0; l < masks.size(); ++l) {
      ExpectExactlyEqual(results.Get(l), scalar.EvaluateBits(masks[l]),
                         "lane=" + std::to_string(l));
    }
  }
}

TEST(BatchEvaluatorTest, EvaluateSequenceFullFamiliesMatchExtendWithChain) {
  for (ConjunctionModel model :
       {ConjunctionModel::kNoisyOr, ConjunctionModel::kSumCapped}) {
    Fixture f = MakeFixture(11, 20);
    StateEvaluator scalar(f.base, f.prefs, model);
    BatchEvaluator batch(f.base, f.prefs, model);
    Rng rng(static_cast<uint64_t>(model) + 17);
    for (size_t len = 0; len <= BatchEvaluator::kMaxFamilyBits + 1; ++len) {
      std::vector<int32_t> all(20);
      for (int32_t i = 0; i < 20; ++i) all[i] = i;
      rng.Shuffle(all);
      StateParams parent = scalar.EmptyState();
      for (size_t i = 0; i < 3; ++i) {
        parent = scalar.ExtendWith(parent, all[i]);
      }
      const auto first = all.begin() + 3;
      const std::vector<int32_t> seq(first,
                                     first + static_cast<ptrdiff_t>(len));
      const size_t n = size_t{1} << len;
      // Identity lane order (MinCost-BB's tail: mask l == l) and the
      // bit-reversed order of Exhaustive's tail (position j included iff
      // bit len-1-j of l is set).
      std::vector<uint64_t> identity(n);
      std::vector<uint64_t> reversed(n);
      for (size_t l = 0; l < n; ++l) {
        identity[l] = l;
        for (size_t j = 0; j < len; ++j) {
          if ((l >> (len - 1 - j)) & 1) reversed[l] |= uint64_t{1} << j;
        }
      }
      // Partial families: every lane but the last, and every other lane.
      std::vector<uint64_t> all_but_last(identity.begin(), identity.end() - 1);
      std::vector<uint64_t> every_other;
      for (size_t l = 0; l < n; l += 2) every_other.push_back(reversed[l]);
      for (const std::vector<uint64_t>* lanes :
           {&identity, &reversed, &all_but_last, &every_other}) {
        BatchEvaluator::Results results;
        batch.EvaluateSequence(parent, seq.data(), seq.size(), lanes->data(),
                               lanes->size(), &results);
        ASSERT_EQ(results.n, lanes->size());
        for (size_t l = 0; l < lanes->size(); ++l) {
          ExpectExactlyEqual(results.Get(l),
                             SequenceChain(scalar, parent, seq, (*lanes)[l]),
                             "len=" + std::to_string(len) +
                                 " lanes=" + std::to_string(lanes->size()) +
                                 " lane=" + std::to_string(l));
        }
      }
    }
  }
}

TEST(BatchEvaluatorTest, EmptyBatchAndExtremeValues) {
  Fixture f = MakeFixture(5, 6);
  BatchEvaluator batch(f.base, f.prefs);
  // n = 0 is a no-op, not a crash.
  BatchEvaluator::Results results;
  batch.EvaluateMasks(nullptr, 0, &results);
  EXPECT_EQ(results.n, 0u);
  // Extreme dois and selectivities pass through unchanged.
  std::vector<ScoredPreference> edge;
  edge.push_back(MakeSyntheticPref(0, 1.0, f.base.cost_ms, 0.0, f.base.size));
  edge.push_back(MakeSyntheticPref(1, 0.0, f.base.cost_ms, 1.0, f.base.size));
  StateEvaluator scalar(f.base, edge);
  BatchEvaluator be(f.base, edge);
  const uint64_t masks[3] = {1, 2, 3};
  be.EvaluateMasks(masks, 3, &results);
  for (size_t l = 0; l < 3; ++l) {
    ExpectExactlyEqual(results.Get(l), scalar.EvaluateBits(masks[l]),
                       "edge lane=" + std::to_string(l));
  }
}

}  // namespace
}  // namespace cqp::estimation
