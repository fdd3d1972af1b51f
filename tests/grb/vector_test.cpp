#include <gtest/gtest.h>

#include <cstdint>
#include <utility>
#include <vector>

#include "grb/grb.hpp"
#include "support/rng.hpp"

namespace {

using grb::Index;
using grb::Vector;
using U64 = std::uint64_t;

TEST(Vector, NewVectorIsEmpty) {
  const Vector<U64> v(10);
  EXPECT_EQ(v.size(), 10u);
  EXPECT_EQ(v.nvals(), 0u);
  EXPECT_TRUE(v.empty());
  EXPECT_FALSE(v.at(3).has_value());
}

TEST(Vector, BuildSortsAndStores) {
  const auto v = Vector<U64>::build(6, {4, 1, 3}, {40, 10, 30});
  EXPECT_EQ(v.nvals(), 3u);
  EXPECT_EQ(v.at_or(1, 0), 10u);
  EXPECT_EQ(v.at_or(3, 0), 30u);
  EXPECT_EQ(v.at_or(4, 0), 40u);
  EXPECT_EQ(v.at_or(0, 0), 0u);
  EXPECT_EQ(v.indices()[0], 1u);
  EXPECT_EQ(v.indices()[2], 4u);
}

TEST(Vector, BuildCombinesDuplicatesWithDup) {
  const auto plus =
      Vector<U64>::build(4, {2, 2, 2}, {1, 2, 3}, grb::Plus<U64>{});
  EXPECT_EQ(plus.nvals(), 1u);
  EXPECT_EQ(plus.at_or(2, 0), 6u);
  // Default dup is Second: last value wins.
  const auto second = Vector<U64>::build(4, {2, 2}, {7, 9});
  EXPECT_EQ(second.at_or(2, 0), 9u);
}

TEST(Vector, BuildRejectsOutOfBounds) {
  EXPECT_THROW(Vector<U64>::build(3, {3}, {1}), grb::IndexOutOfBounds);
}

TEST(Vector, BuildRejectsLengthMismatch) {
  EXPECT_THROW(Vector<U64>::build(3, {0, 1}, {1}), grb::InvalidValue);
}

TEST(Vector, SetInsertsAndOverwrites) {
  Vector<U64> v(5);
  v.set(2, 20);
  v.set(0, 5);
  v.set(2, 21);
  EXPECT_EQ(v.nvals(), 2u);
  EXPECT_EQ(v.at_or(2, 0), 21u);
  EXPECT_EQ(v.at_or(0, 0), 5u);
}

TEST(Vector, EraseRemovesEntry) {
  auto v = Vector<U64>::build(5, {1, 2, 3}, {1, 2, 3});
  v.erase(2);
  EXPECT_EQ(v.nvals(), 2u);
  EXPECT_FALSE(v.at(2).has_value());
  v.erase(2);  // idempotent
  EXPECT_EQ(v.nvals(), 2u);
}

TEST(Vector, BatchEraseRemovesPresentIndicesInOnePass) {
  auto v = Vector<U64>::build(8, {0, 2, 3, 5, 7}, {10, 20, 30, 50, 70});
  const std::vector<Index> gone{0, 1, 3, 3, 7};
  v.erase(gone);
  EXPECT_EQ(v, Vector<U64>::build(8, {2, 5}, {20, 50}));
  v.erase(std::vector<Index>{});
  EXPECT_EQ(v, Vector<U64>::build(8, {2, 5}, {20, 50}));
  const auto before = v;
  EXPECT_THROW(v.erase(std::vector<Index>{2, 8}), grb::IndexOutOfBounds);
  EXPECT_EQ(v, before);
}

TEST(Vector, AccessOutOfBoundsThrows) {
  Vector<U64> v(3);
  EXPECT_THROW((void)v.at(3), grb::IndexOutOfBounds);
  EXPECT_THROW(v.set(5, 1), grb::IndexOutOfBounds);
  EXPECT_THROW(v.erase(3), grb::IndexOutOfBounds);
}

TEST(Vector, ResizeGrowKeepsEntries) {
  auto v = Vector<U64>::build(4, {0, 3}, {1, 2});
  v.resize(10);
  EXPECT_EQ(v.size(), 10u);
  EXPECT_EQ(v.nvals(), 2u);
  EXPECT_EQ(v.at_or(3, 0), 2u);
}

TEST(Vector, ResizeShrinkDropsTail) {
  auto v = Vector<U64>::build(10, {0, 4, 9}, {1, 2, 3});
  v.resize(5);
  EXPECT_EQ(v.size(), 5u);
  EXPECT_EQ(v.nvals(), 2u);
  EXPECT_EQ(v.at_or(4, 0), 2u);
}

TEST(Vector, ClearKeepsSize) {
  auto v = Vector<U64>::build(4, {1}, {1});
  v.clear();
  EXPECT_EQ(v.size(), 4u);
  EXPECT_EQ(v.nvals(), 0u);
}

TEST(Vector, DenseAndFull) {
  const auto d = Vector<Index>::dense(4, [](Index i) { return i * i; });
  EXPECT_EQ(d.nvals(), 4u);
  EXPECT_EQ(d.at_or(3, 0), 9u);
  const auto f = Vector<U64>::full(3, 7);
  EXPECT_EQ(f.to_dense(), (std::vector<U64>{7, 7, 7}));
}

TEST(Vector, ToDenseUsesFill) {
  const auto v = Vector<U64>::build(4, {1}, {5});
  EXPECT_EQ(v.to_dense(9), (std::vector<U64>{9, 5, 9, 9}));
}

TEST(Vector, ExtractTuplesRoundTrip) {
  const auto v = Vector<U64>::build(6, {5, 0, 2}, {50, 1, 20});
  std::vector<Index> idx;
  std::vector<U64> vals;
  v.extract_tuples(idx, vals);
  const auto rebuilt = Vector<U64>::build(6, idx, vals);
  EXPECT_EQ(rebuilt, v);
}

TEST(Vector, EqualityComparesPatternAndValues) {
  const auto a = Vector<U64>::build(4, {1, 2}, {1, 2});
  const auto b = Vector<U64>::build(4, {1, 2}, {1, 2});
  const auto c = Vector<U64>::build(4, {1, 2}, {1, 3});
  const auto d = Vector<U64>::build(5, {1, 2}, {1, 2});
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  EXPECT_NE(a, d);
}

class VectorBuildSweep : public ::testing::TestWithParam<Index> {};

TEST_P(VectorBuildSweep, BuildFromReversedIndicesSortsCorrectly) {
  const Index n = GetParam();
  std::vector<Index> idx;
  std::vector<U64> vals;
  for (Index i = n; i-- > 0;) {
    idx.push_back(i);
    vals.push_back(i * 3 + 1);
  }
  const auto v = Vector<U64>::build(n, idx, vals);
  EXPECT_EQ(v.nvals(), n);
  for (Index i = 0; i < n; ++i) {
    EXPECT_EQ(v.at_or(i, 0), i * 3 + 1);
  }
  const auto is = v.indices();
  for (std::size_t k = 1; k < is.size(); ++k) {
    EXPECT_LT(is[k - 1], is[k]);
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, VectorBuildSweep,
                         ::testing::Values(1, 2, 7, 64, 1000));

// adopt_sorted is the Vector counterpart of Matrix::adopt_csr: kernels hand
// it pre-sorted arrays, and the CsrCheck toggle controls whether the
// sorted-unique/in-range invariants are verified (kDebug = debug builds
// only; kAlways pins violations here in every build type).

TEST(VectorAdoptSorted, AcceptsValidArraysWithAlwaysCheck) {
  const auto v = Vector<U64>::adopt_sorted(6, {1, 3, 4}, {10, 30, 40},
                                           grb::CsrCheck::kAlways);
  EXPECT_EQ(v.nvals(), 3u);
  EXPECT_EQ(v.at_or(3, 0), 30u);
}

TEST(VectorAdoptSorted, UnsortedIndicesThrow) {
  EXPECT_THROW(Vector<U64>::adopt_sorted(6, {3, 1}, {30, 10},
                                         grb::CsrCheck::kAlways),
               grb::InvalidValue);
}

TEST(VectorAdoptSorted, DuplicateIndicesThrow) {
  EXPECT_THROW(Vector<U64>::adopt_sorted(6, {2, 2}, {20, 21},
                                         grb::CsrCheck::kAlways),
               grb::InvalidValue);
}

TEST(VectorAdoptSorted, OutOfRangeIndexThrows) {
  EXPECT_THROW(Vector<U64>::adopt_sorted(6, {1, 6}, {10, 60},
                                         grb::CsrCheck::kAlways),
               grb::InvalidValue);
}

TEST(VectorAdoptSorted, MismatchedArraySizesThrow) {
  EXPECT_THROW(Vector<U64>::adopt_sorted(6, {1, 2}, {10},
                                         grb::CsrCheck::kAlways),
               grb::InvalidValue);
}

TEST(VectorAdoptSorted, NeverSkipsTheCheck) {
  // kNever adopts without looking — the escape hatch for kernels that
  // guarantee the invariants structurally. The arrays here are broken on
  // purpose; only the metadata may be observed.
  const auto v = Vector<U64>::adopt_sorted(6, {3, 1}, {30, 10},
                                           grb::CsrCheck::kNever);
  EXPECT_EQ(v.nvals(), 2u);
}

// --- accumulate: w ⊕= u in place ---------------------------------------------

enum class UPattern { kRandom, kEmpty, kAllNew, kAllExisting };

// A random w of size n and a u whose pattern relates to w's as `pattern`
// says. Where u meets w, u's value is at most w's, so Minus never wraps.
std::pair<Vector<U64>, Vector<U64>> accumulate_operands(std::uint64_t seed,
                                                        UPattern pattern) {
  grbsm::support::Xoshiro256 rng(seed);
  const Index n = 1 + rng.bounded(200);
  std::vector<Index> wi, ui;
  std::vector<U64> wv, uv;
  for (Index i = 0; i < n; ++i) {
    const bool in_w = rng.bounded(3) == 0;
    if (in_w) {
      wi.push_back(i);
      wv.push_back(1 + rng.bounded(1000));
    }
    bool in_u = false;
    if (pattern == UPattern::kRandom) {
      in_u = rng.bounded(4) == 0;
    } else if (pattern == UPattern::kAllNew) {
      in_u = !in_w && rng.bounded(2) == 0;
    } else if (pattern == UPattern::kAllExisting) {
      in_u = in_w && rng.bounded(2) == 0;
    }
    if (in_u) {
      ui.push_back(i);
      uv.push_back(in_w ? rng.bounded(wv.back() + 1) : 1 + rng.bounded(1000));
    }
  }
  return {Vector<U64>::build(n, wi, wv), Vector<U64>::build(n, ui, uv)};
}

template <typename Op>
void expect_accumulate_matches_ewise_add(Op op, UPattern pattern) {
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    auto [w, u] = accumulate_operands(seed, pattern);
    Vector<U64> expected(w.size());
    grb::eWiseAdd(expected, op, w, u);
    w.accumulate(u, op);
    EXPECT_EQ(w, expected) << "seed " << seed;
    w.check_invariants();
  }
}

TEST(VectorAccumulate, PlusMatchesEwiseAdd) {
  for (const auto p : {UPattern::kRandom, UPattern::kEmpty, UPattern::kAllNew,
                       UPattern::kAllExisting}) {
    expect_accumulate_matches_ewise_add(grb::Plus<U64>{}, p);
  }
}

TEST(VectorAccumulate, MinusOnTheIntersectionMatchesEwiseAdd) {
  for (const auto p : {UPattern::kEmpty, UPattern::kAllExisting}) {
    expect_accumulate_matches_ewise_add(grb::Minus<U64>{}, p);
  }
}

TEST(VectorAccumulate, SecondMatchesEwiseAdd) {
  for (const auto p : {UPattern::kRandom, UPattern::kEmpty, UPattern::kAllNew,
                       UPattern::kAllExisting}) {
    expect_accumulate_matches_ewise_add(grb::Second<U64>{}, p);
  }
}

TEST(VectorAccumulate, SizeMismatchThrowsAndLeavesVectorUnchanged) {
  auto w = Vector<U64>::build(4, {1, 3}, {10, 30});
  const auto before = w;
  EXPECT_THROW(w.accumulate(Vector<U64>::build(5, {0}, {1}), grb::Plus<U64>{}),
               grb::DimensionMismatch);
  EXPECT_EQ(w, before);
}

TEST(VectorAccumulate, SelfAccumulateDoublesInPlace) {
  auto w = Vector<U64>::build(4, {1, 3}, {10, 30});
  w.accumulate(w, grb::Plus<U64>{});
  EXPECT_EQ(w, Vector<U64>::build(4, {1, 3}, {20, 60}));
}

}  // namespace
