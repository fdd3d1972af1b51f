#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "grb/grb.hpp"
#include "support/rng.hpp"

// GCC 12 emits a false-positive -Warray-bounds when it inlines Matrix::at on
// a tiny matrix inside EXPECT_THROW: the bounds check throws before the
// flagged access can ever execute, but the catch-path analysis misses that.
#pragma GCC diagnostic ignored "-Warray-bounds"

namespace {

using grb::Index;
using grb::Matrix;
using grb::Tuple;
using U64 = std::uint64_t;

TEST(Matrix, NewMatrixIsEmpty) {
  const Matrix<U64> m(3, 4);
  EXPECT_EQ(m.nrows(), 3u);
  EXPECT_EQ(m.ncols(), 4u);
  EXPECT_EQ(m.nvals(), 0u);
  EXPECT_FALSE(m.has(1, 1));
}

TEST(Matrix, BuildUnsortedInput) {
  const auto m = Matrix<U64>::build(
      3, 3, {{2, 1, 21}, {0, 2, 2}, {1, 0, 10}, {0, 0, 1}});
  EXPECT_EQ(m.nvals(), 4u);
  EXPECT_EQ(m.at(0, 0).value(), 1u);
  EXPECT_EQ(m.at(0, 2).value(), 2u);
  EXPECT_EQ(m.at(1, 0).value(), 10u);
  EXPECT_EQ(m.at(2, 1).value(), 21u);
}

TEST(Matrix, BuildCombinesDuplicates) {
  const auto m =
      Matrix<U64>::build(2, 2, {{1, 1, 3}, {1, 1, 4}}, grb::Plus<U64>{});
  EXPECT_EQ(m.nvals(), 1u);
  EXPECT_EQ(m.at(1, 1).value(), 7u);
}

TEST(Matrix, BuildRejectsOutOfBounds) {
  EXPECT_THROW(Matrix<U64>::build(2, 2, {{2, 0, 1}}), grb::IndexOutOfBounds);
  EXPECT_THROW(Matrix<U64>::build(2, 2, {{0, 2, 1}}), grb::IndexOutOfBounds);
}

TEST(Matrix, SetInsertsAndOverwrites) {
  Matrix<U64> m(3, 3);
  m.set(1, 2, 5);
  m.set(1, 0, 3);
  m.set(1, 2, 6);
  EXPECT_EQ(m.nvals(), 2u);
  EXPECT_EQ(m.at(1, 2).value(), 6u);
  EXPECT_EQ(m.at(1, 0).value(), 3u);
  m.check_invariants();
}

TEST(Matrix, RowViews) {
  const auto m = Matrix<U64>::build(2, 4, {{0, 1, 7}, {0, 3, 9}});
  const auto cols = m.row_cols(0);
  const auto vals = m.row_vals(0);
  ASSERT_EQ(cols.size(), 2u);
  EXPECT_EQ(cols[0], 1u);
  EXPECT_EQ(cols[1], 3u);
  EXPECT_EQ(vals[0], 7u);
  EXPECT_EQ(vals[1], 9u);
  EXPECT_TRUE(m.row_cols(1).empty());
  EXPECT_EQ(m.row_degree(0), 2u);
  EXPECT_EQ(m.row_degree(1), 0u);
}

TEST(Matrix, ResizeGrowKeepsEntriesAndInvariants) {
  auto m = Matrix<U64>::build(2, 2, {{0, 0, 1}, {1, 1, 2}});
  m.resize(4, 5);
  EXPECT_EQ(m.nrows(), 4u);
  EXPECT_EQ(m.ncols(), 5u);
  EXPECT_EQ(m.nvals(), 2u);
  EXPECT_EQ(m.at(1, 1).value(), 2u);
  EXPECT_TRUE(m.row_cols(3).empty());
  m.check_invariants();
  m.set(3, 4, 9);
  EXPECT_EQ(m.at(3, 4).value(), 9u);
}

TEST(Matrix, ResizeShrinkRowsDropsEntries) {
  auto m = Matrix<U64>::build(3, 3, {{0, 0, 1}, {2, 2, 3}});
  m.resize(1, 3);
  EXPECT_EQ(m.nrows(), 1u);
  EXPECT_EQ(m.nvals(), 1u);
  m.check_invariants();
}

TEST(Matrix, ResizeShrinkColsDropsEntries) {
  auto m = Matrix<U64>::build(2, 4, {{0, 0, 1}, {0, 3, 2}, {1, 2, 3}});
  m.resize(2, 2);
  EXPECT_EQ(m.ncols(), 2u);
  EXPECT_EQ(m.nvals(), 1u);
  EXPECT_EQ(m.at(0, 0).value(), 1u);
  m.check_invariants();
}

TEST(Matrix, InsertTuplesMergesSortedBatch) {
  auto m = Matrix<U64>::build(3, 3, {{0, 1, 1}, {2, 0, 2}});
  m.insert_tuples({{1, 1, 10}, {0, 0, 5}, {2, 2, 20}});
  EXPECT_EQ(m.nvals(), 5u);
  EXPECT_EQ(m.at(0, 0).value(), 5u);
  EXPECT_EQ(m.at(0, 1).value(), 1u);
  EXPECT_EQ(m.at(1, 1).value(), 10u);
  EXPECT_EQ(m.at(2, 2).value(), 20u);
  m.check_invariants();
}

TEST(Matrix, InsertTuplesCombinesWithExistingViaDup) {
  auto m = Matrix<U64>::build(2, 2, {{0, 0, 1}});
  m.insert_tuples({{0, 0, 2}, {0, 0, 3}}, grb::Plus<U64>{});
  EXPECT_EQ(m.nvals(), 1u);
  EXPECT_EQ(m.at(0, 0).value(), 6u);
}

TEST(Matrix, InsertTuplesRejectsOutOfBounds) {
  Matrix<U64> m(2, 2);
  EXPECT_THROW(m.insert_tuples({{2, 0, 1}}), grb::IndexOutOfBounds);
}

// The in-place merge against its definition: build() over the union.
void expect_insert_matches_build(Index nrows, Index ncols,
                                 const std::vector<Tuple<U64>>& first,
                                 const std::vector<Tuple<U64>>& batch) {
  auto m = Matrix<U64>::build(nrows, ncols, first);
  m.insert_tuples(batch);
  std::vector<Tuple<U64>> all = first;
  all.insert(all.end(), batch.begin(), batch.end());
  EXPECT_EQ(m, Matrix<U64>::build(nrows, ncols, all));
  m.check_invariants();
}

TEST(Matrix, InsertTuplesAfterLastStoredEntry) {
  expect_insert_matches_build(4, 4, {{0, 1, 1}, {1, 2, 2}},
                              {{1, 3, 3}, {3, 0, 4}, {3, 3, 5}});
}

TEST(Matrix, InsertTuplesInRowZero) {
  expect_insert_matches_build(3, 4, {{0, 1, 1}, {0, 3, 2}, {2, 0, 3}},
                              {{0, 0, 4}, {0, 2, 5}});
}

TEST(Matrix, InsertTuplesIntoRowsAddedByResize) {
  auto m = Matrix<U64>::build(2, 3, {{0, 1, 1}, {1, 2, 2}});
  m.resize(5, 4);
  m.insert_tuples({{4, 3, 3}, {0, 0, 4}, {3, 1, 5}, {3, 3, 6}});
  const std::vector<Tuple<U64>> all{{0, 0, 4}, {0, 1, 1}, {1, 2, 2},
                                    {3, 1, 5}, {3, 3, 6}, {4, 3, 3}};
  EXPECT_EQ(m, Matrix<U64>::build(5, 4, all));
  m.check_invariants();
}

TEST(Matrix, InsertTuplesOfExistingEntriesOnlyRunsDup) {
  auto m = Matrix<U64>::build(3, 3, {{0, 1, 1}, {1, 0, 2}, {2, 2, 3}});
  const std::vector<Index> rowptr(m.rowptr().begin(), m.rowptr().end());
  const std::vector<Index> colind(m.colind().begin(), m.colind().end());
  m.insert_tuples({{2, 2, 30}, {0, 1, 10}, {0, 1, 100}}, grb::Plus<U64>{});
  EXPECT_TRUE(std::equal(rowptr.begin(), rowptr.end(), m.rowptr().begin(),
                         m.rowptr().end()));
  EXPECT_TRUE(std::equal(colind.begin(), colind.end(), m.colind().begin(),
                         m.colind().end()));
  EXPECT_EQ(m.at(0, 1).value(), 111u);
  EXPECT_EQ(m.at(1, 0).value(), 2u);
  EXPECT_EQ(m.at(2, 2).value(), 33u);
}

TEST(Matrix, RemovePositionsIgnoresAbsentAndRepeatedPositions) {
  auto m = Matrix<U64>::build(3, 3, {{0, 1, 1}, {1, 0, 2}, {2, 2, 3}});
  EXPECT_EQ(m.remove_positions({{2, 2}, {0, 0}, {2, 2}, {1, 1}, {0, 1}}), 2u);
  EXPECT_EQ(m, Matrix<U64>::build(3, 3, {{1, 0, 2}}));
  EXPECT_EQ(m.remove_positions({{0, 0}, {2, 1}}), 0u);
  EXPECT_EQ(m, Matrix<U64>::build(3, 3, {{1, 0, 2}}));
  m.check_invariants();
}

TEST(Matrix, RemovePositionsCanEmptyARow) {
  auto m = Matrix<U64>::build(
      3, 3, {{0, 0, 1}, {1, 0, 2}, {1, 1, 3}, {1, 2, 4}, {2, 1, 5}});
  EXPECT_EQ(m.remove_positions({{1, 2}, {1, 0}, {1, 1}}), 3u);
  EXPECT_EQ(m.row_degree(1), 0u);
  EXPECT_EQ(m, Matrix<U64>::build(3, 3, {{0, 0, 1}, {2, 1, 5}}));
  m.check_invariants();
}

TEST(Matrix, OutOfBoundsBatchLeavesMatrixUnchanged) {
  auto m = Matrix<U64>::build(3, 3, {{0, 1, 1}, {1, 0, 2}, {2, 2, 3}});
  const auto before = m;
  EXPECT_THROW(m.insert_tuples({{0, 0, 9}, {1, 1, 9}, {3, 0, 9}}),
               grb::IndexOutOfBounds);
  EXPECT_EQ(m, before);
  EXPECT_THROW(m.insert_tuples({{0, 1, 9}, {2, 3, 9}}), grb::IndexOutOfBounds);
  EXPECT_EQ(m, before);
  EXPECT_THROW(m.remove_positions({{0, 1}, {1, 0}, {0, 3}}),
               grb::IndexOutOfBounds);
  EXPECT_EQ(m, before);
}

TEST(Matrix, ExtractTuplesRoundTrip) {
  const auto m =
      Matrix<U64>::build(3, 3, {{0, 2, 1}, {1, 0, 2}, {2, 2, 3}});
  const auto tuples = m.extract_tuples();
  const auto rebuilt = Matrix<U64>::build(3, 3, tuples);
  EXPECT_EQ(rebuilt, m);
}

TEST(Matrix, ClearKeepsShape) {
  auto m = Matrix<U64>::build(2, 2, {{0, 0, 1}});
  m.clear();
  EXPECT_EQ(m.nrows(), 2u);
  EXPECT_EQ(m.nvals(), 0u);
  m.check_invariants();
}

TEST(Matrix, AtOutOfBoundsThrows) {
  const Matrix<U64> m(2, 2);
  EXPECT_THROW((void)m.at(2, 0), grb::IndexOutOfBounds);
  EXPECT_THROW((void)m.at(0, 2), grb::IndexOutOfBounds);
}

struct MergeCase {
  Index n;
  std::size_t initial;
  std::size_t batch;
  std::uint64_t seed;
};

class InsertTuplesSweep : public ::testing::TestWithParam<MergeCase> {};

// Property: insert_tuples(batch) == build(existing ++ batch) with the same
// dup op, for random inputs.
TEST_P(InsertTuplesSweep, EquivalentToRebuild) {
  const auto [n, initial, batch, seed] = GetParam();
  grbsm::support::Xoshiro256 rng(seed);
  std::vector<Tuple<U64>> first, second;
  for (std::size_t k = 0; k < initial; ++k) {
    first.push_back({rng.bounded(n), rng.bounded(n), rng.bounded(100)});
  }
  for (std::size_t k = 0; k < batch; ++k) {
    second.push_back({rng.bounded(n), rng.bounded(n), rng.bounded(100)});
  }
  auto incremental = Matrix<U64>::build(n, n, first, grb::Plus<U64>{});
  incremental.insert_tuples(second, grb::Plus<U64>{});

  std::vector<Tuple<U64>> all = first;
  all.insert(all.end(), second.begin(), second.end());
  const auto rebuilt = Matrix<U64>::build(n, n, all, grb::Plus<U64>{});
  EXPECT_EQ(incremental, rebuilt);
  incremental.check_invariants();
}

INSTANTIATE_TEST_SUITE_P(
    Random, InsertTuplesSweep,
    ::testing::Values(MergeCase{4, 3, 3, 1}, MergeCase{16, 30, 10, 2},
                      MergeCase{64, 200, 50, 3}, MergeCase{128, 0, 40, 4},
                      MergeCase{128, 40, 0, 5}, MergeCase{512, 900, 300, 6}));

class RemovePositionsSweep : public ::testing::TestWithParam<MergeCase> {};

// Property: remove_positions(batch) == build(existing \ batch), and the
// returned count is the number of positions that held an entry.
TEST_P(RemovePositionsSweep, EquivalentToBuildOfSetDifference) {
  const auto [n, initial, batch, seed] = GetParam();
  grbsm::support::Xoshiro256 rng(seed);
  std::vector<Tuple<U64>> first;
  for (std::size_t k = 0; k < initial; ++k) {
    first.push_back({rng.bounded(n), rng.bounded(n), rng.bounded(100)});
  }
  auto incremental = Matrix<U64>::build(n, n, first, grb::Plus<U64>{});
  const auto existing = incremental.extract_tuples();
  // Half the batch hits stored entries (repeats included), half is random.
  std::vector<std::pair<Index, Index>> positions;
  for (std::size_t k = 0; k < batch; ++k) {
    if (k % 2 == 0 && !existing.empty()) {
      const auto& t = existing[rng.bounded(existing.size())];
      positions.emplace_back(t.row, t.col);
    } else {
      positions.emplace_back(rng.bounded(n), rng.bounded(n));
    }
  }
  const std::size_t removed = incremental.remove_positions(positions);

  std::sort(positions.begin(), positions.end());
  std::vector<Tuple<U64>> kept;
  for (const auto& t : existing) {
    if (!std::binary_search(positions.begin(), positions.end(),
                            std::pair<Index, Index>{t.row, t.col})) {
      kept.push_back(t);
    }
  }
  EXPECT_EQ(removed, existing.size() - kept.size());
  EXPECT_EQ(incremental, Matrix<U64>::build(n, n, kept));
  incremental.check_invariants();
}

INSTANTIATE_TEST_SUITE_P(
    Random, RemovePositionsSweep,
    ::testing::Values(MergeCase{4, 3, 3, 1}, MergeCase{16, 30, 10, 2},
                      MergeCase{64, 200, 50, 3}, MergeCase{128, 0, 40, 4},
                      MergeCase{128, 40, 0, 5}, MergeCase{512, 900, 300, 6},
                      MergeCase{8, 60, 200, 7}));

}  // namespace
