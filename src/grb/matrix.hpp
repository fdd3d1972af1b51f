// grb::Matrix<T> — a sparse matrix in CSR (compressed sparse row) layout,
// mirroring GrB_Matrix with SuiteSparse's default row-major orientation.
// Column indices within each row are sorted, which kernels rely on for
// merge-based element-wise operations and binary-searched element access.
//
// The social-media workload grows its matrices continuously (new comments
// and users arrive in every change set), so in addition to the standard
// GraphBLAS build/setElement API the class provides `resize` (grow/shrink,
// GxB_Matrix_resize) and the in-place batch merges `insert_tuples` and
// `remove_positions`, which is how the incremental engine applies a change
// set. A batch of k entries costs O(k log k) plus the entries stored after
// its first touched position (each moved once) plus one rowptr pass from the
// first touched row, instead of k separate setElement shifts.
#pragma once

#include <algorithm>
#include <numeric>
#include <optional>
#include <span>
#include <type_traits>
#include <string>
#include <vector>

#include "grb/binary_ops.hpp"
#include "grb/detail/workspace.hpp"
#include "grb/types.hpp"

namespace grb {

/// A single coordinate-format entry; build/extractTuples currency.
template <typename T>
struct Tuple {
  Index row = 0;
  Index col = 0;
  T val{};

  friend bool operator==(const Tuple&, const Tuple&) = default;
};

/// A matrix's raw CSR arrays, released for capacity reuse
/// (Matrix::release_storage / Matrix::adopt_storage).
template <typename T>
struct CsrStorage {
  std::vector<Index> rowptr;
  std::vector<Index> colind;
  std::vector<T> val;
};

// CsrCheck (the adopt-time invariant-check toggle) lives in grb/types.hpp:
// it is shared with Vector::adopt_sorted, which verifies the same
// sorted-unique/in-range invariants for sparse vectors.

template <typename T>
class Matrix {
  static_assert(!std::is_same_v<T, bool>,
                "use grb::Bool (uint8_t), not bool: vector<bool> is a "
                "bit-packed proxy and cannot expose spans");

 public:
  using value_type = T;

  Matrix() = default;

  /// Empty nrows × ncols matrix (GrB_Matrix_new). The rowptr array comes
  /// from the Context workspace, so loops that construct a fresh output
  /// every iteration recycle capacity instead of reallocating. Tiny
  /// matrices stay on plain allocation: the pool does not track sub-
  /// kMinBuffer storage, and default-member matrices are routinely replaced
  /// by move-assignment, where pooled storage would leak out of the arena.
  Matrix(Index nrows, Index ncols) : nrows_(nrows), ncols_(ncols) {
    if (static_cast<std::size_t>(nrows) + 1 >= detail::Workspace::kMinBuffer) {
      auto lease = detail::workspace().lease<Index>(nrows + 1);
      lease->assign(nrows + 1, 0);
      rowptr_ = lease.detach();
    } else {
      rowptr_.assign(nrows + 1, 0);
    }
  }

  /// Builds from coordinate data (GrB_Matrix_build); duplicates combined
  /// with `dup`. Input order is irrelevant.
  template <typename Dup = Plus<T>>
  static Matrix build(Index nrows, Index ncols, std::vector<Tuple<T>> tuples,
                      Dup dup = Dup{}) {
    Matrix m(nrows, ncols);
    if (tuples.empty()) return m;
    for (const auto& t : tuples) {
      if (t.row >= nrows || t.col >= ncols) {
        throw IndexOutOfBounds("build: (" + std::to_string(t.row) + "," +
                               std::to_string(t.col) + ") outside " +
                               std::to_string(nrows) + "x" +
                               std::to_string(ncols));
      }
    }
    sort_tuples(tuples);
    m.colind_.reserve(tuples.size());
    m.val_.reserve(tuples.size());
    for (const auto& t : tuples) {
      if (!m.colind_.empty() && m.rows_pending_ == t.row &&
          m.colind_.back() == t.col) {
        m.val_.back() = dup(m.val_.back(), t.val);
        continue;
      }
      // close rows up to t.row
      while (m.rows_pending_ < t.row) {
        m.rowptr_[++m.rows_pending_] = static_cast<Index>(m.colind_.size());
      }
      m.colind_.push_back(t.col);
      m.val_.push_back(t.val);
    }
    while (m.rows_pending_ < nrows) {
      m.rowptr_[++m.rows_pending_] = static_cast<Index>(m.colind_.size());
    }
    return m;
  }

  [[nodiscard]] Index nrows() const noexcept { return nrows_; }
  [[nodiscard]] Index ncols() const noexcept { return ncols_; }
  [[nodiscard]] Index nvals() const noexcept {
    return static_cast<Index>(colind_.size());
  }
  [[nodiscard]] bool empty() const noexcept { return colind_.empty(); }

  /// Drops all entries, keeps dimensions (GrB_Matrix_clear).
  void clear() noexcept {
    std::fill(rowptr_.begin(), rowptr_.end(), Index{0});
    colind_.clear();
    val_.clear();
  }

  /// Grows or shrinks the logical dimensions (GxB_Matrix_resize). Growing
  /// is O(new rows); shrinking compacts away out-of-range entries. The
  /// change-set loop grows every state matrix once per update, so rowptr
  /// regrowth that outruns its capacity swaps through the workspace arena
  /// instead of freeing pool-origin storage behind the allocator's back.
  void resize(Index nrows, Index ncols) {
    if (ncols < ncols_ && nvals() > 0) {
      // Drop entries in removed columns.
      Index write = 0;
      auto new_rowptr_lease =
          detail::workspace().lease<Index>(std::min<Index>(nrows, nrows_) + 1);
      auto& new_rowptr = *new_rowptr_lease;
      new_rowptr.assign(std::min<Index>(nrows, nrows_) + 1, 0);
      const Index keep_rows = std::min<Index>(nrows, nrows_);
      for (Index i = 0; i < keep_rows; ++i) {
        for (Index k = rowptr_[i]; k < rowptr_[i + 1]; ++k) {
          if (colind_[k] < ncols) {
            colind_[write] = colind_[k];
            val_[write] = val_[k];
            ++write;
          }
        }
        new_rowptr[i + 1] = write;
      }
      colind_.resize(write);
      val_.resize(write);
      detail::workspace().donate(std::move(rowptr_));
      rowptr_ = new_rowptr_lease.detach();
      nrows_ = keep_rows;
    } else if (nrows < nrows_) {
      const Index cut = rowptr_[nrows];
      colind_.resize(cut);
      val_.resize(cut);
      rowptr_.resize(nrows + 1);
      nrows_ = nrows;
    }
    if (nrows > nrows_) {
      if (rowptr_.capacity() < static_cast<std::size_t>(nrows) + 1) {
        auto grown = detail::workspace().lease<Index>(nrows + 1);
        grown->assign(rowptr_.begin(), rowptr_.end());
        // Fill to the full target size before detaching: a detach whose
        // contents sit far below the leased capacity would be trimmed
        // (shrink-on-detach), defeating this pool-backed regrowth. The
        // resize below then keeps the capacity, and the tail loop
        // overwrites the fill either way.
        grown->resize(nrows + 1, grown->empty() ? 0 : grown->back());
        detail::workspace().donate(std::move(rowptr_));
        rowptr_ = grown.detach();
      }
      rowptr_.resize(nrows + 1, rowptr_.empty() ? 0 : rowptr_.back());
      // rowptr_ may have been default-initialised above; ensure tail filled.
      for (Index i = nrows_ + 1; i <= nrows; ++i) rowptr_[i] = nvals();
      nrows_ = nrows;
    }
    ncols_ = ncols;
  }

  /// Reads one element (GrB_Matrix_extractElement).
  [[nodiscard]] std::optional<T> at(Index i, Index j) const {
    check_bounds(i, j);
    const auto row = row_cols(i);
    const auto it = std::lower_bound(row.begin(), row.end(), j);
    if (it == row.end() || *it != j) return std::nullopt;
    return val_[rowptr_[i] + static_cast<Index>(it - row.begin())];
  }

  [[nodiscard]] bool has(Index i, Index j) const { return at(i, j).has_value(); }

  /// Writes one element (GrB_Matrix_setElement). O(nnz) worst case due to
  /// CSR insertion; bulk updates should use insert_tuples.
  void set(Index i, Index j, const T& value) {
    check_bounds(i, j);
    const auto row = row_cols(i);
    const auto it = std::lower_bound(row.begin(), row.end(), j);
    const Index pos = rowptr_[i] + static_cast<Index>(it - row.begin());
    if (it != row.end() && *it == j) {
      val_[pos] = value;
      return;
    }
    colind_.insert(colind_.begin() + static_cast<std::ptrdiff_t>(pos), j);
    val_.insert(val_.begin() + static_cast<std::ptrdiff_t>(pos), value);
    for (Index r = i + 1; r <= nrows_; ++r) ++rowptr_[r];
  }

  /// Merges a batch of tuples into the matrix in place. Duplicates (within
  /// the batch or against existing entries) are combined with `dup`. This is
  /// the change-set application primitive of the incremental engine. Each
  /// batch entry is located by binary search in its row, the arrays grow at
  /// most once, every untouched run of entries moves exactly once (back to
  /// front), and rowptr is fixed in one pass from the first row that gained
  /// an entry. Bounds checks and the capacity growth come before the first
  /// write, so a throwing call leaves the matrix unchanged.
  template <typename Dup = Plus<T>>
  void insert_tuples(std::vector<Tuple<T>> tuples, Dup dup = Dup{}) {
    if (tuples.empty()) return;
    for (const auto& t : tuples) {
      if (t.row >= nrows_ || t.col >= ncols_) {
        throw IndexOutOfBounds("insert_tuples: (" + std::to_string(t.row) +
                               "," + std::to_string(t.col) + ") outside " +
                               std::to_string(nrows_) + "x" +
                               std::to_string(ncols_));
      }
    }
    sort_tuples(tuples);
    // Combine duplicates inside the batch first.
    std::size_t last = 0;
    for (std::size_t b = 1; b < tuples.size(); ++b) {
      if (tuples[b].row == tuples[last].row &&
          tuples[b].col == tuples[last].col) {
        tuples[last].val = dup(tuples[last].val, tuples[b].val);
      } else {
        tuples[++last] = tuples[b];
      }
    }
    tuples.erase(tuples.begin() + static_cast<std::ptrdiff_t>(last + 1),
                 tuples.end());

    const Index old_nnz = nvals();
    Index added = 0;
    for (const auto& t : tuples) {
      if (!locate(t.row, t.col, 0, old_nnz).second) ++added;
    }
    if (added > 0) {
      detail::reserve_with_headroom(colind_, old_nnz + added);
      detail::reserve_with_headroom(val_, old_nnz + added);
      colind_.resize(old_nnz + added);
      val_.resize(old_nnz + added);
    }
    // Write pass, back to front. Entries below `read` still sit at their old
    // positions (so the old rowptr locates them); entries from `write` on
    // are final. New tuples compact into tuples[fresh, end) for the rowptr
    // pass.
    Index read = old_nnz;
    Index write = old_nnz + added;
    std::size_t fresh = tuples.size();
    for (std::size_t b = tuples.size(); b-- > 0;) {
      const Tuple<T> t = tuples[b];
      const auto [pos, found] = locate(t.row, t.col, 0, read);
      if (found) {
        val_[pos] = dup(val_[pos], t.val);
        continue;
      }
      std::move_backward(iter(colind_, pos), iter(colind_, read),
                         iter(colind_, write));
      std::move_backward(iter(val_, pos), iter(val_, read), iter(val_, write));
      write -= read - pos + 1;
      colind_[write] = t.col;
      val_[write] = t.val;
      read = pos;
      tuples[--fresh] = t;
    }
    shift_rowptr(tuples.size() - fresh,
                 [&](std::size_t q) { return tuples[fresh + q].row; }, true);
  }

  /// Removes a batch of positions in place (the removal analogue of
  /// insert_tuples): one forward pass moves each run of surviving entries
  /// exactly once, then rowptr is fixed from the first row that lost an
  /// entry. Positions without an entry (and repeats) are ignored. Returns the
  /// number of entries actually removed. Bounds checks come before the first
  /// write, so a throwing call leaves the matrix unchanged.
  std::size_t remove_positions(std::vector<std::pair<Index, Index>> pos) {
    if (pos.empty()) return 0;
    for (const auto& [i, j] : pos) {
      if (i >= nrows_ || j >= ncols_) {
        throw IndexOutOfBounds("remove_positions: (" + std::to_string(i) +
                               "," + std::to_string(j) + ")");
      }
    }
    if (!std::is_sorted(pos.begin(), pos.end())) {
      std::sort(pos.begin(), pos.end());
    }
    pos.erase(std::unique(pos.begin(), pos.end()), pos.end());
    // Write pass, front to back. Entries from `read` on still sit at their
    // old positions; entries below `write` are final. Removed positions
    // compact into pos[0, removed) for the rowptr pass.
    const Index old_nnz = nvals();
    Index read = 0;
    Index write = 0;
    std::size_t removed = 0;
    for (std::size_t b = 0; b < pos.size(); ++b) {
      const auto [k, found] = locate(pos[b].first, pos[b].second, read,
                                     old_nnz);
      if (!found) continue;
      if (write != read) {
        std::move(iter(colind_, read), iter(colind_, k), iter(colind_, write));
        std::move(iter(val_, read), iter(val_, k), iter(val_, write));
      }
      write += k - read;
      read = k + 1;
      pos[removed++] = pos[b];
    }
    if (removed == 0) return 0;
    std::move(iter(colind_, read), colind_.end(), iter(colind_, write));
    std::move(iter(val_, read), val_.end(), iter(val_, write));
    colind_.resize(write + (old_nnz - read));
    val_.resize(write + (old_nnz - read));
    shift_rowptr(removed, [&](std::size_t q) { return pos[q].first; }, false);
    return removed;
  }

  /// Column indices of row i (sorted). Zero-copy CSR row view.
  [[nodiscard]] std::span<const Index> row_cols(Index i) const {
    return {colind_.data() + rowptr_[i],
            static_cast<std::size_t>(rowptr_[i + 1] - rowptr_[i])};
  }

  /// Values of row i, parallel to row_cols(i).
  [[nodiscard]] std::span<const T> row_vals(Index i) const {
    return {val_.data() + rowptr_[i],
            static_cast<std::size_t>(rowptr_[i + 1] - rowptr_[i])};
  }

  [[nodiscard]] Index row_degree(Index i) const noexcept {
    return rowptr_[i + 1] - rowptr_[i];
  }

  /// Copies out all entries in row-major order (GrB_Matrix_extractTuples).
  [[nodiscard]] std::vector<Tuple<T>> extract_tuples() const {
    std::vector<Tuple<T>> out;
    out.reserve(nvals());
    for (Index i = 0; i < nrows_; ++i) {
      for (Index k = rowptr_[i]; k < rowptr_[i + 1]; ++k) {
        out.push_back({i, colind_[k], val_[k]});
      }
    }
    return out;
  }

  /// Raw CSR access for kernels.
  [[nodiscard]] std::span<const Index> rowptr() const noexcept {
    return rowptr_;
  }
  [[nodiscard]] std::span<const Index> colind() const noexcept {
    return colind_;
  }
  [[nodiscard]] std::span<const T> values() const noexcept { return val_; }

  friend bool operator==(const Matrix& a, const Matrix& b) {
    return a.nrows_ == b.nrows_ && a.ncols_ == b.ncols_ &&
           a.rowptr_ == b.rowptr_ && a.colind_ == b.colind_ &&
           a.val_ == b.val_;
  }

  /// Internal: adopts CSR arrays produced by a kernel. Invariants (sorted
  /// rows, consistent rowptr) are the caller's responsibility; `check`
  /// controls whether they are verified (default: debug builds only, so the
  /// Release hot path skips the O(nnz) walk).
  static Matrix adopt_csr(Index nrows, Index ncols,
                          std::vector<Index>&& rowptr,
                          std::vector<Index>&& colind, std::vector<T>&& val,
                          CsrCheck check = CsrCheck::kDebug) {
    Matrix m;
    m.nrows_ = nrows;
    m.ncols_ = ncols;
    m.rowptr_ = std::move(rowptr);
    m.colind_ = std::move(colind);
    m.val_ = std::move(val);
#ifdef NDEBUG
    const bool verify = check == CsrCheck::kAlways;
#else
    const bool verify = check != CsrCheck::kNever;
#endif
    if (verify) m.check_invariants();
    return m;
  }

  /// Releases the CSR arrays for capacity reuse, leaving *this empty (0×0,
  /// no entries — the default-constructed state). The usual consumer is
  /// grb::recycle, which donates the arrays to the Context workspace so the
  /// next kernel output steals their capacity instead of allocating.
  [[nodiscard]] CsrStorage<T> release_storage() noexcept {
    CsrStorage<T> st{std::move(rowptr_), std::move(colind_), std::move(val_)};
    nrows_ = 0;
    ncols_ = 0;
    rows_pending_ = 0;
    rowptr_.clear();
    colind_.clear();
    val_.clear();
    return st;
  }

  /// Rebuilds a matrix around previously released (or otherwise assembled)
  /// CSR arrays — the inverse of release_storage.
  static Matrix adopt_storage(Index nrows, Index ncols, CsrStorage<T>&& st,
                              CsrCheck check = CsrCheck::kDebug) {
    return adopt_csr(nrows, ncols, std::move(st.rowptr), std::move(st.colind),
                     std::move(st.val), check);
  }

  void check_invariants() const {
    detail::check(rowptr_.size() == nrows_ + 1, "rowptr size");
    detail::check(rowptr_.front() == 0, "rowptr[0]");
    detail::check(rowptr_.back() == colind_.size(), "rowptr back");
    detail::check(colind_.size() == val_.size(), "colind/val size");
    for (Index i = 0; i < nrows_; ++i) {
      detail::check(rowptr_[i] <= rowptr_[i + 1], "rowptr monotone");
      for (Index k = rowptr_[i]; k + 1 < rowptr_[i + 1]; ++k) {
        detail::check(colind_[k] < colind_[k + 1], "row sorted/unique");
      }
      for (Index k = rowptr_[i]; k < rowptr_[i + 1]; ++k) {
        detail::check(colind_[k] < ncols_, "col in range");
      }
    }
  }

 private:
  /// Row-major tuple sort with an O(k) already-sorted fast path: batches
  /// emitted in CSR order (e.g. the incremental engine's netted change
  /// sets, which iterate ordered maps) merge without paying the k log k.
  static void sort_tuples(std::vector<Tuple<T>>& tuples) {
    const auto less = [](const Tuple<T>& a, const Tuple<T>& b) {
      return a.row < b.row || (a.row == b.row && a.col < b.col);
    };
    if (!std::is_sorted(tuples.begin(), tuples.end(), less)) {
      std::sort(tuples.begin(), tuples.end(), less);
    }
  }

  /// lower_bound of column j in row i, searched only among the stored
  /// positions [lo, hi) — the part of the arrays an in-place merge has not
  /// moved yet. Returns the position and whether it holds (i, j).
  [[nodiscard]] std::pair<Index, bool> locate(Index i, Index j, Index lo,
                                              Index hi) const {
    const auto first = iter(colind_, std::max(rowptr_[i], lo));
    const auto last = iter(colind_, std::min(rowptr_[i + 1], hi));
    const auto it = std::lower_bound(first, last, j);
    return {static_cast<Index>(it - colind_.begin()), it != last && *it == j};
  }

  /// Fixes rowptr after an in-place merge, in one pass from the first
  /// touched row: the end of row r moves by the number of entries the batch
  /// added (or removed) in rows up to r. `row_of(q)` is the row of the q-th
  /// of `n` touched entries, ascending.
  template <typename RowOf>
  void shift_rowptr(std::size_t n, RowOf row_of, bool added) {
    Index shift = 0;
    for (std::size_t q = 0; q < n;) {
      const Index r = row_of(q);
      while (q < n && row_of(q) == r) {
        ++shift;
        ++q;
      }
      const Index next = q < n ? row_of(q) : nrows_;
      // Unsigned wrap-around turns the subtraction into an addition.
      const Index step = added ? shift : Index{0} - shift;
      for (Index i = r; i < next; ++i) rowptr_[i + 1] += step;
    }
  }

  template <typename V>
  static auto iter(V& v, Index k) {
    return v.begin() + static_cast<std::ptrdiff_t>(k);
  }

  void check_bounds(Index i, Index j) const {
    if (i >= nrows_ || j >= ncols_) {
      throw IndexOutOfBounds("(" + std::to_string(i) + "," +
                             std::to_string(j) + ") outside " +
                             std::to_string(nrows_) + "x" +
                             std::to_string(ncols_));
    }
  }

  Index nrows_ = 0;
  Index ncols_ = 0;
  Index rows_pending_ = 0;  // build() bookkeeping only
  std::vector<Index> rowptr_;
  std::vector<Index> colind_;
  std::vector<T> val_;
};

/// Retires a matrix, donating its storage to the Context workspace. Hot
/// loops call this on iteration-carried temporaries (and write_back calls it
/// on replaced outputs) so kernel results cycle through the arena instead of
/// round-tripping the system allocator.
template <typename T>
void recycle(Matrix<T>&& m) {
  auto st = m.release_storage();
  auto& ws = detail::workspace();
  ws.donate(std::move(st.rowptr));
  ws.donate(std::move(st.colind));
  ws.donate(std::move(st.val));
}

}  // namespace grb
