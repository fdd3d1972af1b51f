// grb::Vector<T> — a sparse vector stored as parallel (sorted index, value)
// arrays, mirroring GrB_Vector. Vectors in this codebase are usually either
// very sparse (per-update deltas) or effectively dense (score tables), and
// the sorted-coordinate layout handles both without format switching.
#pragma once

#include <algorithm>
#include <numeric>
#include <optional>
#include <span>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "grb/binary_ops.hpp"
#include "grb/detail/parallel.hpp"
#include "grb/detail/workspace.hpp"
#include "grb/types.hpp"

namespace grb {

/// A vector's raw coordinate arrays, released for capacity reuse
/// (Vector::release_storage / Vector::adopt_storage).
template <typename T>
struct VecStorage {
  std::vector<Index> ind;
  std::vector<T> val;
};

template <typename T>
class Vector {
  static_assert(!std::is_same_v<T, bool>,
                "use grb::Bool (uint8_t), not bool: vector<bool> is a "
                "bit-packed proxy and cannot expose spans");

 public:
  using value_type = T;

  Vector() = default;

  /// Empty vector of logical size n (GrB_Vector_new).
  explicit Vector(Index n) : size_(n) {}

  /// Builds from coordinate data (GrB_Vector_build). Duplicates are
  /// combined with `dup`. Indices need not be sorted.
  template <typename Dup = Second<T>>
  static Vector build(Index n, std::vector<Index> idx, std::vector<T> vals,
                      Dup dup = Dup{}) {
    if (idx.size() != vals.size()) {
      throw InvalidValue("build: index/value count mismatch");
    }
    Vector v(n);
    if (idx.empty()) return v;
    // Already-sorted fast path (O(k) check): delta vectors emitted in index
    // order (the common case in the incremental engine) skip the argsort.
    std::vector<std::size_t> order(idx.size());
    std::iota(order.begin(), order.end(), std::size_t{0});
    if (!std::is_sorted(idx.begin(), idx.end())) {
      std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
        return idx[a] < idx[b] || (idx[a] == idx[b] && a < b);
      });
    }
    v.ind_.reserve(idx.size());
    v.val_.reserve(idx.size());
    for (const std::size_t k : order) {
      if (idx[k] >= n) {
        throw IndexOutOfBounds("build: index " + std::to_string(idx[k]) +
                               " >= size " + std::to_string(n));
      }
      if (!v.ind_.empty() && v.ind_.back() == idx[k]) {
        v.val_.back() = dup(v.val_.back(), vals[k]);
      } else {
        v.ind_.push_back(idx[k]);
        v.val_.push_back(vals[k]);
      }
    }
#ifndef NDEBUG
    v.check_invariants();
#endif
    return v;
  }

  /// Dense iota-style constructor used by FastSV: v(i) = f(i) for all i.
  /// FastSV rebuilds the grandparent vector every iteration, so the fill
  /// runs in parallel and the arrays lease from the Context workspace
  /// (recycling the previous iterate's capacity via grb::recycle).
  template <typename F>
  static Vector dense(Index n, F&& f) {
    Vector v(n);
    auto ind_lease = detail::workspace().lease<Index>(n);
    auto val_lease = detail::workspace().lease<T>(n);
    ind_lease->resize(n);
    val_lease->resize(n);
    auto& ind = *ind_lease;
    auto& val = *val_lease;
    detail::parallel_for(n, [&](Index i) {
      ind[i] = i;
      val[i] = f(i);
    });
    v.ind_ = ind_lease.detach();
    v.val_ = val_lease.detach();
    return v;
  }

  /// Dense constant vector.
  static Vector full(Index n, const T& value) {
    return dense(n, [&](Index) { return value; });
  }

  [[nodiscard]] Index size() const noexcept { return size_; }
  [[nodiscard]] Index nvals() const noexcept {
    return static_cast<Index>(ind_.size());
  }
  [[nodiscard]] bool empty() const noexcept { return ind_.empty(); }

  /// Drops all entries, keeps the logical size (GrB_Vector_clear).
  void clear() noexcept {
    ind_.clear();
    val_.clear();
  }

  /// Changes the logical size (GrB_Vector_resize). Shrinking drops
  /// out-of-range entries; growing keeps everything.
  void resize(Index n) {
    if (n < size_) {
      const auto it = std::lower_bound(ind_.begin(), ind_.end(), n);
      const auto keep = static_cast<std::size_t>(it - ind_.begin());
      ind_.resize(keep);
      val_.resize(keep);
    }
    size_ = n;
  }

  /// Reads one element (GrB_Vector_extractElement); empty optional if the
  /// position holds no entry.
  [[nodiscard]] std::optional<T> at(Index i) const {
    check_bounds(i);
    const auto it = std::lower_bound(ind_.begin(), ind_.end(), i);
    if (it == ind_.end() || *it != i) return std::nullopt;
    return val_[static_cast<std::size_t>(it - ind_.begin())];
  }

  /// Reads one element with a default for empty positions.
  [[nodiscard]] T at_or(Index i, const T& def) const {
    const auto v = at(i);
    return v ? *v : def;
  }

  /// Writes one element (GrB_Vector_setElement). O(nvals) worst case; bulk
  /// changes should go through build() or merge kernels instead.
  void set(Index i, const T& value) {
    check_bounds(i);
    const auto it = std::lower_bound(ind_.begin(), ind_.end(), i);
    const auto pos = static_cast<std::size_t>(it - ind_.begin());
    if (it != ind_.end() && *it == i) {
      val_[pos] = value;
    } else {
      ind_.insert(it, i);
      val_.insert(val_.begin() + static_cast<std::ptrdiff_t>(pos), value);
    }
  }

  /// Removes one element if present (GrB_Vector_removeElement).
  void erase(Index i) { erase(std::span<const Index>(&i, 1)); }

  /// Removes a batch of elements, given as ascending indices, in one forward
  /// pass that moves each run of surviving entries once. Indices without an
  /// entry are ignored. Bounds checks come before the first write.
  void erase(std::span<const Index> sorted) {
    for (const Index i : sorted) check_bounds(i);
    std::size_t read = 0;
    std::size_t write = 0;
    for (const Index i : sorted) {
      const auto [k, found] = locate(i, read, ind_.size());
      if (!found) continue;
      if (write != read) {
        std::move(iter(ind_, read), iter(ind_, k), iter(ind_, write));
        std::move(iter(val_, read), iter(val_, k), iter(val_, write));
      }
      write += k - read;
      read = k + 1;
    }
    if (read == 0) return;
    std::move(iter(ind_, read), ind_.end(), iter(ind_, write));
    std::move(iter(val_, read), val_.end(), iter(val_, write));
    ind_.resize(write + (ind_.size() - read));
    val_.resize(ind_.size());
  }

  /// w ⊕= u in place: the result of eWiseAdd(w, op, w, u) without rebuilding
  /// w. Where u's pattern meets w's, the value becomes op(w(i), u(i)); the
  /// other entries of u are inserted with u's value. Values are rewritten
  /// only at u's indices; each run of untouched entries behind an inserted
  /// index moves exactly once, back to front. Cost: O(|u| log |w|) plus the
  /// entries stored after u's first new index. The size check and the one
  /// capacity growth come before the first write.
  template <typename Op, typename U>
  void accumulate(const Vector<U>& u, Op op) {
    if (u.size() != size_) {
      throw DimensionMismatch("accumulate: " + std::to_string(size_) +
                              " vs " + std::to_string(u.size()));
    }
    const auto ui = u.indices();
    const auto uv = u.values();
    const std::size_t old_n = ind_.size();
    std::size_t added = 0;
    for (const Index i : ui) {
      if (!locate(i, 0, old_n).second) ++added;
    }
    if (added > 0) {
      detail::reserve_with_headroom(ind_, old_n + added);
      detail::reserve_with_headroom(val_, old_n + added);
      ind_.resize(old_n + added);
      val_.resize(old_n + added);
    }
    // Entries below `read` still sit at their old positions; entries from
    // `write` on are final.
    std::size_t read = old_n;
    std::size_t write = old_n + added;
    for (std::size_t b = ui.size(); b-- > 0;) {
      const auto [pos, found] = locate(ui[b], 0, read);
      if (found) {
        val_[pos] = static_cast<T>(op(val_[pos], static_cast<T>(uv[b])));
        continue;
      }
      std::move_backward(iter(ind_, pos), iter(ind_, read), iter(ind_, write));
      std::move_backward(iter(val_, pos), iter(val_, read), iter(val_, write));
      write -= read - pos + 1;
      ind_[write] = ui[b];
      val_[write] = static_cast<T>(uv[b]);
      read = pos;
    }
  }

  /// Coordinate views (GrB_Vector_extractTuples without the copy).
  [[nodiscard]] std::span<const Index> indices() const noexcept {
    return ind_;
  }
  [[nodiscard]] std::span<const T> values() const noexcept { return val_; }
  [[nodiscard]] std::span<T> values_mut() noexcept { return val_; }

  /// Copies out coordinates (GrB_Vector_extractTuples).
  void extract_tuples(std::vector<Index>& idx, std::vector<T>& vals) const {
    idx.assign(ind_.begin(), ind_.end());
    vals.assign(val_.begin(), val_.end());
  }

  /// Expands into a dense array with `fill` at empty positions.
  [[nodiscard]] std::vector<T> to_dense(const T& fill = T{}) const {
    std::vector<T> out(size_, fill);
    for (std::size_t k = 0; k < ind_.size(); ++k) {
      out[ind_[k]] = val_[k];
    }
    return out;
  }

  /// Structural + value equality (same pattern, same stored values).
  friend bool operator==(const Vector& a, const Vector& b) {
    return a.size_ == b.size_ && a.ind_ == b.ind_ && a.val_ == b.val_;
  }

  /// Internal: adopts pre-sorted coordinate arrays produced by a kernel —
  /// the Vector counterpart of Matrix::adopt_csr. Invariants (strictly
  /// ascending in-range indices, matching array sizes) are the caller's
  /// responsibility; `check` controls whether they are verified (default:
  /// debug builds only, so the Release hot path skips the O(nvals) walk).
  static Vector adopt_sorted(Index n, std::vector<Index>&& idx,
                             std::vector<T>&& vals,
                             CsrCheck check = CsrCheck::kDebug) {
    Vector v(n);
    v.ind_ = std::move(idx);
    v.val_ = std::move(vals);
#ifdef NDEBUG
    const bool verify = check == CsrCheck::kAlways;
#else
    const bool verify = check != CsrCheck::kNever;
#endif
    if (verify) v.check_invariants();
    return v;
  }

  /// Releases the coordinate arrays for capacity reuse, keeping the logical
  /// size but dropping all entries. grb::recycle consumes this to donate
  /// retired storage to the Context workspace.
  [[nodiscard]] VecStorage<T> release_storage() noexcept {
    VecStorage<T> st{std::move(ind_), std::move(val_)};
    ind_.clear();
    val_.clear();
    return st;
  }

  /// Rebuilds a vector around previously released (or otherwise assembled)
  /// sorted coordinate arrays — the inverse of release_storage.
  static Vector adopt_storage(Index n, VecStorage<T>&& st,
                              CsrCheck check = CsrCheck::kDebug) {
    return adopt_sorted(n, std::move(st.ind), std::move(st.val), check);
  }

  void check_invariants() const {
    detail::check(ind_.size() == val_.size(), "index/value size");
    for (std::size_t k = 0; k < ind_.size(); ++k) {
      detail::check(ind_[k] < size_, "index in range");
      detail::check(k == 0 || ind_[k - 1] < ind_[k], "indices sorted/unique");
    }
  }

 private:
  /// lower_bound of index i among the stored positions [lo, hi) — the part
  /// of the arrays an in-place merge has not moved yet. Returns the position
  /// and whether it holds i.
  [[nodiscard]] std::pair<std::size_t, bool> locate(Index i, std::size_t lo,
                                                    std::size_t hi) const {
    const auto first = iter(ind_, lo);
    const auto last = iter(ind_, hi);
    const auto it = std::lower_bound(first, last, i);
    return {static_cast<std::size_t>(it - ind_.begin()),
            it != last && *it == i};
  }

  template <typename V>
  static auto iter(V& v, std::size_t k) {
    return v.begin() + static_cast<std::ptrdiff_t>(k);
  }

  void check_bounds(Index i) const {
    if (i >= size_) {
      throw IndexOutOfBounds("vector index " + std::to_string(i) +
                             " >= size " + std::to_string(size_));
    }
  }

  Index size_ = 0;
  std::vector<Index> ind_;  // sorted, unique
  std::vector<T> val_;      // val_[k] belongs to ind_[k]
};

/// Retires a vector, donating its storage to the Context workspace (the
/// Vector counterpart of recycle(Matrix&&)).
template <typename T>
void recycle(Vector<T>&& v) {
  auto st = v.release_storage();
  auto& ws = detail::workspace();
  ws.donate(std::move(st.ind));
  ws.donate(std::move(st.val));
}

}  // namespace grb
