#include "queries/grb_state.hpp"

#include <map>
#include <span>

namespace queries {

namespace {
[[noreturn]] void fail(const char* what, sm::NodeId id) {
  throw grb::InvalidValue(std::string(what) + " (id " + std::to_string(id) +
                          ")");
}

Index require(const std::unordered_map<sm::NodeId, Index>& idx, sm::NodeId id,
              const char* what) {
  const auto it = idx.find(id);
  if (it == idx.end()) fail(what, id);
  return it->second;
}
}  // namespace

void GrbState::add_user(sm::NodeId id) {
  const Index dense = static_cast<Index>(user_ids_.size());
  if (!user_idx_.emplace(id, dense).second) fail("duplicate user", id);
  user_ids_.push_back(id);
}

void GrbState::add_post(sm::NodeId id, sm::Timestamp ts) {
  const Index dense = static_cast<Index>(post_ids_.size());
  if (!post_idx_.emplace(id, dense).second) fail("duplicate post", id);
  post_ids_.push_back(id);
  post_ts_.push_back(ts);
}

std::pair<Index, Index> GrbState::add_comment(sm::NodeId id, sm::Timestamp ts,
                                              bool parent_is_comment,
                                              sm::NodeId parent) {
  const Index dense = static_cast<Index>(comment_ids_.size());
  if (!comment_idx_.emplace(id, dense).second) fail("duplicate comment", id);
  Index root;
  if (parent_is_comment) {
    root = comment_root_[require(comment_idx_, parent, "unknown parent comment")];
  } else {
    root = require(post_idx_, parent, "unknown parent post");
  }
  comment_ids_.push_back(id);
  comment_ts_.push_back(ts);
  comment_root_.push_back(root);
  return {root, dense};
}

GrbState GrbState::from_graph(const sm::SocialGraph& g) {
  GrbState s;
  s.user_ids_.reserve(g.num_users());
  for (const auto& u : g.users()) s.add_user(u.id);
  s.post_ids_.reserve(g.num_posts());
  for (const auto& p : g.posts()) s.add_post(p.id, p.timestamp);

  std::vector<grb::Tuple<Bool>> rp_tuples;
  rp_tuples.reserve(g.num_comments());
  for (const auto& c : g.comments()) {
    // The dense order of SocialGraph comments matches insertion order, so
    // dense ids agree between the model and this state.
    const Index dense = static_cast<Index>(s.comment_ids_.size());
    s.comment_idx_.emplace(c.id, dense);
    s.comment_ids_.push_back(c.id);
    s.comment_ts_.push_back(c.timestamp);
    s.comment_root_.push_back(c.root_post);
    rp_tuples.push_back({c.root_post, dense, Bool{1}});
  }

  const Index np = static_cast<Index>(s.post_ids_.size());
  const Index nc = static_cast<Index>(s.comment_ids_.size());
  const Index nu = static_cast<Index>(s.user_ids_.size());

  s.root_post_ =
      grb::Matrix<Bool>::build(np, nc, std::move(rp_tuples), grb::LOr<Bool>{});

  std::vector<grb::Tuple<Bool>> like_tuples;
  for (Index c = 0; c < nc; ++c) {
    for (const sm::DenseId u : g.comment(c).likers) {
      like_tuples.push_back({c, u, Bool{1}});
    }
  }
  s.likes_ =
      grb::Matrix<Bool>::build(nc, nu, std::move(like_tuples), grb::LOr<Bool>{});

  std::vector<grb::Tuple<Bool>> friend_tuples;
  for (Index u = 0; u < nu; ++u) {
    for (const sm::DenseId v : g.user(u).friends) {
      friend_tuples.push_back({u, v, Bool{1}});
    }
  }
  s.friends_ = grb::Matrix<Bool>::build(nu, nu, std::move(friend_tuples),
                                        grb::LOr<Bool>{});

  s.likes_count_ = grb::Vector<std::uint64_t>(nc);
  grb::reduce_rows(s.likes_count_, grb::plus_monoid<std::uint64_t>(),
                   s.likes_);
  return s;
}

GrbDelta GrbState::apply_change_set(const sm::ChangeSet& cs) {
  // Debug epoch/reentrancy guard: a second apply overlapping this one —
  // reentrant or from another thread — aborts instead of corrupting the
  // matrices mid-merge.
  const grb::detail::ReentrancyScope apply_scope(apply_guard_,
                                                 "GrbState::apply_change_set");
  std::vector<grb::Tuple<Bool>> rp_tuples;
  GrbDelta delta;

  // Edge ops are netted per edge: the batch may add, remove and re-add the
  // same edge; only the difference between the pre-batch state and the final
  // desired state touches the matrices. Keys are (comment, user) for likes
  // and the canonical (min, max) pair for friendships; values are the
  // desired presence after the batch.
  std::map<std::pair<Index, Index>, bool> like_want;
  std::map<std::pair<Index, Index>, bool> friend_want;

  for (const sm::ChangeOp& op : cs.ops) {
    std::visit(
        [&](const auto& o) {
          using T = std::decay_t<decltype(o)>;
          if constexpr (std::is_same_v<T, sm::AddUser>) {
            add_user(o.id);
          } else if constexpr (std::is_same_v<T, sm::AddPost>) {
            delta.new_posts.push_back(static_cast<Index>(post_ids_.size()));
            add_post(o.id, o.timestamp);
          } else if constexpr (std::is_same_v<T, sm::AddComment>) {
            const auto [root, dense] =
                add_comment(o.id, o.timestamp, o.parent_is_comment, o.parent);
            rp_tuples.push_back({root, dense, Bool{1}});
            delta.new_comments.push_back(dense);
          } else if constexpr (std::is_same_v<T, sm::AddLikes>) {
            const Index u = require(user_idx_, o.user, "unknown user");
            const Index c = require(comment_idx_, o.comment, "unknown comment");
            like_want[{c, u}] = true;
          } else if constexpr (std::is_same_v<T, sm::RemoveLikes>) {
            const Index u = require(user_idx_, o.user, "unknown user");
            const Index c = require(comment_idx_, o.comment, "unknown comment");
            like_want[{c, u}] = false;
          } else if constexpr (std::is_same_v<T, sm::AddFriendship>) {
            const Index a = require(user_idx_, o.a, "unknown user");
            const Index b = require(user_idx_, o.b, "unknown user");
            friend_want[{std::min(a, b), std::max(a, b)}] = true;
          } else {
            static_assert(std::is_same_v<T, sm::RemoveFriendship>);
            const Index a = require(user_idx_, o.a, "unknown user");
            const Index b = require(user_idx_, o.b, "unknown user");
            friend_want[{std::min(a, b), std::max(a, b)}] = false;
          }
        },
        op);
  }

  const Index np = static_cast<Index>(post_ids_.size());
  const Index nc = static_cast<Index>(comment_ids_.size());
  const Index nu = static_cast<Index>(user_ids_.size());

  // Resolve the netted edge ops against the pre-batch matrices. The netting
  // maps iterate in (row, col) order, so presence is decided with a single
  // forward sweep per matrix — a row cursor that only moves right — rather
  // than a fresh binary search per op, and every batch below comes out in
  // CSR order, which the build/insert_tuples sorted fast paths detect.
  const auto sorted_sweep = [](const grb::Matrix<Bool>& m, auto& want_map,
                               auto&& on_add, auto&& on_remove) {
    Index cur_row = static_cast<Index>(-1);
    std::span<const Index> row_cols;
    std::size_t cursor = 0;
    for (const auto& [edge, want] : want_map) {
      const auto [r, c] = edge;
      if (r != cur_row) {
        cur_row = r;
        row_cols = r < m.nrows() ? m.row_cols(r) : std::span<const Index>{};
        cursor = 0;
      }
      while (cursor < row_cols.size() && row_cols[cursor] < c) ++cursor;
      const bool have = cursor < row_cols.size() && row_cols[cursor] == c;
      if (want && !have) {
        on_add(r, c);
      } else if (!want && have) {
        on_remove(r, c);
      }
    }
  };

  std::vector<grb::Tuple<Bool>> like_tuples;
  std::vector<std::pair<Index, Index>> like_removals;
  std::vector<Index> like_plus_comments;
  std::vector<Index> like_minus_comments;
  sorted_sweep(
      likes_, like_want,
      [&](Index c, Index u) {
        like_tuples.push_back({c, u, Bool{1}});
        like_plus_comments.push_back(c);
        delta.new_likes.emplace_back(c, u);
      },
      [&](Index c, Index u) {
        like_removals.emplace_back(c, u);
        like_minus_comments.push_back(c);
        delta.removed_likes.emplace_back(c, u);
      });
  std::vector<grb::Tuple<Bool>> friend_tuples;
  std::vector<std::pair<Index, Index>> friend_removals;
  sorted_sweep(
      friends_, friend_want,
      [&](Index a, Index b) {
        friend_tuples.push_back({a, b, Bool{1}});
        friend_tuples.push_back({b, a, Bool{1}});
        delta.new_friendships.emplace_back(a, b);
      },
      [&](Index a, Index b) {
        friend_removals.emplace_back(a, b);
        friend_removals.emplace_back(b, a);
        delta.removed_friendships.emplace_back(a, b);
      });

  // Grow to the post-update dimensions, then apply each batch as a single
  // sorted in-place insert_tuples / remove_positions merge per matrix per
  // change set. The like batch and both removal batches arrive already in CSR
  // order from the sorted sweep, so their merges skip the re-sort; only the
  // friendship batch (forward + mirrored directions) pays one sort.
  root_post_.resize(np, nc);
  likes_.resize(nc, nu);
  friends_.resize(nu, nu);
  likes_count_.resize(nc);

  root_post_.insert_tuples(std::move(rp_tuples), grb::LOr<Bool>{});
  likes_.insert_tuples(std::move(like_tuples), grb::LOr<Bool>{});
  friends_.insert_tuples(std::move(friend_tuples), grb::LOr<Bool>{});
  likes_.remove_positions(std::move(like_removals));
  friends_.remove_positions(std::move(friend_removals));

  // Assemble the delta structures in the updated dimensions.
  {
    std::vector<grb::Tuple<Bool>> drp;
    for (const Index c : delta.new_comments) {
      drp.push_back({comment_root_[c], c, Bool{1}});
    }
    delta.delta_root_post =
        grb::Matrix<Bool>::build(np, nc, std::move(drp), grb::LOr<Bool>{});
  }
  const auto count_vector = [nc](const std::vector<Index>& comments) {
    std::vector<Index> idx(comments.begin(), comments.end());
    std::vector<std::uint64_t> ones(comments.size(), 1);
    return grb::Vector<std::uint64_t>::build(
        nc, std::move(idx), std::move(ones), grb::Plus<std::uint64_t>{});
  };
  delta.likes_count_plus = count_vector(like_plus_comments);
  delta.likes_count_minus = count_vector(like_minus_comments);
  const auto incidence =
      [nu](const std::vector<std::pair<Index, Index>>& pairs) {
        std::vector<grb::Tuple<Bool>> inc;
        inc.reserve(2 * pairs.size());
        for (Index k = 0; k < static_cast<Index>(pairs.size()); ++k) {
          inc.push_back({pairs[k].first, k, Bool{1}});
          inc.push_back({pairs[k].second, k, Bool{1}});
        }
        return grb::Matrix<Bool>::build(nu, static_cast<Index>(pairs.size()),
                                        std::move(inc), grb::LOr<Bool>{});
      };
  delta.new_friends = incidence(delta.new_friendships);
  delta.removed_friends = incidence(delta.removed_friendships);

  // Maintain likesCount = likesCount ⊕ likesCount⁺ ⊖ likesCount⁻ in place.
  // The minus entries always intersect existing entries (the edge existed),
  // so the union semantics of accumulate(Minus) are exact here.
  likes_count_.accumulate(delta.likes_count_plus, grb::Plus<std::uint64_t>{});
  if (delta.likes_count_minus.nvals() > 0) {
    likes_count_.accumulate(delta.likes_count_minus,
                            grb::Minus<std::uint64_t>{});
    // Drop the counts that reached zero so likesCount stays the exact
    // pattern of "has at least one like" (Alg. 1 relies on its sparsity,
    // not values of 0). Only a minus index can have reached zero.
    std::vector<Index> emptied;
    for (const Index c : delta.likes_count_minus.indices()) {
      if (likes_count_.at_or(c, 0) == 0) emptied.push_back(c);
    }
    likes_count_.erase(emptied);
  }
  return delta;
}

}  // namespace queries
