#include "queries/engines.hpp"

#include <algorithm>

#include "queries/q1.hpp"
#include "queries/q2.hpp"

namespace queries {

namespace {

using U64 = std::uint64_t;

/// Full top-k scan over every post (Q1) or comment (Q2), score 0 included —
/// zero-score entities still rank by timestamp.
TopK scan_top_k(const GrbState& s, harness::Query q,
                const grb::Vector<U64>& scores) {
  TopK top(3);
  const bool q1 = q == harness::Query::kQ1;
  const Index n = q1 ? s.num_posts() : s.num_comments();
  for (Index i = 0; i < n; ++i) {
    top.offer_guarded(
        Ranked{q1 ? s.post_id(i) : s.comment_id(i), scores.at_or(i, 0),
               q1 ? s.post_timestamp(i) : s.comment_timestamp(i)});
  }
  return top;
}

}  // namespace

// --- GrbBatchEngine ----------------------------------------------------------

void GrbBatchEngine::load(const sm::SocialGraph& g) {
  state_ = GrbState::from_graph(g);
}

std::string GrbBatchEngine::evaluate() {
  const auto scores = query_ == harness::Query::kQ1 ? q1_batch_scores(state_)
                                                    : q2_batch_scores(state_);
  return scan_top_k(state_, query_, scores).answer();
}

std::string GrbBatchEngine::initial() { return evaluate(); }

std::string GrbBatchEngine::update(const sm::ChangeSet& cs) {
  state_.apply_change_set(cs);  // batch: delta discarded (and recycled by
                                // its destructor), full recompute
  return evaluate();
}

// --- GrbIncrementalEngine ----------------------------------------------------

void GrbIncrementalEngine::load(const sm::SocialGraph& g) {
  state_ = GrbState::from_graph(g);
}

Ranked GrbIncrementalEngine::ranked_of(Index entity, U64 score) const {
  const bool q1 = query_ == harness::Query::kQ1;
  return Ranked{
      q1 ? state_.post_id(entity) : state_.comment_id(entity), score,
      q1 ? state_.post_timestamp(entity) : state_.comment_timestamp(entity)};
}

void GrbIncrementalEngine::offer(Index entity, U64 score) {
  top_.offer(ranked_of(entity, score));
}

std::string GrbIncrementalEngine::initial() {
  // First step: full evaluation (the paper's engine switches to incremental
  // maintenance from the second step on). The same scan seeds the pruning
  // state: exact block bounds from the fresh score vector and the candidate
  // pool from the ranked walk.
  scores_ = query_ == harness::Query::kQ1 ? q1_batch_scores(state_)
                                          : q2_batch_scores(state_);
  const bool q1 = query_ == harness::Query::kQ1;
  const Index n = q1 ? state_.num_posts() : state_.num_comments();
  bounds_.reset(n);
  pool_.clear();
  top_ = TopK(3);
  PruneStats stats;
  stats.pool_rebuilds = 1;
  const auto idx = scores_.indices();
  const auto val = scores_.values();
  std::size_t pos = 0;
  for (Index i = 0; i < n; ++i) {
    U64 v = 0;
    if (pos < idx.size() && idx[pos] == i) {
      v = val[pos];
      ++pos;
    }
    bounds_.raise(i, v);
    const Ranked r = ranked_of(i, v);
    top_.offer_guarded(r);
    pool_.offer_guarded(i, r);
  }
  prune_stats_ += stats;
  add_prune_counters(stats);
  return top_.answer();
}

void GrbIncrementalEngine::pruned_rerank(PruneStats& stats) {
  TopK top(top_.k());
  pool_.seed(top, stats);
  const auto idx = scores_.indices();
  const auto val = scores_.values();
  std::size_t pos = 0;  // linear cursor: blocks are visited in order
  pruned_blocks(
      top, bounds_.num_blocks(), [&](Index b) { return bounds_.bound(b); },
      [&](Index b) {
        const Index lo = bounds_.block_lo(b);
        const Index hi = bounds_.block_hi(b);
        pos = static_cast<std::size_t>(
            std::lower_bound(idx.begin() + pos, idx.end(), lo) - idx.begin());
        for (Index i = lo; i < hi; ++i) {
          U64 v = 0;
          if (pos < idx.size() && idx[pos] == i) {
            v = val[pos];
            ++pos;
          }
          const Ranked r = ranked_of(i, v);
          top.offer_guarded(r);
          pool_.offer_guarded(i, r);  // harvest survivors back into the pool
        }
      },
      stats);
  top_ = std::move(top);
}

std::string GrbIncrementalEngine::update(const sm::ChangeSet& cs) {
  GrbDelta delta = state_.apply_change_set(cs);
  grb::Vector<U64> changed =
      query_ == harness::Query::kQ1
          ? q1_incremental_update(state_, delta, scores_)
          : q2_incremental_update(state_, delta, scores_);
  const bool removals = delta.has_removals();
  const bool q1 = query_ == harness::Query::kQ1;
  const Index n = q1 ? state_.num_posts() : state_.num_comments();

  // Fold this epoch's changed pairs into the pruning state on *every*
  // epoch: every score change flows through `changed`, which is what keeps
  // the pool values exact and the bounds valid upper bounds across change
  // sets. Newborn entities land in zero-bound blocks; their first nonzero
  // score arrives as a changed pair.
  bounds_.resize(n);
  PruneStats stats;
  const auto value_of = [&](Index i) { return scores_.at_or(i, 0); };
  const auto ci = changed.indices();
  const auto cv = changed.values();
  for (std::size_t k = 0; k < ci.size(); ++k) {
    bounds_.note_change(ci[k], cv[k], removals, value_of, stats);
    pool_.offer(ci[k], ranked_of(ci[k], cv[k]));
  }
  const auto& newborn = q1 ? delta.new_posts : delta.new_comments;
  for (const Index i : newborn) {
    pool_.offer(i, ranked_of(i, scores_.at_or(i, 0)));
  }

  if (removals) {
    // Scores are no longer monotone, so merging changed entities into the
    // previous top-3 is unsound (a demoted leader must fall out in favour
    // of an entity we never offered). Instead of the old full O(n) re-rank:
    // seed the threshold from the pool, then scan only the blocks whose
    // upper bound can still beat it.
    pruned_rerank(stats);
  } else {
    // Insert-only fast path: merge the previous top-3 with (a) every entity
    // whose score changed and (b) new zero-score entities, which can rank
    // by recency.
    for (std::size_t k = 0; k < ci.size(); ++k) {
      offer(ci[k], cv[k]);
    }
    for (const Index i : newborn) {
      offer(i, scores_.at_or(i, 0));
    }
  }
  prune_stats_ += stats;
  add_prune_counters(stats);
  grb::recycle(std::move(changed));
  return top_.answer();
}

// --- GrbIncrementalCcEngine --------------------------------------------------

void GrbIncrementalCcEngine::load(const sm::SocialGraph& g) {
  state_ = GrbState::from_graph(g);
  per_comment_.clear();
  liked_by_user_.assign(state_.num_users(), {});
  per_comment_.resize(state_.num_comments());
  for (Index c = 0; c < state_.num_comments(); ++c) {
    for (const Index u : state_.likes().row_cols(c)) {
      add_like(c, u);
    }
  }
}

void GrbIncrementalCcEngine::add_like(Index comment, Index user,
                                      bool update_index) {
  auto& cc = per_comment_[comment];
  const auto [it, inserted] = cc.local.emplace(user, 0);
  if (!inserted) return;  // duplicate like
  it->second = cc.cc.add_node();
  if (update_index) {
    if (static_cast<Index>(liked_by_user_.size()) <= user) {
      liked_by_user_.resize(user + 1);
    }
    liked_by_user_[user].push_back(comment);
  }
  // Union with every friend of `user` already in the comment's fan set.
  for (const Index f : state_.friends().row_cols(user)) {
    const auto fit = cc.local.find(f);
    if (fit != cc.local.end()) {
      cc.cc.add_edge(it->second, fit->second);
    }
  }
}

void GrbIncrementalCcEngine::rebuild_comment(Index comment) {
  per_comment_[comment] = CommentCc{};
  for (const Index u : state_.likes().row_cols(comment)) {
    add_like(comment, u, /*update_index=*/false);
  }
}

void GrbIncrementalCcEngine::offer(Index comment) {
  top_.offer(Ranked{state_.comment_id(comment),
                    per_comment_[comment].cc.sum_squared_sizes(),
                    state_.comment_timestamp(comment)});
}

std::string GrbIncrementalCcEngine::initial() {
  if (query_ == harness::Query::kQ1) {
    q1_scores_ = q1_batch_scores(state_);
    top_ = scan_top_k(state_, query_, q1_scores_);
    return top_.answer();
  }
  top_ = TopK(3);
  for (Index c = 0; c < state_.num_comments(); ++c) {
    offer(c);
  }
  return top_.answer();
}

std::string GrbIncrementalCcEngine::update(const sm::ChangeSet& cs) {
  GrbDelta delta = state_.apply_change_set(cs);
  if (query_ == harness::Query::kQ1) {
    // Q1 has no CC component; behave exactly like the incremental engine.
    auto changed = q1_incremental_update(state_, delta, q1_scores_);
    if (delta.has_removals()) {
      top_ = scan_top_k(state_, query_, q1_scores_);
      grb::recycle(std::move(changed));
      return top_.answer();
    }
    const auto ci = changed.indices();
    const auto cv = changed.values();
    for (std::size_t k = 0; k < ci.size(); ++k) {
      top_.offer(Ranked{state_.post_id(ci[k]), cv[k],
                        state_.post_timestamp(ci[k])});
    }
    for (const Index p : delta.new_posts) {
      top_.offer(Ranked{state_.post_id(p), q1_scores_.at_or(p, 0),
                        state_.post_timestamp(p)});
    }
    grb::recycle(std::move(changed));
    return top_.answer();
  }

  per_comment_.resize(state_.num_comments());

  if (delta.has_removals()) {
    // Union-find supports no deletions: rebuild the structures of exactly
    // the affected comments from the updated matrices, fix the per-user
    // like index, and re-rank from the maintained per-comment sums.
    for (const auto& [c, u] : delta.removed_likes) {
      auto& liked = liked_by_user_[u];
      const auto it = std::find(liked.begin(), liked.end(), c);
      if (it != liked.end()) liked.erase(it);
    }
    if (liked_by_user_.size() < state_.num_users()) {
      liked_by_user_.resize(state_.num_users());
    }
    for (const auto& [c, u] : delta.new_likes) {
      liked_by_user_[u].push_back(c);
    }
    for (const Index c : q2_affected_comments(state_, delta)) {
      rebuild_comment(c);
    }
    top_ = TopK(3);
    for (Index c = 0; c < state_.num_comments(); ++c) {
      top_.offer_guarded(Ranked{state_.comment_id(c),
                                per_comment_[c].cc.sum_squared_sizes(),
                                state_.comment_timestamp(c)});
    }
    return top_.answer();
  }
  if (liked_by_user_.size() < state_.num_users()) {
    liked_by_user_.resize(state_.num_users());
  }
  std::vector<Index> touched = delta.new_comments;
  // New likes first: friends_ already reflects the whole change set, so
  // unions with same-batch friendships happen here; repeating them below is
  // a harmless no-op (union-find is idempotent).
  for (const auto& [c, u] : delta.new_likes) {
    add_like(c, u);
    touched.push_back(c);
  }
  // New friendships: union inside every comment both endpoints like.
  for (const auto& [a, b] : delta.new_friendships) {
    const auto& smaller = liked_by_user_[a].size() <= liked_by_user_[b].size()
                              ? liked_by_user_[a]
                              : liked_by_user_[b];
    for (const Index c : smaller) {
      auto& cc = per_comment_[c];
      const auto ia = cc.local.find(a);
      const auto ib = cc.local.find(b);
      if (ia != cc.local.end() && ib != cc.local.end()) {
        if (cc.cc.add_edge(ia->second, ib->second)) {
          touched.push_back(c);
        }
      }
    }
  }
  std::sort(touched.begin(), touched.end());
  touched.erase(std::unique(touched.begin(), touched.end()), touched.end());
  for (const Index c : touched) {
    offer(c);
  }
  return top_.answer();
}

// --- factory -----------------------------------------------------------------

harness::EnginePtr make_grb_engine(const std::string& variant,
                                   harness::Query q) {
  if (variant == "batch") return std::make_unique<GrbBatchEngine>(q);
  if (variant == "incremental") {
    return std::make_unique<GrbIncrementalEngine>(q);
  }
  if (variant == "incremental-cc") {
    return std::make_unique<GrbIncrementalCcEngine>(q);
  }
  throw grb::InvalidValue("unknown GraphBLAS engine variant: " + variant);
}

}  // namespace queries
