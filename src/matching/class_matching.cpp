#include "matching/class_matching.h"

#include <algorithm>

#include "util/check.h"

namespace mecra::matching {

const ClassMatching& ClassMatcher::solve(std::span<const ItemClass> classes,
                                         std::size_t num_right) {
  result_.owner.assign(num_right, kUnmatched);
  result_.taken.assign(classes.size(), 0);
  result_.cardinality = 0;
  result_.total_cost = 0.0;
  blocked_.assign(classes.size(), false);
  // Grown, never shrunk: stale stamps are always below the current epoch.
  if (right_seen_.size() < num_right) right_seen_.resize(num_right, 0);
  if (class_seen_.size() < classes.size()) {
    class_seen_.resize(classes.size(), 0);
  }
  for (const ItemClass& cls : classes) {
    for (const std::uint32_t r : cls.eligible) MECRA_CHECK(r < num_right);
  }

  // Matroid greedy: the globally cheapest next item (lowest class on exact
  // ties) is kept iff an augmenting path admits it.
  for (;;) {
    std::uint32_t best = kUnmatched;
    double best_cost = 0.0;
    for (std::uint32_t c = 0; c < classes.size(); ++c) {
      if (blocked_[c]) continue;
      const std::uint32_t next = result_.taken[c];
      if (next >= classes[c].costs.size()) continue;
      if (best == kUnmatched || classes[c].costs[next] < best_cost) {
        best = c;
        best_cost = classes[c].costs[next];
      }
    }
    if (best == kUnmatched) break;

    next_epoch();
    if (augment(classes, best)) {
      ++result_.taken[best];
      ++result_.cardinality;
      result_.total_cost += best_cost;
    } else {
      blocked_[best] = true;
    }
  }
  return result_;
}

bool ClassMatcher::augment(std::span<const ItemClass> classes,
                           std::uint32_t cls) {
  // Each class is entered at most once per search: all its items share one
  // neighbourhood, so a second entry could reach nothing new.
  class_seen_[cls] = epoch_;
  const std::span<const std::uint32_t> eligible = classes[cls].eligible;
  // A free node ends the path at once; only when every eligible node is
  // held does the search try to re-route a holder.
  for (const std::uint32_t r : eligible) {
    if (result_.owner[r] == kUnmatched) {
      result_.owner[r] = cls;
      return true;
    }
  }
  for (const std::uint32_t r : eligible) {
    if (right_seen_[r] == epoch_) continue;
    right_seen_[r] = epoch_;
    const std::uint32_t holder = result_.owner[r];
    if (class_seen_[holder] != epoch_ && augment(classes, holder)) {
      result_.owner[r] = cls;
      return true;
    }
  }
  return false;
}

void ClassMatcher::next_epoch() {
  if (++epoch_ == 0) {  // wrapped: old stamps could collide, reset them
    std::fill(right_seen_.begin(), right_seen_.end(), 0);
    std::fill(class_seen_.begin(), class_seen_.end(), 0);
    epoch_ = 1;
  }
}

}  // namespace mecra::matching
