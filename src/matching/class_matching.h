// Min-cost maximum matching for class-structured bipartite graphs.
//
// Algorithm 2's auxiliary graph G_l has a special shape. The left side (the
// items I_{i,k}) splits into classes, one per chain position i: every item
// of a class has the same neighbourhood (the cloudlets of N_l^+(v_i) whose
// residual still fits c(f_i)), and an item's Eq. (3) cost depends on (i, k)
// only, never on the cloudlet. The sets of items that can be matched at
// once are the independent sets of a transversal matroid, so a min-cost
// MAXIMUM matching is the matroid greedy: take items in ascending cost and
// keep each one that still extends to a matching (one Kuhn augmenting path
// per item). Once an item of a class fails to extend, every later item of
// that class fails too (same neighbourhood, matching only grows), so the
// class is blocked for the rest of the solve.
//
// Deterministic tie-breaks: among equal-cost next items the lowest class
// index goes first; a class takes its first free right node in the order
// it lists them (ascending index at the Algorithm 2 call site), and only
// when none is free does the augmenting path re-route an earlier item,
// visiting right nodes in that same order. Any tie-break yields the same
// cardinality and total cost as the general Hungarian (matching/hungarian.h,
// which tests use as the oracle); only which cost-equal right nodes are
// used can differ.
#pragma once

#include <cstdint>
#include <limits>
#include <span>
#include <vector>

namespace mecra::matching {

/// One class of interchangeable left items.
struct ItemClass {
  /// Right nodes any item of the class may be matched to, without repeats.
  std::span<const std::uint32_t> eligible;
  /// Costs of the class's items, ascending: the next item comes first.
  std::span<const double> costs;
};

struct ClassMatching {
  /// owner[r] = class matched to right node r, or kUnmatched.
  std::vector<std::uint32_t> owner;
  /// taken[c] = items matched from class c: always its first (cheapest).
  std::vector<std::uint32_t> taken;
  std::size_t cardinality = 0;
  double total_cost = 0.0;
};

/// Reusable solver: scratch buffers persist across solve() calls, so a
/// caller that re-solves every round allocates only on growth.
class ClassMatcher {
 public:
  static constexpr std::uint32_t kUnmatched =
      std::numeric_limits<std::uint32_t>::max();

  /// Min-cost maximum matching of `classes` onto `num_right` right nodes.
  /// The reference stays valid until the next call.
  const ClassMatching& solve(std::span<const ItemClass> classes,
                             std::size_t num_right);

 private:
  /// Kuhn search in the residual graph from class `cls`; on success the
  /// path is applied and `cls` holds one more right node.
  bool augment(std::span<const ItemClass> classes, std::uint32_t cls);
  void next_epoch();

  ClassMatching result_;
  std::vector<bool> blocked_;
  /// Epoch stamps: a node was reached by the current search iff its stamp
  /// equals epoch_ (saves clearing the arrays before every search).
  std::vector<std::uint32_t> right_seen_;
  std::vector<std::uint32_t> class_seen_;
  std::uint32_t epoch_ = 0;
};

}  // namespace mecra::matching
