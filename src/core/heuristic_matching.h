// Algorithm 2 (Section 6): iterated min-cost maximum matching.
//
// Round l builds the bipartite graph G_l between cloudlets that still have
// residual capacity and the remaining items; an edge (u, I_{i,k}) with cost
// c(f_i, k, u) (Eq. 3) exists when u lies in N_l^+(v_i) and fits c(f_i).
// Each round's min-cost maximum matching M_l is applied in full (capacities
// decremented, matched items retired), and rounds repeat until the budget
// rule fires or no edges remain. Never violates capacities (Theorem 6.2).
//
// M_l is not found by a general assignment solver. An item's cost depends
// only on (i, k), never on u, and all items of f_i share one neighbourhood,
// so the item sets G_l can match form a transversal matroid and the greedy
// over ascending cost is a min-cost maximum matching
// (matching/class_matching.h): take the cheapest next item, the lowest
// chain position on an exact tie, keep it when one augmenting path admits
// it, and block f_i for the round when it does not (its later items cannot
// fit either). The general Hungarian (matching/hungarian.h) is only the
// test oracle. Cost-equal maximum matchings can use different cloudlets,
// so the cloudlet a backup lands on is this rule's choice; per-function
// counts and the round's total cost match the Hungarian's whenever item
// costs are distinct. Placements are emitted in ascending cloudlet order.
#pragma once

#include "core/augmentation.h"

namespace mecra::core {

[[nodiscard]] AugmentationResult augment_heuristic(
    const BmcgapInstance& instance, const AugmentOptions& options = {});

}  // namespace mecra::core
