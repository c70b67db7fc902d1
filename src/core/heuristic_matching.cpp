#include "core/heuristic_matching.h"

#include "core/augment_obs.h"

#include <span>

#include "matching/class_matching.h"
#include "util/timer.h"

namespace mecra::core {

AugmentationResult augment_heuristic(const BmcgapInstance& instance,
                                     const AugmentOptions& options) {
  util::Timer timer;
  AugmentationResult result;
  result.algorithm = "Heuristic";
  const detail::AugmentObs augment_obs("augment.heuristic", result);

  // Lines 2-4: the admission already meets the expectation.
  if (instance.initial_reliability >= instance.expectation) {
    finalize_result(instance, result);
    result.runtime_seconds = timer.elapsed_seconds();
    return result;
  }

  // Per function, once per call: the allowed cloudlets as indices into
  // `instance.cloudlets` (ascending, as `allowed` is) and the Eq. (3) costs
  // of its items, k ascending as the item universe lists them.
  const std::size_t n = instance.functions.size();
  std::vector<std::vector<std::uint32_t>> allowed(n);
  for (std::size_t i = 0; i < n; ++i) {
    allowed[i].reserve(instance.functions[i].allowed.size());
    for (const graph::NodeId u : instance.functions[i].allowed) {
      allowed[i].push_back(
          static_cast<std::uint32_t>(instance.cloudlet_index(u)));
    }
  }
  std::vector<std::vector<double>> costs(n);
  for (const ItemRef& item : instance.items) {
    costs[item.chain_pos].push_back(instance.item_cost(item));
  }

  std::vector<double> residual = instance.residual;
  std::vector<std::uint32_t> counts(n, 0);
  double eq3_cost = 0.0;
  std::size_t rounds = 0;

  // Round scratch, reused: G_l's eligible cloudlets, flattened per class.
  std::vector<std::uint32_t> eligible;
  std::vector<std::size_t> eligible_end(n);
  std::vector<matching::ItemClass> classes(n);
  matching::ClassMatcher matcher;

  for (;;) {
    // Build G_l: the remaining items of f_i may use every allowed cloudlet
    // that still fits c(f_i).
    eligible.clear();
    for (std::size_t i = 0; i < n; ++i) {
      if (counts[i] < costs[i].size()) {
        for (const std::uint32_t c : allowed[i]) {
          if (residual[c] >= instance.functions[i].demand) {
            eligible.push_back(c);
          }
        }
      }
      eligible_end[i] = eligible.size();
    }
    std::size_t begin = 0;
    for (std::size_t i = 0; i < n; ++i) {
      classes[i] = matching::ItemClass{
          std::span(eligible).subspan(begin, eligible_end[i] - begin),
          std::span(costs[i]).subspan(counts[i])};
      begin = eligible_end[i];
    }

    const matching::ClassMatching& matched =
        matcher.solve(classes, instance.cloudlets.size());
    if (matched.cardinality == 0) break;  // E_l == empty or nothing fits
    ++rounds;

    for (std::size_t c = 0; c < instance.cloudlets.size(); ++c) {
      const std::uint32_t i = matched.owner[c];
      if (i == matching::ClassMatcher::kUnmatched) continue;
      const double demand = instance.functions[i].demand;
      MECRA_CHECK(residual[c] >= demand - 1e-9);
      residual[c] -= demand;
      result.placements.push_back(
          SecondaryPlacement{i, instance.cloudlets[c]});
    }
    for (std::size_t i = 0; i < n; ++i) counts[i] += matched.taken[i];
    eq3_cost += matched.total_cost;

    if (options.budget_mode == BudgetMode::kLiteralCostBudget) {
      // The printed Algorithm 2 rule: stop once c(S) reaches C = -ln rho.
      if (eq3_cost >= instance.budget) break;
    } else {
      if (instance.reliability_for_counts(counts) >= instance.expectation) {
        break;
      }
    }
  }
  result.solver_nodes = rounds;

  if (options.trim_to_expectation &&
      options.budget_mode == BudgetMode::kReliabilityTarget) {
    trim_to_expectation(instance, result);
  }
  finalize_result(instance, result);
  result.runtime_seconds = timer.elapsed_seconds();
  return result;
}

}  // namespace mecra::core
