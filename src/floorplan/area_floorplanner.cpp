#include "floorplan/area_floorplanner.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>

namespace hidap {

void compose_slicing_curve(int op, const ShapeCurve& left, const ShapeCurve& right,
                           std::size_t curve_points, ShapeCurve& out) {
  // V: side by side (widths add); H: stacked (heights add).
  if (op == kOpV) {
    ShapeCurve::compose_horizontal(left, right, out);
  } else {
    ShapeCurve::compose_vertical(left, right, out);
  }
  out.prune(curve_points);
}

ShapeCurve compose_curve(const std::vector<ShapeCurve>& leaves,
                         const PolishExpression& expr, std::size_t curve_points) {
  // Pointer stack over borrowed leaf curves; every internal node composes
  // into the slot of its element position.
  const std::vector<int>& elems = expr.elements();
  std::vector<ShapeCurve> slots(elems.size());
  std::vector<const ShapeCurve*> stack;
  for (std::size_t p = 0; p < elems.size(); ++p) {
    const int e = elems[p];
    if (is_operator(e)) {
      const ShapeCurve* right = stack.back();
      stack.pop_back();
      const ShapeCurve* left = stack.back();
      stack.pop_back();
      compose_slicing_curve(e, *left, *right, curve_points, slots[p]);
      stack.push_back(&slots[p]);
    } else {
      stack.push_back(&leaves[static_cast<std::size_t>(e)]);
    }
  }
  if (stack.empty()) return {};
  if (is_operator(elems.back())) return std::move(slots.back());
  return *stack.back();
}

double root_min_area(const ShapeCurve& root) {
  const auto best = root.min_area_shape();
  return best ? best->area() : std::numeric_limits<double>::infinity();
}

IncrementalCurveEval::IncrementalCurveEval(const std::vector<ShapeCurve>& leaves,
                                           std::size_t curve_points,
                                           PolishExpression initial)
    : cache_(leaves, std::move(initial)), curve_points_(curve_points) {
  // A composition reserves the sum of its operands' sizes, and every
  // operand is a leaf or a pruned curve: sizing each slot for two of the
  // larger keeps every later proposal off the heap.
  std::size_t leaf_points = 0;
  for (const ShapeCurve& leaf : leaves) leaf_points = std::max(leaf_points, leaf.points().size());
  const std::size_t capacity = 2 * std::max(leaf_points, curve_points);
  cache_.reserve_slots([capacity](ShapeCurve& slot) { slot.reserve(capacity); });
  evaluate_proposed();
  commit();
}

void IncrementalCurveEval::evaluate_proposed() {
  cache_.evaluate([cap = curve_points_](int op, const ShapeCurve& l, const ShapeCurve& r,
                                        ShapeCurve& out) {
    compose_slicing_curve(op, l, r, cap, out);
  });
  proposed_cost_ = root_min_area(cache_.root());
}

double IncrementalCurveEval::propose(const std::function<void(PolishExpression&)>& mutate) {
  mutate(cache_.propose());
  evaluate_proposed();
  return proposed_cost_;
}

void IncrementalCurveEval::commit() {
  cache_.commit();
  committed_cost_ = proposed_cost_;
}

void IncrementalCurveEval::rollback() { cache_.rollback(); }

BestExpressions::BestExpressions(std::size_t keep) : keep_(keep) {
  entries_.reserve(std::min<std::size_t>(keep_, 64));
}

void BestExpressions::record(double cost, const PolishExpression& expr) {
  if (keep_ == 0) return;
  if (entries_.size() < keep_) {
    entries_.emplace(entries_.begin(), cost, expr);
    return;
  }
  std::rotate(entries_.begin(), entries_.end() - 1, entries_.end());
  entries_.front().first = cost;
  entries_.front().second = expr;
}

ShapeCurve pack_shape_curve(const std::vector<ShapeCurve>& leaves,
                            const AreaFloorplanOptions& options) {
  if (leaves.empty()) return {};
  if (leaves.size() == 1) return leaves[0];

  const PolishExpression initial = PolishExpression::initial(static_cast<int>(leaves.size()));

  // Keep the few best expressions seen; their curves are merged at the end
  // ("a set of shape combinations with small area", paper IV-A).
  BestExpressions best_set(static_cast<std::size_t>(options.best_solutions_merged));

  // Both evaluation modes draw the identical RNG stream (the same
  // perturb retry loop) and produce bit-identical costs, so they accept
  // and reject the same moves and keep the same best set.
  Rng move_rng(options.anneal.seed ^ 0x5bd1e995u);
  const auto perturb_retry = [&move_rng](PolishExpression& expr) {
    // Retry until some move applies (perturb can fail on tiny instances).
    for (int tries = 0; tries < 8; ++tries) {
      if (expr.perturb(move_rng)) break;
    }
  };
  std::unique_ptr<IncrementalCurveEval> inc;
  ExpressionSpaceTracker space(static_cast<int>(leaves.size()));
  const auto perturb_tracked = [&](PolishExpression& expr) {
    perturb_retry(expr);
    space.record(expr);
  };
  PolishExpression current, backup;
  double initial_cost = 0.0;
  AnnealHooks hooks;
  if (options.anneal.incremental) {
    inc = std::make_unique<IncrementalCurveEval>(leaves, options.curve_points, initial);
    initial_cost = inc->cost();
    // Once a two- or three-leaf walk has proposed every expression, no
    // later move can enter the best set (see AnnealHooks::exhausted).
    space.record(initial);
    hooks.propose = [&]() { return inc->propose(perturb_tracked); };
    hooks.commit = [&]() { inc->commit(); };
    hooks.reject = [&]() { inc->rollback(); };
    hooks.on_new_best = [&](double cost) { best_set.record(cost, inc->expression()); };
    hooks.recomposed_nodes = [&]() { return inc->recomposed_nodes(); };
    if (space.tracking()) hooks.exhausted = [&]() { return space.exhausted(); };
  } else {
    current = initial;
    const auto cost_of = [&](const PolishExpression& expr) {
      return root_min_area(compose_curve(leaves, expr, options.curve_points));
    };
    initial_cost = cost_of(current);
    hooks.propose = [&, cost_of]() {
      backup = current;
      perturb_retry(current);
      return cost_of(current);
    };
    hooks.reject = [&]() { current = backup; };
    hooks.on_new_best = [&](double cost) { best_set.record(cost, current); };
  }
  best_set.record(initial_cost, initial);

  AnnealOptions anneal_options = options.anneal;
  anneal_options.moves_per_temperature =
      std::max(anneal_options.moves_per_temperature,
               static_cast<int>(leaves.size()) * 8);
  anneal_options.obs_site = "anneal_shape";
  anneal(initial_cost, anneal_options, hooks);

  ShapeCurve merged;
  for (const auto& [cost, expr] : best_set.entries()) {
    if (!std::isfinite(cost)) continue;
    merged.merge(compose_curve(leaves, expr, options.curve_points));
  }
  merged.prune(options.curve_points);
  return merged;
}

}  // namespace hidap
