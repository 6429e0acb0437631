#include "floorplan/incremental_eval.hpp"

#include <algorithm>
#include <cassert>
#include <utility>

namespace hidap {

namespace {

std::vector<BudgetNodeInfo> leaf_infos_of(const std::vector<BudgetBlock>& blocks) {
  std::vector<BudgetNodeInfo> infos;
  infos.reserve(blocks.size());
  for (const BudgetBlock& block : blocks) infos.push_back(budget_leaf_info(block));
  return infos;
}

}  // namespace

IncrementalLayoutEval::IncrementalLayoutEval(const std::vector<BudgetBlock>& blocks,
                                             const Rect& region,
                                             const std::vector<Point>& terminals,
                                             const AffinityMatrix& affinity,
                                             PolishExpression initial)
    : blocks_(blocks),
      region_(region),
      leaf_infos_(leaf_infos_of(blocks)),
      cache_(leaf_infos_, std::move(initial), /*compose_root=*/false) {
  const std::size_t n = blocks.size();
  const std::size_t total = n + terminals.size();
  assert(affinity.size() == total);
  assert(static_cast<std::size_t>(cache_.expression().operand_count()) == n);

  // Positive-weight pairs in the oracle's row-major iteration order;
  // terminal-terminal pairs never contribute (layout_connectivity_cost
  // skips them), so only rows of movable blocks are walked.
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < total; ++j) {
      const double a = affinity.at(i, j);
      if (a > 0) {
        pairs_.push_back(static_cast<std::uint32_t>(i), static_cast<std::uint32_t>(j), a);
      }
    }
  }
  committed_terms_.resize(pairs_.size());
  proposed_terms_.resize(pairs_.size());

  // Centers span blocks then terminals; the terminal tail is written
  // once, into both buffers (they swap on commit), and never touched
  // again -- pair terms index one array with no movable/terminal branch.
  committed_centers_.resize(total);
  proposed_centers_.resize(total);
  for (std::size_t t = 0; t < terminals.size(); ++t) {
    committed_centers_.set(n + t, terminals[t].x, terminals[t].y);
    proposed_centers_.set(n + t, terminals[t].x, terminals[t].y);
  }
  moved_.assign(total, 0);
  committed_layout_.leaf_rects.resize(n);
  proposed_layout_.leaf_rects.resize(n);

  // Every slot is sized once for the largest composition it can hold,
  // so no later proposal grows one.
  std::size_t leaf_points = 0;
  for (const BudgetBlock& block : blocks) {
    leaf_points = std::max(leaf_points, block.gamma.points().size());
  }
  const std::size_t capacity = budget_compose_capacity(leaf_points);
  cache_.reserve_slots([capacity](BudgetNodeInfo& slot) { slot.gamma.reserve(capacity); });

  evaluate_proposed();
  commit();
}

void IncrementalLayoutEval::evaluate_proposed() {
  const std::size_t n = blocks_.size();
  cache_.evaluate(budget_compose_info);

  // Top-down split + violation grading, in the oracle's exact traversal
  // order.
  proposed_layout_.violations = BudgetViolations{};
  budget_assign(cache_.tree(), cache_.infos(), blocks_, region_, proposed_layout_);

  // Block centers (the terminal tail is constant; see the constructor).
  for (std::size_t b = 0; b < n; ++b) {
    const Point c = proposed_layout_.leaf_rects[b].center();
    proposed_centers_.set(b, c.x, c.y);
    moved_[b] = !cache_.primed() || c.x != committed_centers_.x[b] ||
                c.y != committed_centers_.y[b];
  }

  // One pass over the pairs: a term with a relocated endpoint is
  // recomputed, any other keeps its committed value, and every term is
  // added left to right in the oracle's pair order -- the same sequence
  // of additions layout_connectivity_cost() performs over its positive
  // terms, so the sum is bit-identical.
  double connectivity = 0.0;
  for (std::size_t idx = 0; idx < pairs_.size(); ++idx) {
    const std::uint32_t a = pairs_.a[idx];
    const std::uint32_t b = pairs_.b[idx];
    const double term = (moved_[a] | moved_[b]) != 0
                            ? pairs_.w[idx] * soa_manhattan(proposed_centers_, a, b)
                            : committed_terms_[idx];
    proposed_terms_[idx] = term;
    connectivity += term;
  }

  proposed_cost_ = layout_objective(proposed_layout_.violations, connectivity, region_);
}

double IncrementalLayoutEval::propose(const std::function<void(PolishExpression&)>& mutate) {
  mutate(cache_.propose());
  evaluate_proposed();
  return proposed_cost_;
}

void IncrementalLayoutEval::commit() {
  cache_.commit();
  std::swap(committed_layout_, proposed_layout_);
  std::swap(committed_centers_, proposed_centers_);
  std::swap(committed_terms_, proposed_terms_);
  committed_cost_ = proposed_cost_;
}

void IncrementalLayoutEval::rollback() { cache_.rollback(); }

}  // namespace hidap
