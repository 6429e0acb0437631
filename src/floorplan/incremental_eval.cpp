#include "floorplan/incremental_eval.hpp"

#include <cassert>
#include <utility>

namespace hidap {

IncrementalLayoutEval::IncrementalLayoutEval(const std::vector<BudgetBlock>& blocks,
                                             const Rect& region,
                                             const std::vector<Point>& terminals,
                                             const AffinityMatrix& affinity,
                                             PolishExpression initial)
    : blocks_(blocks), region_(region) {
  const std::size_t n = blocks.size();
  const std::size_t total = n + terminals.size();
  assert(affinity.size() == total);
  assert(static_cast<std::size_t>(initial.operand_count()) == n);

  // Positive-weight pairs in the oracle's row-major iteration order;
  // terminal-terminal pairs never contribute (layout_connectivity_cost
  // skips them), so only rows of movable blocks are walked.
  block_pairs_.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < total; ++j) {
      const double a = affinity.at(i, j);
      if (a > 0) {
        const auto idx = static_cast<std::uint32_t>(pairs_.size());
        pairs_.push_back(static_cast<std::uint32_t>(i), static_cast<std::uint32_t>(j), a);
        block_pairs_[i].push_back(idx);
        if (j < n) block_pairs_[j].push_back(idx);
      }
    }
  }

  // Centers span blocks then terminals; the terminal tail is written
  // once, into both buffers (they swap on commit), and never touched
  // again -- pair terms index one array with no movable/terminal branch.
  committed_centers_.resize(total);
  proposed_centers_.resize(total);
  for (std::size_t t = 0; t < terminals.size(); ++t) {
    committed_centers_.set(n + t, terminals[t].x, terminals[t].y);
    proposed_centers_.set(n + t, terminals[t].x, terminals[t].y);
  }

  leaf_infos_.reserve(n);
  for (const BudgetBlock& block : blocks) leaf_infos_.push_back(budget_leaf_info(block));

  committed_expr_ = std::move(initial);
  proposed_expr_ = committed_expr_;

  const std::size_t len = committed_expr_.size();
  infos_.resize(len);
  info_ptrs_.resize(len);
  // Permanent scratch slots, one per possible dirty node; sized once and
  // never resized, since info_ptrs_ aliases them.
  scratch_infos_.resize(len);
  dirty_nodes_.reserve(len);

  evaluate_proposed(/*reuse_committed=*/false);
  pending_ = true;
  commit();
}

void IncrementalLayoutEval::rebuild_tree(const PolishExpression& expr) {
  // Same parse as SlicingTree::from_polish, into reused storage, plus the
  // element span of every subtree. Node index == element position, so a
  // node's span is [span_start_[i], i].
  tree_.nodes.clear();
  parse_stack_.clear();
  const std::vector<int>& elems = expr.elements();
  span_start_.resize(elems.size());
  for (std::size_t p = 0; p < elems.size(); ++p) {
    const int e = elems[p];
    SlicingTree::Node node;
    if (is_operator(e)) {
      assert(parse_stack_.size() >= 2);
      node.right = parse_stack_.back();
      parse_stack_.pop_back();
      node.left = parse_stack_.back();
      parse_stack_.pop_back();
      node.op = e;
      span_start_[p] = span_start_[static_cast<std::size_t>(node.left)];
    } else {
      node.leaf = e;
      span_start_[p] = static_cast<int>(p);
    }
    tree_.nodes.push_back(node);
    parse_stack_.push_back(static_cast<int>(p));
  }
  assert(parse_stack_.size() == 1);
  tree_.root = parse_stack_.back();
}

void IncrementalLayoutEval::evaluate_proposed(bool reuse_committed) {
  const std::size_t n = blocks_.size();
  const std::vector<int>& elems = proposed_expr_.elements();
  const std::size_t len = elems.size();

  if (reuse_committed) {
    // All Polish moves preserve the element count, so positions are
    // stable and a position-wise diff identifies every mutated element.
    assert(committed_expr_.size() == len);
    const std::vector<int>& old_elems = committed_expr_.elements();
    changed_prefix_.resize(len + 1);
    changed_prefix_[0] = 0;
    for (std::size_t p = 0; p < len; ++p) {
      changed_prefix_[p + 1] = changed_prefix_[p] + (elems[p] != old_elems[p] ? 1u : 0u);
    }
  }

  rebuild_tree(proposed_expr_);

  // Bottom-up infos: a subtree whose span contains no mutated position
  // parses to the same node with the same content as before, so its
  // cached info is exactly what a full recompute would produce. Dirty
  // nodes are recomposed into the scratch overlay; commit() folds them
  // back into infos_.
  dirty_nodes_.clear();
  std::size_t scratch_used = 0;
  for (std::size_t i = 0; i < len; ++i) {
    const SlicingTree::Node& node = tree_.nodes[i];
    if (reuse_committed &&
        changed_prefix_[i + 1] == changed_prefix_[static_cast<std::size_t>(span_start_[i])]) {
      info_ptrs_[i] = &infos_[i];
      continue;
    }
    BudgetNodeInfo& slot = scratch_infos_[scratch_used++];
    if (node.is_leaf()) {
      slot = leaf_infos_[static_cast<std::size_t>(node.leaf)];
    } else {
      slot = budget_compose_info(node.op, *info_ptrs_[static_cast<std::size_t>(node.left)],
                                 *info_ptrs_[static_cast<std::size_t>(node.right)]);
    }
    info_ptrs_[i] = &slot;
    dirty_nodes_.push_back(static_cast<std::uint32_t>(i));
  }

  // Top-down split + violation grading, in the oracle's exact traversal
  // order.
  proposed_layout_.leaf_rects.resize(n);
  proposed_layout_.violations = BudgetViolations{};
  budget_assign(tree_, info_ptrs_.data(), blocks_, region_, proposed_layout_);

  // Block centers (the terminal tail is constant; see the constructor).
  for (std::size_t b = 0; b < n; ++b) {
    const Point c = proposed_layout_.leaf_rects[b].center();
    proposed_centers_.set(b, c.x, c.y);
  }

  // Connectivity terms: only pairs with a relocated endpoint change.
  const auto recompute = [&](std::uint32_t idx) {
    proposed_terms_[idx] =
        pairs_.w[idx] * soa_manhattan(proposed_centers_, pairs_.a[idx], pairs_.b[idx]);
  };
  if (reuse_committed) {
    proposed_terms_ = committed_terms_;
    for (std::size_t b = 0; b < n; ++b) {
      if (proposed_centers_.x[b] == committed_centers_.x[b] &&
          proposed_centers_.y[b] == committed_centers_.y[b]) {
        continue;
      }
      // A pair with both endpoints moved is recomputed twice; the value
      // is identical, so the redundancy is harmless.
      for (const std::uint32_t idx : block_pairs_[b]) recompute(idx);
    }
  } else {
    proposed_terms_.resize(pairs_.size());
    for (std::uint32_t idx = 0; idx < pairs_.size(); ++idx) recompute(idx);
  }

  // Left-to-right reduction in the oracle's pair order: the same
  // sequence of additions layout_connectivity_cost() performs over its
  // positive terms, so the sum is bit-identical.
  double connectivity = 0.0;
  for (const double t : proposed_terms_) connectivity += t;

  proposed_cost_ = layout_objective(proposed_layout_.violations, connectivity, region_);
}

double IncrementalLayoutEval::propose(const std::function<void(PolishExpression&)>& mutate) {
  assert(!pending_ && "commit() or rollback() the previous proposal first");
  proposed_expr_ = committed_expr_;
  mutate(proposed_expr_);
  evaluate_proposed(/*reuse_committed=*/true);
  pending_ = true;
  return proposed_cost_;
}

void IncrementalLayoutEval::commit() {
  assert(pending_ && "commit() without a pending proposal");
  std::swap(committed_expr_, proposed_expr_);
  // The scratch slots themselves are permanent (sized once, reused move
  // after move); only the values move over.
  for (std::size_t k = 0; k < dirty_nodes_.size(); ++k) {
    infos_[dirty_nodes_[k]] = std::move(scratch_infos_[k]);
  }
  dirty_nodes_.clear();
  std::swap(committed_layout_, proposed_layout_);
  std::swap(committed_centers_, proposed_centers_);
  std::swap(committed_terms_, proposed_terms_);
  committed_cost_ = proposed_cost_;
  pending_ = false;
}

void IncrementalLayoutEval::rollback() {
  assert(pending_ && "rollback() without a pending proposal");
  pending_ = false;
}

}  // namespace hidap
