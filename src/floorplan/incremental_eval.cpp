#include "floorplan/incremental_eval.hpp"

#include <algorithm>
#include <cassert>
#include <utility>

namespace hidap {

IncrementalLayoutEval::IncrementalLayoutEval(const std::vector<BudgetBlock>& blocks,
                                             const Rect& region,
                                             const std::vector<Point>& terminals,
                                             const AffinityMatrix& affinity,
                                             PolishExpression initial,
                                             const BudgetOptions& options)
    : blocks_(blocks), region_(region), affinity_(affinity), options_(options) {
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
  next_id_ = static_cast<std::uint32_t>(n);  // ids 0..n-1 name the leaf values

  committed_expr_ = std::move(initial);
  proposed_expr_ = committed_expr_;

  const std::size_t len = committed_expr_.size();
  infos_.resize(len);
  ids_.resize(len);
  proposed_ids_.resize(len);
  info_ptrs_.resize(len);
  // Permanent scratch slots, one per possible dirty node: dirty infos are
  // copy-assigned into them so the contained curve buffers are reused
  // move after move (no steady-state allocation).
  scratch_infos_.resize(len);
  dirty_nodes_.reserve(len);
  seen_once_.assign(std::size_t{1} << kSeenOnceBits, 0);
  committed_split_.resize(len);
  proposed_split_.resize(len);
  clean_nodes_.resize(len);

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
  // nodes go through the compose memo (leaf values are permanent) into
  // the scratch overlay; commit() folds them back into infos_.
  dirty_nodes_.clear();
  std::size_t scratch_used = 0;
  for (std::size_t i = 0; i < len; ++i) {
    const SlicingTree::Node& node = tree_.nodes[i];
    const bool clean =
        reuse_committed &&
        changed_prefix_[i + 1] == changed_prefix_[static_cast<std::size_t>(span_start_[i])];
    clean_nodes_[i] = clean ? 1 : 0;
    if (clean) {
      info_ptrs_[i] = &infos_[i];
      // A committed value that was never admitted to the memo still
      // deserves a stable name, or its (dirty) ancestors could never be
      // memoized; persist the id so future proposals key off it too.
      if (ids_[i] == kNoId && next_id_ != kNoId) ids_[i] = next_id_++;
      proposed_ids_[i] = ids_[i];
      continue;
    }
    BudgetNodeInfo& slot = scratch_infos_[scratch_used++];
    if (node.is_leaf()) {
      const auto leaf = static_cast<std::size_t>(node.leaf);
      slot = leaf_infos_[leaf];
      proposed_ids_[i] = static_cast<std::uint32_t>(leaf);
    } else {
      const std::uint32_t id_l = proposed_ids_[static_cast<std::size_t>(node.left)];
      const std::uint32_t id_r = proposed_ids_[static_cast<std::size_t>(node.right)];
      const BudgetNodeInfo& l = *info_ptrs_[static_cast<std::size_t>(node.left)];
      const BudgetNodeInfo& r = *info_ptrs_[static_cast<std::size_t>(node.right)];
      if (id_l == kNoId || id_r == kNoId) {
        // Id space exhausted somewhere below: compute unmemoized.
        slot = budget_compose_info(node.op, l, r, options_.curve_points);
        proposed_ids_[i] = kNoId;
      } else {
        // Canonical unordered key: the curve algebra (and am/at sums) is
        // exactly commutative, so (op, A, B) and (op, B, A) share a value.
        const std::uint64_t lo = std::min(id_l, id_r);
        const std::uint64_t hi = std::max(id_l, id_r);
        const std::uint64_t key = (hi << 32) | lo;
        auto& memo = node.op == kOpV ? memo_v_ : memo_h_;
        if (const auto it = memo.find(key); it != memo.end()) {
          slot = it->second.info;
          proposed_ids_[i] = it->second.id;
        } else {
          slot = budget_compose_info(node.op, l, r, options_.curve_points);
          // Mix the operator into the admission-filter key; the memo
          // itself keeps the operators in separate maps.
          const std::uint64_t fkey =
              key ^ (node.op == kOpV ? 0x9e3779b97f4a7c15ULL : 0);
          std::uint64_t& filter_slot =
              seen_once_[(fkey * 0xd1342543de82ef95ULL) >> (64 - kSeenOnceBits)];
          if (filter_slot == fkey) {
            // Second sighting: admit to the memo.
            const std::uint32_t id = next_id_ == kNoId ? kNoId : next_id_++;
            memo.emplace(key, MemoEntry{slot, id});
            proposed_ids_[i] = id;
          } else {
            filter_slot = fkey;
            // Not memoized (yet): parents cannot key off this value.
            proposed_ids_[i] = kNoId;
          }
        }
      }
    }
    info_ptrs_[i] = &slot;
    dirty_nodes_.push_back(static_cast<std::uint32_t>(i));
  }

  // Top-down split + violation grading, in the oracle's exact traversal
  // order -- except that clean subtrees skip straight through their
  // committed snapshots (leaf rects of skipped spans are copied from the
  // committed layout inside the skip branch).
  proposed_layout_.leaf_rects.resize(n);
  proposed_layout_.violations = BudgetViolations{};
  if (options_.skip_splits && reuse_committed) {
    // Read-only pass against the committed snapshots: skips fire, nothing
    // is recorded. Recording happens once, in commit(), so the (majority
    // of) rejected proposals never pay for snapshot stores.
    BudgetSkipContext skip;
    skip.committed = &committed_split_;
    skip.clean = clean_nodes_.data();
    skip.span_start = span_start_.data();
    skip.committed_leaf_rects = &committed_layout_.leaf_rects;
    budget_assign(tree_, info_ptrs_.data(), blocks_, region_, proposed_layout_, &skip);
  } else {
    budget_assign(tree_, info_ptrs_.data(), blocks_, region_, proposed_layout_);
  }

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
  if (memo_h_.size() + memo_v_.size() > kMemoCapacity) {
    // Committed state holds values, not references into the memo, so a
    // wholesale clear is safe; the walk's neighborhood repopulates it.
    memo_h_.clear();
    memo_v_.clear();
  }
  proposed_expr_ = committed_expr_;
  mutate(proposed_expr_);
  evaluate_proposed(/*reuse_committed=*/true);
  pending_ = true;
  return proposed_cost_;
}

void IncrementalLayoutEval::commit() {
  assert(pending_ && "commit() without a pending proposal");
  if (options_.skip_splits) {
    // Record the accepted pass's per-node snapshots by re-walking its
    // tree: clean spans replay wholesale from the old committed cache
    // (eager copies), dirty paths re-run the same cheap arithmetic the
    // proposal pass just did. info_ptrs_ / tree_ / clean_nodes_ still
    // describe the accepted proposal here, and the recomputed violations
    // are bit-identical to the proposal's, so overwriting them is a
    // no-op by value.
    proposed_layout_.violations = BudgetViolations{};
    BudgetSkipContext skip;
    skip.committed = &committed_split_;
    skip.clean = clean_nodes_.data();
    skip.span_start = span_start_.data();
    skip.record = &proposed_split_;
    budget_assign(tree_, info_ptrs_.data(), blocks_, region_, proposed_layout_, &skip);
    std::swap(committed_split_, proposed_split_);
  }
  std::swap(committed_expr_, proposed_expr_);
  std::swap(ids_, proposed_ids_);
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
