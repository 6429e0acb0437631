#pragma once
// Incremental bottom-up evaluation of a slicing tree, shared by both
// slicing annealers: the layout SA's <Gamma, am, at> node infos
// (floorplan/incremental_eval) and the shape-curve SA's subtree curves
// (floorplan/area_floorplanner).
//
// A Polish move (M1/M2/M3) changes a handful of element positions and
// keeps the element count, so a position-wise diff against the committed
// expression finds every mutated element. A subtree whose element span
// holds no mutated position parses to the same node with the same
// content, so its committed info is exactly what a full recompute would
// produce; only the nodes on the paths from mutated positions to the
// root are recomposed.
//
// Storage: one committed slot and one proposal slot per element
// position. A dirty node composes straight into its proposal slot;
// commit() swaps the two slots of every dirty node, so the slot that
// held the old info keeps its capacity for the next proposal. Leaves
// alias the caller's per-operand infos and are never copied. Once every
// slot has reached its working size (see reserve_slots), a
// propose/evaluate/commit-or-rollback cycle does not touch the heap.
//
// A caller that reads only children's infos (the layout engine's
// top-down budget split never reads the root's) can leave the root
// uncomposed: it is dirty after every move, so that saves one
// composition per proposal.
//
// Info is the per-node value type; the compose callable passed to
// evaluate() has the signature
//   void(int op, const Info& left, const Info& right, Info& out)
// and must be a pure function of its operands (`out` never aliases them).

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "floorplan/polish_expression.hpp"

namespace hidap {

template <class Info>
class SlicingCache {
 public:
  /// `leaves[k]` is operand k's info; the vector must outlive the cache.
  /// The initial expression is an open proposal: evaluate() it (every
  /// internal node composes) and commit() before the first propose().
  /// With `compose_root` off, an internal root is never composed and its
  /// infos() entry is null; root() and committed_root() are then unusable.
  SlicingCache(const std::vector<Info>& leaves, PolishExpression initial,
               bool compose_root = true)
      : leaves_(leaves), committed_(std::move(initial)), compose_root_(compose_root) {
    proposed_ = committed_;
    const std::size_t len = committed_.size();
    committed_slots_.resize(len);
    proposed_slots_.resize(len);
    ptrs_.resize(len);
    span_start_.resize(len);
    changed_prefix_.resize(len + 1);
    tree_.nodes.reserve(len);
    parse_stack_.reserve(len);
    dirty_.reserve(len);
  }

  /// Applies `f` to every node slot, committed and proposal (e.g. to
  /// reserve each slot's working capacity up front).
  template <class F>
  void reserve_slots(F&& f) {
    for (Info& slot : committed_slots_) f(slot);
    for (Info& slot : proposed_slots_) f(slot);
  }

  /// Resets the proposal to the committed expression and returns it for
  /// the caller to mutate. Exactly one commit() or rollback() must follow
  /// the evaluate() of this proposal.
  PolishExpression& propose() {
    assert(!pending_ && "commit() or rollback() the previous proposal first");
    proposed_ = committed_;
    pending_ = true;
    return proposed_;
  }

  /// Parses the proposal and recomposes its dirty nodes (every internal
  /// node before the first commit). Afterwards tree() and infos()
  /// describe the proposal.
  template <class Compose>
  void evaluate(Compose&& compose) {
    assert(pending_);
    const std::vector<int>& elems = proposed_.elements();
    const std::size_t len = elems.size();
    assert(len == committed_.size() && "Polish moves keep the element count");
    if (primed_) {
      const std::vector<int>& old_elems = committed_.elements();
      changed_prefix_[0] = 0;
      for (std::size_t p = 0; p < len; ++p) {
        changed_prefix_[p + 1] = changed_prefix_[p] + (elems[p] != old_elems[p] ? 1u : 0u);
      }
    }
    // Same parse as SlicingTree::from_polish, into reused storage, plus
    // the element span of every subtree: node index == element position,
    // so a node's span is [span_start_[i], i] and it is dirty iff a
    // mutated position falls in it. Children precede their parent, so
    // one forward pass composes bottom-up.
    tree_.nodes.clear();
    parse_stack_.clear();
    dirty_.clear();
    for (std::size_t p = 0; p < len; ++p) {
      const int e = elems[p];
      SlicingTree::Node node;
      if (!is_operator(e)) {
        node.leaf = e;
        span_start_[p] = static_cast<int>(p);
        ptrs_[p] = &leaves_[static_cast<std::size_t>(e)];
      } else {
        assert(parse_stack_.size() >= 2);
        node.right = parse_stack_.back();
        parse_stack_.pop_back();
        node.left = parse_stack_.back();
        parse_stack_.pop_back();
        node.op = e;
        span_start_[p] = span_start_[static_cast<std::size_t>(node.left)];
        if (!compose_root_ && p + 1 == len) {
          ptrs_[p] = nullptr;
        } else if (primed_ && changed_prefix_[p + 1] ==
                                  changed_prefix_[static_cast<std::size_t>(span_start_[p])]) {
          ptrs_[p] = &committed_slots_[p];
        } else {
          Info& slot = proposed_slots_[p];
          compose(e, *ptrs_[static_cast<std::size_t>(node.left)],
                  *ptrs_[static_cast<std::size_t>(node.right)], slot);
          ptrs_[p] = &slot;
          dirty_.push_back(static_cast<std::uint32_t>(p));
        }
      }
      tree_.nodes.push_back(node);
      parse_stack_.push_back(static_cast<int>(p));
    }
    assert(parse_stack_.size() == 1);
    tree_.root = parse_stack_.back();
    recomposed_ += dirty_.size();
  }

  /// Keeps the evaluated proposal as the committed state.
  void commit() {
    assert(pending_ && "commit() without a pending proposal");
    for (const std::uint32_t p : dirty_) std::swap(committed_slots_[p], proposed_slots_[p]);
    dirty_.clear();
    std::swap(committed_, proposed_);
    primed_ = true;
    pending_ = false;
  }

  /// Drops the proposal; the committed state is untouched.
  void rollback() {
    assert(pending_ && primed_ && "rollback() without a pending proposal");
    dirty_.clear();
    pending_ = false;
  }

  /// The last evaluated proposal's tree and per-node infos (valid until
  /// its commit() or rollback()).
  const SlicingTree& tree() const { return tree_; }
  const Info* const* infos() const { return ptrs_.data(); }
  const Info& root() const {
    assert(compose_root_);
    return *ptrs_[static_cast<std::size_t>(tree_.root)];
  }

  /// The committed expression and its root info (a postfix root sits at
  /// the last position).
  const PolishExpression& expression() const { return committed_; }
  const Info& committed_root() const {
    assert(compose_root_);
    const int last = committed_.elements().back();
    return is_operator(last) ? committed_slots_.back()
                             : leaves_[static_cast<std::size_t>(last)];
  }

  const PolishExpression& proposed_expression() const { return proposed_; }

  /// True once the initial evaluation has been committed.
  bool primed() const { return primed_; }

  /// Internal nodes composed so far, over every evaluate().
  std::uint64_t recomposed_nodes() const { return recomposed_; }

 private:
  const std::vector<Info>& leaves_;
  PolishExpression committed_;
  PolishExpression proposed_;
  std::vector<Info> committed_slots_;  ///< per position; internal nodes only
  std::vector<Info> proposed_slots_;   ///< per position; dirty nodes only
  std::vector<const Info*> ptrs_;      ///< per position of the proposal
  std::vector<std::uint32_t> dirty_;   ///< positions recomposed by evaluate()
  SlicingTree tree_;
  std::vector<int> parse_stack_;
  std::vector<int> span_start_;
  std::vector<std::uint32_t> changed_prefix_;  ///< prefix count of mutated positions
  std::uint64_t recomposed_ = 0;
  bool compose_root_;
  bool primed_ = false;   ///< a first evaluation has been committed
  bool pending_ = true;   ///< the initial expression awaits evaluate + commit
};

}  // namespace hidap
