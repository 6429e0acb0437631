#pragma once
// Hierarchy tree HT = (Vht, Eht) (paper sect. II-C).
//
// Every node represents a level of the RTL hierarchy; additionally every
// macro cell gets a private leaf node (the paper does not say where a
// macro sits in HT; a leaf of its own is our reading) so that
// hierarchical declustering can always descend to single-macro blocks.
// The tree caches per-subtree area and macro counts, the two quantities
// Algorithm 3 consults. It copies no cell lists: a level's cells stay in
// Design::cells_of, and for_each_cell_under reads them in place.

#include <cstdint>
#include <string>
#include <vector>

#include "netlist/netlist.hpp"

namespace hidap {

using HtNodeId = std::int32_t;

struct HtNode {
  HtNodeId parent = kInvalidId;
  std::vector<HtNodeId> children;
  HierId hier = kInvalidId;        ///< originating hierarchy node (or parent's for macro leaves)
  CellId macro_cell = kInvalidId;  ///< valid for macro leaf nodes only

  double subtree_area = 0.0;       ///< macros + std cells below (um^2)
  double subtree_macro_area = 0.0;
  int subtree_macros = 0;
  std::string name;

  bool is_macro_leaf() const { return macro_cell != kInvalidId; }
};

class HierTree {
 public:
  /// Builds HT from a design: one node per hierarchy level plus one leaf
  /// per macro cell; computes subtree aggregates bottom-up.
  explicit HierTree(const Design& design);

  HtNodeId root() const { return 0; }
  const HtNode& node(HtNodeId id) const { return nodes_[static_cast<std::size_t>(id)]; }
  std::size_t size() const { return nodes_.size(); }

  double area(HtNodeId id) const { return node(id).subtree_area; }
  int macro_count(HtNodeId id) const { return node(id).subtree_macros; }

  /// Distance from the root (root = 0). A node's curve/aggregate depends
  /// only on strictly deeper nodes, so equal-depth nodes are independent
  /// units of work for bottom-up sweeps.
  int depth(HtNodeId id) const { return depth_[static_cast<std::size_t>(id)]; }

  /// All macro cells in the subtree of `id`.
  std::vector<CellId> macros_under(HtNodeId id) const;

  /// Calls fn(cell) for every cell (of any kind) in the subtree of `id`
  /// of `design`, the design the tree was built from: nodes in preorder,
  /// a macro leaf's macro, a level's non-macro cells in CellId order read
  /// in place from Design::cells_of.
  template <typename Fn>
  void for_each_cell_under(const Design& design, HtNodeId id, Fn&& fn) const {
    for (const HtNodeId n : preorder(id)) {
      const HtNode& nd = node(n);
      if (nd.is_macro_leaf()) {
        fn(nd.macro_cell);
        continue;
      }
      // A level's macros belong to their own leaves.
      for (const CellId c : design.cells_of(nd.hier)) {
        if (node_of_cell(c) == n) fn(c);
      }
    }
  }

  /// HT node owning each cell: macro cells map to their leaf, other cells
  /// to the node of their hierarchy level.
  HtNodeId node_of_cell(CellId cell) const {
    return cell_node_[static_cast<std::size_t>(cell)];
  }

  /// Dense macro numbering: the k-th macro cell in CellId order (the
  /// order of Design::macros()) has ordinal k; any other cell has
  /// kNoMacroOrdinal. Macro leaves are appended in that order, so the
  /// ordinal is a leaf's offset and needs no table beyond node_of_cell.
  static constexpr std::uint32_t kNoMacroOrdinal = UINT32_MAX;
  std::uint32_t macro_ordinal(CellId cell) const {
    const HtNodeId node = node_of_cell(cell);
    return node >= first_macro_leaf_ ? static_cast<std::uint32_t>(node - first_macro_leaf_)
                                     : kNoMacroOrdinal;
  }
  /// Macro cells in the design (the range of macro_ordinal).
  std::size_t total_macros() const {
    return nodes_.size() - static_cast<std::size_t>(first_macro_leaf_);
  }

  /// HT node corresponding to a Design hierarchy node.
  HtNodeId node_of_hier(HierId hier) const {
    return hier_node_[static_cast<std::size_t>(hier)];
  }

  /// True when `descendant` lies in the subtree of `ancestor` (inclusive).
  bool is_ancestor(HtNodeId ancestor, HtNodeId descendant) const;

  /// Nodes of the subtree of `id` in preorder.
  std::vector<HtNodeId> preorder(HtNodeId id) const;

  /// Full path name for diagnostics.
  std::string path(HtNodeId id) const;

 private:
  std::vector<HtNode> nodes_;
  std::vector<HtNodeId> cell_node_;
  std::vector<HtNodeId> hier_node_;
  std::vector<int> depth_;
  HtNodeId first_macro_leaf_ = 0;  ///< macro leaves fill [first_macro_leaf_, size())
};

}  // namespace hidap
