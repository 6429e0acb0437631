#include "hier/hier_tree.hpp"

#include <algorithm>

#include "util/string_utils.hpp"

namespace hidap {

HierTree::HierTree(const Design& design) {
  // Pass 1: one HT node per hierarchy node, same indexing order as a BFS
  // over Design hierarchy so parents precede children.
  std::vector<HtNodeId> hier_to_ht(design.hier_count(), kInvalidId);
  std::vector<HierId> order;
  order.push_back(design.root());
  for (std::size_t i = 0; i < order.size(); ++i) {
    for (const HierId c : design.hier(order[i]).children) order.push_back(c);
  }
  nodes_.reserve(order.size() + design.macro_count());
  for (const HierId h : order) {
    const HtNodeId id = static_cast<HtNodeId>(nodes_.size());
    hier_to_ht[static_cast<std::size_t>(h)] = id;
    HtNode node;
    node.hier = h;
    node.name = design.hier(h).name;
    if (h != design.root()) {
      node.parent = hier_to_ht[static_cast<std::size_t>(design.hier(h).parent)];
      nodes_[static_cast<std::size_t>(node.parent)].children.push_back(id);
    }
    nodes_.push_back(std::move(node));
  }

  hier_node_ = hier_to_ht;

  // Pass 2: map cells to nodes; macros get private leaf nodes, appended
  // in CellId order after every hierarchy node. Other cells map to their
  // level and stay in the Design's per-level lists.
  first_macro_leaf_ = static_cast<HtNodeId>(nodes_.size());
  cell_node_.assign(design.cell_count(), kInvalidId);
  for (std::size_t i = 0; i < design.cell_count(); ++i) {
    const CellId cid = static_cast<CellId>(i);
    const Cell& cell = design.cell(cid);
    const HtNodeId owner = hier_to_ht[static_cast<std::size_t>(cell.hier)];
    cell_node_[i] = owner;
    if (cell.kind != CellKind::Macro) continue;
    const HtNodeId leaf = static_cast<HtNodeId>(nodes_.size());
    HtNode node;
    node.parent = owner;
    node.hier = cell.hier;
    node.macro_cell = cid;
    node.name = design.cell_name(cid);
    nodes_.push_back(std::move(node));
    nodes_[static_cast<std::size_t>(owner)].children.push_back(leaf);
    cell_node_[i] = leaf;
  }

  // Pass 3: subtree aggregates, children have larger ids than parents for
  // hierarchy nodes, and macro leaves were appended last, so a reverse
  // sweep accumulates bottom-up.
  depth_.assign(nodes_.size(), 0);
  for (std::size_t i = 1; i < nodes_.size(); ++i) {
    depth_[i] = depth_[static_cast<std::size_t>(nodes_[i].parent)] + 1;
  }
  for (std::size_t i = nodes_.size(); i-- > 0;) {
    HtNode& node = nodes_[i];
    if (node.is_macro_leaf()) {
      const Cell& cell = design.cell(node.macro_cell);
      node.subtree_area = cell.area;
      node.subtree_macro_area = cell.area;
      node.subtree_macros = 1;
    } else {
      for (const CellId cid : design.cells_of(node.hier)) {
        if (node_of_cell(cid) == static_cast<HtNodeId>(i)) {
          node.subtree_area += design.cell(cid).area;
        }
      }
    }
    if (node.parent != kInvalidId) {
      HtNode& parent = nodes_[static_cast<std::size_t>(node.parent)];
      parent.subtree_area += node.subtree_area;
      parent.subtree_macro_area += node.subtree_macro_area;
      parent.subtree_macros += node.subtree_macros;
    }
  }
}

std::vector<CellId> HierTree::macros_under(HtNodeId id) const {
  std::vector<CellId> out;
  for (const HtNodeId n : preorder(id)) {
    if (node(n).is_macro_leaf()) out.push_back(node(n).macro_cell);
  }
  return out;
}

bool HierTree::is_ancestor(HtNodeId ancestor, HtNodeId descendant) const {
  while (true) {
    if (descendant == ancestor) return true;
    if (descendant == root()) return false;
    descendant = node(descendant).parent;
  }
}

std::vector<HtNodeId> HierTree::preorder(HtNodeId id) const {
  std::vector<HtNodeId> out;
  std::vector<HtNodeId> stack = {id};
  while (!stack.empty()) {
    const HtNodeId n = stack.back();
    stack.pop_back();
    out.push_back(n);
    const auto& kids = node(n).children;
    for (auto it = kids.rbegin(); it != kids.rend(); ++it) stack.push_back(*it);
  }
  return out;
}

std::string HierTree::path(HtNodeId id) const {
  if (node(id).parent == kInvalidId) return node(id).name;
  return join_path(path(node(id).parent), node(id).name);
}

}  // namespace hidap
