#include "place/clustering.hpp"

#include <algorithm>

#include "util/log.hpp"

namespace hidap {

namespace {

double std_cell_area(const HierTree& ht, HtNodeId n) {
  const HtNode& node = ht.node(n);
  return node.subtree_area - node.subtree_macro_area;
}

}  // namespace

Clustering cluster_cells(const Design& design, const HierTree& ht, int target_clusters) {
  Clustering out;
  out.cluster_of.assign(design.cell_count(), -1);

  const double threshold = design.std_cell_area() / std::max(1, target_clusters);

  // Each group of cells (a subtree, or a level's own cells) fills fresh
  // clusters in visit order. Oversized groups (flat glue modules can
  // dwarf the threshold) are chunked so every cluster stays near the
  // target granularity -- spreading cannot legalize clusters larger than
  // a grid bin. A cluster is opened by its first std cell and closed once
  // its area reaches the threshold or its group ends.
  bool open = false;
  const auto add = [&](CellId c) {
    const Cell& cell = design.cell(c);
    if (cell.kind != CellKind::Flop && cell.kind != CellKind::Comb) return;
    if (!open) out.clusters.emplace_back();
    out.cluster_of[static_cast<std::size_t>(c)] = static_cast<int>(out.clusters.size()) - 1;
    double& area = out.clusters.back().area;
    area += cell.area;
    open = !(area >= threshold);
  };

  // Top-down: close a subtree into one cluster once it is small enough;
  // otherwise the node's own cells form a cluster and children recurse.
  std::vector<HtNodeId> stack = {ht.root()};
  while (!stack.empty()) {
    const HtNodeId n = stack.back();
    stack.pop_back();
    const HtNode& node = ht.node(n);
    if (node.is_macro_leaf()) continue;
    if (std_cell_area(ht, n) <= threshold || node.children.empty()) {
      ht.for_each_cell_under(design, n, add);
    } else {
      // The level's macros are not std cells: `add` passes over them.
      for (const CellId c : design.cells_of(node.hier)) add(c);
      for (const HtNodeId c : node.children) stack.push_back(c);
    }
    open = false;
  }
  HIDAP_LOG_DEBUG("clustering: %zu clusters for %zu cells (threshold %.0f um^2)",
                  out.clusters.size(), design.cell_count(), threshold);
  return out;
}

}  // namespace hidap
