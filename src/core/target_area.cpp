#include "core/target_area.hpp"

#include <deque>

#include "util/log.hpp"

namespace hidap {

TargetAreaResult assign_target_areas(const Design& design, const CellAdjacency& adjacency,
                                     const HierTree& ht, HtNodeId nh,
                                     const std::vector<HtNodeId>& hcb) {
  TargetAreaResult result;
  result.minimum_area.resize(hcb.size());
  result.target_area.resize(hcb.size());

  // Mark cells belonging to each block (by hcb index) and cells in scope
  // (under nh). -2 = in scope, unclaimed glue; -1 = out of scope.
  std::vector<int> zone(design.cell_count(), -1);
  for (const CellId c : ht.cells_under(nh)) zone[static_cast<std::size_t>(c)] = -2;
  for (std::size_t b = 0; b < hcb.size(); ++b) {
    result.minimum_area[b] = ht.area(hcb[b]);
    result.target_area[b] = result.minimum_area[b];
    for (const CellId c : ht.cells_under(hcb[b])) {
      zone[static_cast<std::size_t>(c)] = static_cast<int>(b);
    }
  }

  // Multi-source BFS over the undirected Gnet adjacency. Sources: every
  // block cell; targets: unclaimed glue cells in scope. A claimed cell
  // takes its owner's zone, so it is never claimed twice.
  std::deque<std::pair<CellId, int>> queue;  // (cell, owning block)
  for (std::size_t i = 0; i < design.cell_count(); ++i) {
    if (zone[i] >= 0) queue.emplace_back(static_cast<CellId>(i), zone[i]);
  }
  while (!queue.empty()) {
    const auto [cell, owner] = queue.front();
    queue.pop_front();
    adjacency.for_each_neighbor(cell, [&](CellId next) {
      int& next_zone = zone[static_cast<std::size_t>(next)];
      if (next_zone != -2) return;  // out of scope, in a block or claimed
      next_zone = owner;
      result.target_area[static_cast<std::size_t>(owner)] += design.cell(next).area;
      queue.emplace_back(next, owner);
    });
  }

  // Unreachable glue (disconnected logic): spread proportionally to am so
  // the instance area is fully covered, as the paper requires.
  double orphan = 0.0;
  for (std::size_t i = 0; i < design.cell_count(); ++i) {
    if (zone[i] == -2) orphan += design.cell(i).area;
  }
  if (orphan > 0 && !hcb.empty()) {
    double am_sum = 0.0;
    for (const double a : result.minimum_area) am_sum += a;
    for (std::size_t b = 0; b < hcb.size(); ++b) {
      const double share = am_sum > 0 ? result.minimum_area[b] / am_sum
                                      : 1.0 / static_cast<double>(hcb.size());
      result.target_area[b] += orphan * share;
    }
    HIDAP_LOG_DEBUG("target_area: %.0f um^2 of unreachable glue spread over %zu blocks",
                    orphan, hcb.size());
  }
  return result;
}

}  // namespace hidap
