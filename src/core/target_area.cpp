#include "core/target_area.hpp"

#include <algorithm>
#include <bit>

#include "obs/metrics.hpp"
#include "util/log.hpp"

namespace hidap {

namespace {

// Zone of an in-scope cell: >= 0 = owning block, kGlue = unclaimed glue.
constexpr int kGlue = -1;

// Calls fn(i) for every set bit i of words [lo, hi), ascending.
template <typename Fn>
void for_each_set_bit(const std::vector<std::uint64_t>& bits, std::size_t lo, std::size_t hi,
                      Fn&& fn) {
  for (std::size_t w = lo; w < hi; ++w) {
    for (std::uint64_t word = bits[w]; word != 0; word &= word - 1) {
      fn(w * 64 + static_cast<std::size_t>(std::countr_zero(word)));
    }
  }
}

}  // namespace

TargetAreaResult assign_target_areas(const Design& design, const CellAdjacency& adjacency,
                                     const HierTree& ht, HtNodeId nh,
                                     const std::vector<HtNodeId>& hcb,
                                     TargetAreaScratch& scratch) {
  TargetAreaResult result;
  result.minimum_area.resize(hcb.size());
  result.target_area.resize(hcb.size());

  // Mark the cells in scope (under nh) as glue, then the cells of each
  // block with its hcb index. Out-of-scope cells keep a clear bit.
  std::vector<std::uint64_t>& scope = scratch.scope_;
  std::vector<int>& zone = scratch.zone_;
  std::size_t lo = scope.size(), hi = 0;  // bitmap words touched
  const auto mark = [&](CellId c, int z) {
    const auto i = static_cast<std::size_t>(c);
    scope[i / 64] |= std::uint64_t{1} << (i % 64);
    zone[i] = z;
    lo = std::min(lo, i / 64);
    hi = std::max(hi, i / 64 + 1);
  };
  const auto in_scope = [&](std::size_t i) { return (scope[i / 64] >> (i % 64)) & 1; };
  ht.for_each_cell_under(design, nh, [&](CellId c) { mark(c, kGlue); });
  for (std::size_t b = 0; b < hcb.size(); ++b) {
    result.minimum_area[b] = ht.area(hcb[b]);
    result.target_area[b] = result.minimum_area[b];
    ht.for_each_cell_under(design, hcb[b], [&](CellId c) { mark(c, static_cast<int>(b)); });
  }

  // Multi-source BFS over the undirected Gnet adjacency. Sources: every
  // block cell, in ascending CellId order; targets: unclaimed glue cells
  // in scope. A claimed cell takes its owner's zone, so it is never
  // claimed twice.
  std::vector<std::pair<CellId, int>>& queue = scratch.queue_;  // (cell, owning block)
  queue.clear();
  for_each_set_bit(scope, lo, hi, [&](std::size_t i) {
    if (zone[i] >= 0) queue.emplace_back(static_cast<CellId>(i), zone[i]);
  });
  for (std::size_t head = 0; head < queue.size(); ++head) {
    const auto [cell, owner] = queue[head];
    adjacency.for_each_neighbor(cell, [&](CellId next) {
      const auto i = static_cast<std::size_t>(next);
      if (!in_scope(i) || zone[i] != kGlue) return;  // out of scope, in a block or claimed
      zone[i] = owner;
      result.target_area[static_cast<std::size_t>(owner)] += design.cell(next).area;
      queue.emplace_back(next, owner);
    });
  }
  static obs::Counter& visits = obs::default_registry().counter("target_area.bfs_visits");
  visits.add(queue.size());

  // Unreachable glue (disconnected logic): spread proportionally to am so
  // the instance area is fully covered, as the paper requires. Summed in
  // ascending CellId order; then the scope bits are cleared for the next
  // level.
  double orphan = 0.0;
  for_each_set_bit(scope, lo, hi, [&](std::size_t i) {
    if (zone[i] == kGlue) orphan += design.cell(static_cast<CellId>(i)).area;
  });
  for (std::size_t w = lo; w < hi; ++w) scope[w] = 0;
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
