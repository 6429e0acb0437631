#include "floorplan/budget_layout.hpp"

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <optional>

namespace hidap {

namespace {

// Pruning cap for composed subtree curves.
constexpr std::size_t kCurvePoints = 24;

}  // namespace

BudgetNodeInfo budget_leaf_info(const BudgetBlock& block) {
  BudgetNodeInfo info;
  info.gamma = block.gamma;
  info.am = block.am;
  info.at = block.at;
  info.min_area_point = static_cast<std::uint32_t>(info.gamma.min_area_index());
  return info;
}

void budget_compose_info(int op, const BudgetNodeInfo& l, const BudgetNodeInfo& r,
                         BudgetNodeInfo& out) {
  out.am = l.am + r.am;
  out.at = l.at + r.at;
  if (l.gamma.empty()) {
    out.gamma = r.gamma;
  } else if (r.gamma.empty()) {
    out.gamma = l.gamma;
  } else if (op == kOpV) {
    ShapeCurve::compose_horizontal(l.gamma, r.gamma, out.gamma);
  } else {
    ShapeCurve::compose_vertical(l.gamma, r.gamma, out.gamma);
  }
  out.gamma.prune(kCurvePoints);
  out.min_area_point = static_cast<std::uint32_t>(out.gamma.min_area_index());
}

std::size_t budget_compose_capacity(std::size_t child_points) {
  return 2 * std::max(child_points, kCurvePoints);
}

namespace {

// Minimal extent a subtree needs along the split axis, given the fixed
// extent of the other axis; 0 when the subtree has no macros. When the
// curve cannot fit the cross extent at all, the cheapest (min-area)
// point defines the demand; the overflow is charged as macro deficit at
// the leaves.
double min_extent(const BudgetNodeInfo& info, double cross, bool along_width) {
  const ShapeCurve& gamma = info.gamma;
  if (gamma.empty()) return 0.0;
  const std::optional<double> fit = along_width ? gamma.min_width_for_height(cross)
                                                : gamma.min_height_for_width(cross);
  if (fit) return *fit;
  const Shape& cheapest = gamma.points()[info.min_area_point];
  return along_width ? cheapest.w : cheapest.h;
}

// Grades the final rectangle of a leaf block against its <Gamma, am, at>.
void score_leaf(const BudgetBlock& b, const Rect& rect, BudgetViolations& v) {
  const double area = rect.area();
  if (area + 1e-9 < b.at) v.at_deficit += b.at - area;
  if (area + 1e-9 < b.am) v.am_deficit += b.am - area;
  if (!b.gamma.empty() && !b.gamma.fits(rect.w, rect.h)) {
    ++v.infeasible_leaves;
    // Overflow area of the best attempt: how much macro bounding box
    // sticks out of the rectangle.
    double overflow = 0.0;
    double best_overflow = -1.0;
    for (const Shape& s : b.gamma.points()) {
      const double ow = std::max(0.0, s.w - rect.w);
      const double oh = std::max(0.0, s.h - rect.h);
      overflow = ow * rect.h + oh * rect.w + ow * oh;
      if (best_overflow < 0 || overflow < best_overflow) best_overflow = overflow;
    }
    v.macro_deficit += std::max(best_overflow, 0.0);
  }
}

void assign(const SlicingTree& tree, const BudgetNodeInfo* const* infos,
            const std::vector<BudgetBlock>& blocks, int node_id, const Rect& rect,
            BudgetResult& result) {
  const auto idx = static_cast<std::size_t>(node_id);
  const SlicingTree::Node& node = tree.nodes[idx];
  if (node.is_leaf()) {
    result.leaf_rects[static_cast<std::size_t>(node.leaf)] = rect;
    score_leaf(blocks[static_cast<std::size_t>(node.leaf)], rect, result.violations);
  } else {
    const BudgetNodeInfo& l = *infos[static_cast<std::size_t>(node.left)];
    const BudgetNodeInfo& r = *infos[static_cast<std::size_t>(node.right)];
    const double at_sum = l.at + r.at;
    const double ratio = at_sum > 0 ? l.at / at_sum : 0.5;

    if (node.op == kOpV) {
      // Side-by-side: split the width.
      double wl = rect.w * ratio;
      const double min_l = min_extent(l, rect.h, /*along_width=*/true);
      const double min_r = min_extent(r, rect.h, /*along_width=*/true);
      if (min_l + min_r <= rect.w) {
        // std::clamp's body, spelled out: in floating point the test above
        // does not imply min_l <= rect.w - min_r, which clamp requires.
        wl = std::min(std::max(wl, min_l), rect.w - min_r);
      } else {
        // Even the minima do not fit; split the shortfall proportionally.
        wl = rect.w * (min_l / (min_l + min_r));
      }
      assign(tree, infos, blocks, node.left, Rect{rect.x, rect.y, wl, rect.h}, result);
      assign(tree, infos, blocks, node.right,
             Rect{rect.x + wl, rect.y, rect.w - wl, rect.h}, result);
    } else {
      // Stacked: split the height.
      double hl = rect.h * ratio;
      const double min_l = min_extent(l, rect.w, /*along_width=*/false);
      const double min_r = min_extent(r, rect.w, /*along_width=*/false);
      if (min_l + min_r <= rect.h) {
        hl = std::min(std::max(hl, min_l), rect.h - min_r);
      } else {
        hl = rect.h * (min_l / (min_l + min_r));
      }
      assign(tree, infos, blocks, node.left, Rect{rect.x, rect.y, rect.w, hl}, result);
      assign(tree, infos, blocks, node.right,
             Rect{rect.x, rect.y + hl, rect.w, rect.h - hl}, result);
    }
  }
}

}  // namespace

void budget_assign(const SlicingTree& tree, const BudgetNodeInfo* const* infos,
                   const std::vector<BudgetBlock>& blocks, const Rect& budget,
                   BudgetResult& result) {
  assign(tree, infos, blocks, tree.root, budget, result);
}

BudgetResult budget_layout(const PolishExpression& expr,
                           const std::vector<BudgetBlock>& blocks, const Rect& budget) {
  assert(expr.is_valid());
  BudgetResult result;
  result.leaf_rects.assign(blocks.size(), Rect{});
  const SlicingTree tree = SlicingTree::from_polish(expr);

  // Bottom-up characterization. from_polish() appends nodes in postfix
  // order, so children always precede their parent and index order is a
  // valid evaluation order.
  std::vector<BudgetNodeInfo> info(tree.nodes.size());
  std::vector<const BudgetNodeInfo*> ptrs(tree.nodes.size());
  for (std::size_t i = 0; i < tree.nodes.size(); ++i) {
    const SlicingTree::Node& node = tree.nodes[i];
    if (node.is_leaf()) {
      info[i] = budget_leaf_info(blocks[static_cast<std::size_t>(node.leaf)]);
    } else {
      budget_compose_info(node.op, info[static_cast<std::size_t>(node.left)],
                          info[static_cast<std::size_t>(node.right)], info[i]);
    }
    ptrs[i] = &info[i];
  }

  budget_assign(tree, ptrs.data(), blocks, budget, result);
  return result;
}

double budget_penalty(const BudgetViolations& v, double scale_area) {
  if (scale_area <= 0) return 1.0;
  // Severity weights: yielding target area is mild, cutting into minimum
  // area is serious, macro overflow is prohibitive (paper: "at, am or
  // macro area, from least to most severe").
  constexpr double kAtWeight = 2.0;
  constexpr double kAmWeight = 12.0;
  constexpr double kMacroWeight = 60.0;
  const double graded = (kAtWeight * v.at_deficit + kAmWeight * v.am_deficit +
                         kMacroWeight * v.macro_deficit) /
                        scale_area;
  return 1.0 + graded;
}

}  // namespace hidap
