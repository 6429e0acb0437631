#include "floorplan/budget_layout.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstdint>

namespace hidap {

BudgetNodeInfo budget_leaf_info(const BudgetBlock& block) {
  BudgetNodeInfo info;
  info.gamma = block.gamma;
  info.am = block.am;
  info.at = block.at;
  return info;
}

BudgetNodeInfo budget_compose_info(int op, const BudgetNodeInfo& l, const BudgetNodeInfo& r,
                                   std::size_t curve_points) {
  BudgetNodeInfo info;
  info.am = l.am + r.am;
  info.at = l.at + r.at;
  if (l.gamma.empty()) {
    info.gamma = r.gamma;
  } else if (r.gamma.empty()) {
    info.gamma = l.gamma;
  } else {
    info.gamma = (op == kOpV) ? ShapeCurve::compose_horizontal(l.gamma, r.gamma)
                              : ShapeCurve::compose_vertical(l.gamma, r.gamma);
  }
  info.gamma.prune(curve_points);
  return info;
}

namespace {

// Minimal extent a subtree needs along the split axis, given the fixed
// extent of the other axis; 0 when the subtree has no macros. When the
// curve cannot fit the cross extent at all, the cheapest (min-area)
// point defines the demand. Replicates ShapeCurve::min_width_for_height
// / min_height_for_width / min_area_shape bit for bit (same partition
// boundaries, same eps, first minimum wins).
double min_extent(const BudgetNodeInfo& info, double cross, bool along_width) {
  const std::vector<Shape>& pts = info.gamma.points();
  const std::size_t n = pts.size();
  if (n == 0) return 0.0;
  const double limit = cross + 1e-9;
  if (along_width) {
    // Fitting points (h <= limit) are a suffix; the first of them has the
    // smallest width.
    std::size_t lo = 0, hi = n;
    while (lo < hi) {
      const std::size_t mid = lo + (hi - lo) / 2;
      if (pts[mid].h > limit) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    if (lo < n) return pts[lo].w;
  } else {
    // Fitting points (w <= limit) are a prefix; the last of them has the
    // smallest height.
    std::size_t lo = 0, hi = n;
    while (lo < hi) {
      const std::size_t mid = lo + (hi - lo) / 2;
      if (pts[mid].w <= limit) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    if (lo > 0) return pts[lo - 1].h;
  }
  // No point fits the cross extent: the cheapest (min-area) point defines
  // the demand; the overflow is charged as macro deficit at the leaves.
  // First minimum wins ties, as std::min_element keeps the first.
  std::size_t best = 0;
  double best_area = pts[0].w * pts[0].h;
  for (std::size_t i = 1; i < n; ++i) {
    const double area = pts[i].w * pts[i].h;
    if (area < best_area) {
      best = i;
      best_area = area;
    }
  }
  return along_width ? pts[best].w : pts[best].h;
}

// Grades the final rectangle of a leaf block against its <Gamma, am, at>.
BudgetLeafAdds leaf_adds(const BudgetBlock& b, const Rect& rect) {
  BudgetLeafAdds a;
  const double area = rect.area();
  if (area + 1e-9 < b.at) {
    a.at_add = b.at - area;
    a.flags |= BudgetLeafAdds::kAt;
  }
  if (area + 1e-9 < b.am) {
    a.am_add = b.am - area;
    a.flags |= BudgetLeafAdds::kAm;
  }
  if (!b.gamma.empty() && !b.gamma.fits(rect.w, rect.h)) {
    a.flags |= BudgetLeafAdds::kMacro;
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
    a.macro_add = std::max(best_overflow, 0.0);
  }
  return a;
}

// Applies fired adds to the accumulator in a fixed operation order (at,
// am, infeasible count, macro). Shared between leaf grading and skip
// replay so the sequence cannot drift.
void apply_adds(const BudgetLeafAdds& a, BudgetViolations& v) {
  if ((a.flags & BudgetLeafAdds::kAt) != 0) v.at_deficit += a.at_add;
  if ((a.flags & BudgetLeafAdds::kAm) != 0) v.am_deficit += a.am_add;
  if ((a.flags & BudgetLeafAdds::kMacro) != 0) {
    ++v.infeasible_leaves;
    v.macro_deficit += a.macro_add;
  }
}

// Bit equality (not operator==) for skip decisions: a -0.0/+0.0 mismatch
// must fail the comparison, or a sign-of-zero divergence could smuggle
// into downstream arithmetic. Failing is always safe (the pass recurses).
bool bits_equal(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

bool bits_equal(const Rect& a, const Rect& b) {
  return bits_equal(a.x, b.x) && bits_equal(a.y, b.y) && bits_equal(a.w, b.w) &&
         bits_equal(a.h, b.h);
}

// One skip rule (full-pass-equivalent, valid from ANY accumulator
// state): a subtree whose content is unchanged and whose rectangle is
// bit-equal to the committed pass lays out identically, so its leaf
// rects are the committed ones and its violation adds replay from the
// committed journal slice of its span -- the identical operands in the
// identical order (see BudgetLeafAdds). No accumulator-entry comparison
// is needed, which is what lets skips keep firing downstream of a
// divergent (dirty) leaf, where the running totals have drifted.
void assign(const SlicingTree& tree, const BudgetNodeInfo* const* infos,
            const std::vector<BudgetBlock>& blocks, int node_id, const Rect& rect,
            BudgetResult& result, const BudgetSkipContext* skip) {
  const auto idx = static_cast<std::size_t>(node_id);
  if (skip != nullptr) {
    if (skip->committed != nullptr && skip->clean[idx] &&
        bits_equal(skip->committed->node_rect[idx], rect)) {
      const auto span = static_cast<std::uint32_t>(skip->span_start[idx]);
      const std::vector<BudgetSplitCache::FiredLeaf>& fired = skip->committed->fired;
      auto it = std::lower_bound(
          fired.begin(), fired.end(), span,
          [](const BudgetSplitCache::FiredLeaf& f, std::uint32_t p) { return f.pos < p; });
      const auto first = it;
      for (; it != fired.end() && it->pos <= idx; ++it) {
        apply_adds(it->adds, result.violations);
      }
      // The span's leaf rects keep their committed (identical) values:
      // copied here when the committed rects are at hand, pre-seeded by
      // the caller otherwise.
      if (skip->committed_leaf_rects != nullptr) {
        for (std::size_t p = span; p <= idx; ++p) {
          const SlicingTree::Node& n = tree.nodes[p];
          if (n.is_leaf()) {
            const auto leaf = static_cast<std::size_t>(n.leaf);
            result.leaf_rects[leaf] = (*skip->committed_leaf_rects)[leaf];
          }
        }
      }
      if (skip->record != nullptr) {
        // Refresh the record from the committed snapshots so a later
        // pass can skip any sub-span of this subtree too (snapshots of
        // an unchanged span stay valid forever: they are pure functions
        // of its blocks and rectangle). Journal appends stay sorted:
        // the walk reaches spans in ascending position order.
        const auto s = static_cast<std::ptrdiff_t>(span);
        std::copy_n(skip->committed->node_rect.begin() + s,
                    static_cast<std::ptrdiff_t>(idx + 1) - s,
                    skip->record->node_rect.begin() + s);
        skip->record->fired.insert(skip->record->fired.end(), first, it);
      }
      return;
    }
    if (skip->record != nullptr) skip->record->node_rect[idx] = rect;
  }

  const SlicingTree::Node& node = tree.nodes[idx];
  if (node.is_leaf()) {
    result.leaf_rects[static_cast<std::size_t>(node.leaf)] = rect;
    const BudgetLeafAdds adds = leaf_adds(blocks[static_cast<std::size_t>(node.leaf)], rect);
    apply_adds(adds, result.violations);
    if (adds.fired() && skip != nullptr && skip->record != nullptr) {
      skip->record->fired.push_back({static_cast<std::uint32_t>(idx), adds});
    }
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
      assign(tree, infos, blocks, node.left, Rect{rect.x, rect.y, wl, rect.h}, result,
             skip);
      assign(tree, infos, blocks, node.right,
             Rect{rect.x + wl, rect.y, rect.w - wl, rect.h}, result, skip);
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
      assign(tree, infos, blocks, node.left, Rect{rect.x, rect.y, rect.w, hl}, result,
             skip);
      assign(tree, infos, blocks, node.right,
             Rect{rect.x, rect.y + hl, rect.w, rect.h - hl}, result, skip);
    }
  }
}

}  // namespace

void budget_assign(const SlicingTree& tree, const BudgetNodeInfo* const* infos,
                   const std::vector<BudgetBlock>& blocks, const Rect& budget,
                   BudgetResult& result, const BudgetSkipContext* skip) {
  assert(skip == nullptr || skip->committed == nullptr ||
         (skip->clean != nullptr && skip->span_start != nullptr));
  if (skip != nullptr && skip->record != nullptr) skip->record->fired.clear();
  assign(tree, infos, blocks, tree.root, budget, result, skip);
}

BudgetResult budget_layout(const PolishExpression& expr,
                           const std::vector<BudgetBlock>& blocks, const Rect& budget,
                           const BudgetOptions& options) {
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
    info[i] = node.is_leaf()
                  ? budget_leaf_info(blocks[static_cast<std::size_t>(node.leaf)])
                  : budget_compose_info(node.op, info[static_cast<std::size_t>(node.left)],
                                        info[static_cast<std::size_t>(node.right)],
                                        options.curve_points);
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
