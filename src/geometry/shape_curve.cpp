#include "geometry/shape_curve.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace hidap {

ShapeCurve ShapeCurve::for_rect(double w, double h, bool rotate) {
  ShapeCurve c;
  c.add({w, h});
  if (rotate) c.add({h, w});
  return c;
}

ShapeCurve ShapeCurve::soft_area(double area, double min_aspect, double max_aspect,
                                 int points) {
  ShapeCurve c;
  if (area <= 0 || points < 1) return c;
  // aspect = h / w; w = sqrt(area / aspect).
  for (int i = 0; i < points; ++i) {
    const double t = points == 1 ? 0.5 : static_cast<double>(i) / (points - 1);
    const double aspect = min_aspect * std::pow(max_aspect / min_aspect, t);
    const double w = std::sqrt(area / aspect);
    c.add({w, area / w});
  }
  return c;
}

void ShapeCurve::add(Shape s) {
  if (s.w <= 0 || s.h <= 0) return;
  // Find insertion point by width.
  auto it = std::lower_bound(points_.begin(), points_.end(), s,
                             [](const Shape& a, const Shape& b) { return a.w < b.w; });
  // Dominated by a point with smaller-or-equal width and height?
  if (it != points_.begin()) {
    const Shape& prev = *(it - 1);
    if (prev.h <= s.h) return;  // prev dominates s (prev.w <= s.w)
  }
  if (it != points_.end() && it->w == s.w && it->h <= s.h) return;
  it = points_.insert(it, s);
  // Remove points dominated by s (width >= s.w and height >= s.h).
  auto next = it + 1;
  auto last = next;
  while (last != points_.end() && last->h >= s.h) ++last;
  points_.erase(next, last);
}

void ShapeCurve::merge(const ShapeCurve& other) {
  if (other.points_.empty()) return;
  if (points_.empty()) {
    points_ = other.points_;
    return;
  }
  // Linear two-pointer merge: walk both frontiers in width order and keep
  // exactly the Pareto minima of the union. A candidate is compared only
  // against the last kept point -- it has maximal width among the kept,
  // so it is the only one that can dominate or tie the candidate.
  std::vector<Shape> merged;
  merged.reserve(points_.size() + other.points_.size());
  const auto emit = [&merged](const Shape& s) {
    if (!merged.empty()) {
      if (s.h >= merged.back().h) return;  // dominated (back.w <= s.w)
      if (s.w == merged.back().w) {
        merged.back() = s;  // equal width: the lower point wins
        return;
      }
    }
    merged.push_back(s);
  };
  std::size_t i = 0, j = 0;
  while (i < points_.size() && j < other.points_.size()) {
    emit(points_[i].w <= other.points_[j].w ? points_[i++] : other.points_[j++]);
  }
  while (i < points_.size()) emit(points_[i++]);
  while (j < other.points_.size()) emit(other.points_[j++]);
  points_ = std::move(merged);
}

void ShapeCurve::compose_horizontal(const ShapeCurve& a, const ShapeCurve& b,
                                    ShapeCurve& out) {
  // Sweep merge: walking both frontiers in merged descending-height order
  // visits, for every achievable height level, exactly the minimal-width
  // pair (each pointer rests on the first point of its curve that fits
  // the level). Heights strictly decrease along the walk; widths are
  // nondecreasing but can collide after rounding when the operand
  // magnitudes differ wildly -- the lower point then replaces the earlier
  // one, exactly as the pairwise frontier would keep only it.
  assert(&out != &a && &out != &b && "compose output aliases an operand");
  std::vector<Shape>& o = out.points_;
  o.clear();
  const std::size_t pa = a.points_.size(), pb = b.points_.size();
  if (pa == 0 || pb == 0) return;
  o.reserve(pa + pb);
  const Shape* pta = a.points_.data();
  const Shape* ptb = b.points_.data();
  std::size_t i = 0, j = 0;
  double last_w = -1.0;  // dims are positive, so no emitted width matches
  for (;;) {
    const Shape& sa = pta[i];
    const Shape& sb = ptb[j];
    const double w = sa.w + sb.w;
    const double h = sa.h > sb.h ? sa.h : sb.h;
    if (w == last_w) {
      o.back().h = h;
    } else {
      o.push_back({w, h});
      last_w = w;
    }
    // Advance past the binding (taller) operand; once either list is
    // exhausted, no remaining pair can reach a lower height level.
    if (sa.h > sb.h) {
      if (++i == pa) break;
    } else if (sb.h > sa.h) {
      if (++j == pb) break;
    } else {
      ++i;
      ++j;
      if (i == pa || j == pb) break;
    }
  }
}

void ShapeCurve::compose_vertical(const ShapeCurve& a, const ShapeCurve& b,
                                  ShapeCurve& out) {
  // Transpose of the horizontal sweep: walk both frontiers backwards
  // (descending width), emit the minimal stacked height per width level,
  // then reverse into increasing-width order. Width collisions cannot
  // round (max picks an original value); height sums can, and dedupe by
  // keeping the narrower point, as the pairwise frontier does.
  assert(&out != &a && &out != &b && "compose output aliases an operand");
  std::vector<Shape>& o = out.points_;
  o.clear();
  const std::size_t pa = a.points_.size(), pb = b.points_.size();
  if (pa == 0 || pb == 0) return;
  o.reserve(pa + pb);
  const Shape* pta = a.points_.data();
  const Shape* ptb = b.points_.data();
  std::size_t i = pa, j = pb;  // one past the walk position
  double last_h = -1.0;  // dims are positive, so no emitted height matches
  for (;;) {
    const Shape& sa = pta[i - 1];
    const Shape& sb = ptb[j - 1];
    const double w = sa.w > sb.w ? sa.w : sb.w;
    const double h = sa.h + sb.h;
    if (h == last_h) {
      o.back().w = w;
    } else {
      o.push_back({w, h});
      last_h = h;
    }
    if (sa.w > sb.w) {
      if (--i == 0) break;
    } else if (sb.w > sa.w) {
      if (--j == 0) break;
    } else {
      --i;
      --j;
      if (i == 0 || j == 0) break;
    }
  }
  std::reverse(o.begin(), o.end());
}

bool ShapeCurve::fits(double w, double h, double eps) const {
  // Points are sorted by increasing w / decreasing h, so the last point
  // with w' <= w has the smallest height among those that fit the width;
  // the box fits iff that point also fits the height. Binary search --
  // these queries sit on the annealer's per-move hot path.
  const auto it = std::partition_point(
      points_.begin(), points_.end(),
      [limit = w + eps](const Shape& s) { return s.w <= limit; });
  if (it == points_.begin()) return false;
  return (it - 1)->h <= h + eps;
}

std::size_t ShapeCurve::min_area_index() const {
  std::size_t best = 0;
  for (std::size_t i = 1; i < points_.size(); ++i) {
    if (points_[i].area() < points_[best].area()) best = i;
  }
  return best;
}

std::optional<Shape> ShapeCurve::min_area_shape() const {
  if (points_.empty()) return std::nullopt;
  return points_[min_area_index()];
}

void ShapeCurve::prune(std::size_t max_points) {
  if (points_.size() <= max_points || max_points < 2) return;
  // In-place compaction: kept index i*(n-1)/(max-1) >= i >= the write
  // cursor, so every source point is read before any write reaches it.
  const std::size_t n = points_.size();
  std::size_t kept = 0;
  for (std::size_t i = 0; i < max_points; ++i) {
    const Shape s = points_[i * (n - 1) / (max_points - 1)];
    if (kept == 0 || !(points_[kept - 1] == s)) points_[kept++] = s;
  }
  points_.resize(kept);
#ifndef NDEBUG
  // A spread subset of a frontier is a frontier; this guards the sweep
  // composers feeding prune on every slicing-tree node.
  for (std::size_t i = 1; i < points_.size(); ++i) {
    assert(points_[i - 1].w < points_[i].w && points_[i - 1].h > points_[i].h);
  }
#endif
}

}  // namespace hidap
