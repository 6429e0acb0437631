#pragma once
// Shape curves (paper Fig. 4b).
//
// A shape curve is the Pareto frontier of (width, height) pairs such that
// a bounding box of at least that size can hold a legal placement of the
// macros of a block. Points are kept sorted by increasing width and, by
// Pareto dominance, strictly decreasing height.
//
// Shape curves compose under slicing cuts: a horizontal composition
// places children side by side (widths add, heights max), a vertical
// composition stacks them (heights add, widths max). This is the Wong-Liu
// shape-function algebra and is used both by the bottom-up area
// floorplanner (shape curve generation, paper sect. IV-A) and by the
// top-down budget layout's legality checks (sect. IV-E).

#include <algorithm>
#include <cstddef>
#include <optional>
#include <vector>

#include "geometry/geometry.hpp"

namespace hidap {

struct Shape {
  double w = 0.0;
  double h = 0.0;
  double area() const { return w * h; }
  bool operator==(const Shape&) const = default;
};

class ShapeCurve {
 public:
  ShapeCurve() = default;

  /// Curve of a single rectangle (both orientations when rotate is true).
  static ShapeCurve for_rect(double w, double h, bool rotate = true);

  /// Curve allowing any aspect ratio at a fixed area (soft block with no
  /// macros), discretized into `points` samples between the aspect limits.
  static ShapeCurve soft_area(double area, double min_aspect = 0.25,
                              double max_aspect = 4.0, int points = 16);

  bool empty() const { return points_.empty(); }
  const std::vector<Shape>& points() const { return points_; }

  /// Adds one feasible shape, maintaining the Pareto frontier.
  void add(Shape s);

  /// Merges every point of `other` into this curve (Pareto union).
  /// Linear two-pointer merge over both sorted frontiers.
  void merge(const ShapeCurve& other);

  // Wong-Liu composition, O(p_a + p_b): both frontiers are walked in
  // merged order of the binding coordinate (horizontal: descending
  // height; vertical: descending width), emitting the minimal pair per
  // level directly -- no pairwise products, no per-point insertion. The
  // emitted coordinates are the same two-operand sums/maxes the pairwise
  // O(p_a * p_b) reference computes, so the point lists are bit-identical
  // to it (enforced differentially by tests/test_shape_curve.cpp, which
  // holds that reference). The result is written into `out`, reusing its
  // capacity, so a caller that keeps one output curve per slot composes
  // without touching the heap; `out` must not alias an operand.

  /// Children side by side: widths add, heights max.
  static void compose_horizontal(const ShapeCurve& a, const ShapeCurve& b, ShapeCurve& out);
  /// Children stacked: heights add, widths max.
  static void compose_vertical(const ShapeCurve& a, const ShapeCurve& b, ShapeCurve& out);

  /// Pre-sizes the point storage so later compositions of up to `n`
  /// points into this curve do not allocate.
  void reserve(std::size_t n) { points_.reserve(n); }

  /// True when some curve point fits inside a w x h box.
  bool fits(double w, double h, double eps = 1e-9) const;

  /// Index of the smallest-area point (the first of equal minima); 0 for
  /// an empty curve.
  std::size_t min_area_index() const;

  /// The smallest-area point of the curve.
  std::optional<Shape> min_area_shape() const;

  // The two extent queries sit on the budget layout's per-move split, so
  // they are defined here, inline. Points are sorted by increasing w and
  // decreasing h, so each is one binary search.

  /// Smallest width whose curve point has height <= h (i.e. minimum
  /// horizontal extent needed when the available height is h).
  /// Returns nullopt when no point fits in that height.
  std::optional<double> min_width_for_height(double h, double eps = 1e-9) const {
    // The fitting points are a suffix; the first of them has the
    // smallest width.
    const auto it = std::partition_point(
        points_.begin(), points_.end(),
        [limit = h + eps](const Shape& s) { return s.h > limit; });
    if (it == points_.end()) return std::nullopt;
    return it->w;
  }

  /// Symmetric query: smallest height for a given available width.
  std::optional<double> min_height_for_width(double w, double eps = 1e-9) const {
    // The fitting points are a prefix; the last of them has the smallest
    // height.
    const auto it = std::partition_point(
        points_.begin(), points_.end(),
        [limit = w + eps](const Shape& s) { return s.w <= limit; });
    if (it == points_.begin()) return std::nullopt;
    return (it - 1)->h;
  }

  /// Caps the number of Pareto points, keeping an area-spread subset
  /// (point i*(n-1)/(max_points-1) for i < max_points). Compacts in place.
  /// Keeps composition cost bounded on deep trees.
  void prune(std::size_t max_points);

  bool operator==(const ShapeCurve&) const = default;

 private:
  // Sorted by increasing w; strictly decreasing h (Pareto).
  std::vector<Shape> points_;
};

}  // namespace hidap
