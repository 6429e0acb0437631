#pragma once
// Basic planar geometry used throughout hidap. Lengths are in microns,
// areas in square microns.

#include <algorithm>
#include <cmath>
#include <limits>

namespace hidap {

struct Point {
  double x = 0.0;
  double y = 0.0;
  bool operator==(const Point&) const = default;
};

inline double manhattan(const Point& a, const Point& b) {
  return std::abs(a.x - b.x) + std::abs(a.y - b.y);
}

inline double euclidean(const Point& a, const Point& b) {
  return std::hypot(a.x - b.x, a.y - b.y);
}

/// Axis-aligned rectangle, (x, y) = lower-left corner.
struct Rect {
  double x = 0.0;
  double y = 0.0;
  double w = 0.0;
  double h = 0.0;

  double area() const { return w * h; }
  double xmax() const { return x + w; }
  double ymax() const { return y + h; }
  Point center() const { return {x + w / 2.0, y + h / 2.0}; }

  bool contains(const Point& p) const {
    return p.x >= x && p.x <= xmax() && p.y >= y && p.y <= ymax();
  }

  /// Containment with tolerance for floating-point noise.
  bool contains(const Rect& r, double eps = 1e-9) const {
    return r.x >= x - eps && r.y >= y - eps && r.xmax() <= xmax() + eps &&
           r.ymax() <= ymax() + eps;
  }

  bool intersects(const Rect& r) const {
    return x < r.xmax() && r.x < xmax() && y < r.ymax() && r.y < ymax();
  }

  /// Area of overlap with another rectangle (0 when disjoint).
  double overlap_area(const Rect& r) const {
    const double ox = std::min(xmax(), r.xmax()) - std::max(x, r.x);
    const double oy = std::min(ymax(), r.ymax()) - std::max(y, r.y);
    return (ox > 0 && oy > 0) ? ox * oy : 0.0;
  }

  bool operator==(const Rect&) const = default;
};

/// Bounding box of a point set; min/max do not depend on absorb order.
struct BoundingBox {
  double xmin = std::numeric_limits<double>::max();
  double xmax = -std::numeric_limits<double>::max();
  double ymin = std::numeric_limits<double>::max();
  double ymax = -std::numeric_limits<double>::max();

  void absorb(const Point& p) {
    xmin = std::min(xmin, p.x);
    xmax = std::max(xmax, p.x);
    ymin = std::min(ymin, p.y);
    ymax = std::max(ymax, p.y);
  }
  /// 0 for an empty box.
  double half_perimeter() const { return xmax < xmin ? 0.0 : (xmax - xmin) + (ymax - ymin); }
};

/// Smallest rectangle containing both arguments.
inline Rect bounding_union(const Rect& a, const Rect& b) {
  const double x0 = std::min(a.x, b.x);
  const double y0 = std::min(a.y, b.y);
  const double x1 = std::max(a.xmax(), b.xmax());
  const double y1 = std::max(a.ymax(), b.ymax());
  return {x0, y0, x1 - x0, y1 - y0};
}

}  // namespace hidap
