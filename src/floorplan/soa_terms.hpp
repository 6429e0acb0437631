#pragma once
// Structure-of-arrays storage for the incremental layout evaluator's
// cost terms (floorplan/incremental_eval). The evaluator keeps one cached
// value per affinity-pair term and, per proposed move, overwrites the
// touched terms and re-runs the oracle's left-to-right reduction. No
// floating-point shortcut (running totals, subtract-old/add-new) is
// taken anywhere -- those change the accumulation order and break
// bit-identity with the full recompute.

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace hidap {

/// Affinity-pair cost terms as parallel endpoint and weight arrays: the
/// term refresh streams `w` contiguously instead of striding over an
/// array-of-structs.
struct PairsSoA {
  std::vector<std::uint32_t> a, b;
  std::vector<double> w;

  std::size_t size() const { return w.size(); }
  void push_back(std::uint32_t i, std::uint32_t j, double weight) {
    a.push_back(i);
    b.push_back(j);
    w.push_back(weight);
  }
};

/// Block / terminal center coordinates as parallel x/y arrays (derived
/// from the budget-layout leaf rects; terminals appended as a constant
/// tail).
struct CentersSoA {
  std::vector<double> x, y;

  void resize(std::size_t n) {
    x.resize(n);
    y.resize(n);
  }
  void set(std::size_t i, double cx, double cy) {
    x[i] = cx;
    y[i] = cy;
  }
};

/// |dx| + |dy| over SoA centers: the same two subtractions, two abs and
/// one add as manhattan(Point, Point), so values match it bit for bit.
inline double soa_manhattan(const CentersSoA& c, std::uint32_t i, std::uint32_t j) {
  return std::abs(c.x[i] - c.x[j]) + std::abs(c.y[i] - c.y[j]);
}

}  // namespace hidap
