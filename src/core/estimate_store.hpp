#pragma once
// Macro-center estimate state of the recursive floorplanner, with
// explicit snapshot semantics (paper Algorithm 2, the "prototype
// positions" every deeper level anchors its dataflow inference to).
//
// The recursion refines a per-macro position estimate top-down: every
// level writes the centers of its committed block rectangles for the
// macros under each block, single-macro fixes write exact footprints,
// and dataflow inference reads the estimates of macros *outside* the
// level being floorplanned. Extracting that state out of the
// floorplanner makes its aliasing discipline explicit:
//
//  * EstimateStore is the live, mutable state. Writes are slot-disjoint
//    by construction -- a recursion subtree only ever writes the cells
//    under its own HT node and the regions of nodes in its own subtree,
//    and sibling subtrees are rooted at disjoint HT subtrees -- so
//    concurrent sibling-subtree tasks may write the store without
//    synchronization (all flag arrays are std::uint8_t, one byte per
//    slot; never std::vector<bool>, whose packed bits would race).
//  * EstimateSnapshot is an immutable copy of the estimates as of one
//    commit point. Under snapshot semantics every level's dataflow
//    inference reads its parent's committed snapshot (parent layout
//    prototypes), never the live store, which is what makes sibling
//    subtrees data-independent and schedulable in any order -- including
//    concurrently -- with bit-identical results.

#include <cassert>
#include <cstdint>
#include <utility>
#include <vector>

#include "core/result.hpp"
#include "geometry/geometry.hpp"
#include "hier/hier_tree.hpp"
#include "netlist/netlist.hpp"

namespace hidap {

/// Immutable per-cell macro-center estimates as of one commit point.
/// Default-constructed snapshots carry no estimates at all (every
/// has_estimate() is false), which is the state of the first level of a
/// fresh run without preplaced macros.
class EstimateSnapshot {
 public:
  EstimateSnapshot() = default;
  explicit EstimateSnapshot(std::size_t cell_count)
      : pos_(cell_count, Point{}), has_(cell_count, 0) {}

  std::size_t cell_count() const { return pos_.size(); }

  bool has_estimate(CellId cell) const {
    const auto i = static_cast<std::size_t>(cell);
    return i < has_.size() && has_[i] != 0;
  }

  const Point& estimate(CellId cell) const {
    const auto i = static_cast<std::size_t>(cell);
    assert(i < pos_.size() && has_[i] != 0);
    return pos_[i];
  }

  /// Overwrites one cell's estimate (used to derive a child level's
  /// snapshot from its parent's: copy, then apply the level's prototype
  /// writes).
  void set(CellId cell, const Point& p) {
    const auto i = static_cast<std::size_t>(cell);
    assert(i < pos_.size());
    pos_[i] = p;
    has_[i] = 1;
  }

 private:
  friend class EstimateStore;  // snapshot() adopts the arrays wholesale
  EstimateSnapshot(std::vector<Point> pos, std::vector<std::uint8_t> has)
      : pos_(std::move(pos)), has_(std::move(has)) {}

  std::vector<Point> pos_;
  std::vector<std::uint8_t> has_;
};

/// Live estimate + region state of one floorplanner run. See the file
/// comment for the write-disjointness contract that makes concurrent
/// sibling-subtree writers safe.
class EstimateStore {
 public:
  EstimateStore(std::size_t cell_count, std::size_t node_count)
      : pos_(cell_count, Point{}),
        has_(cell_count, 0),
        preplaced_(cell_count, 0),
        region_(node_count, Rect{}),
        region_valid_(node_count, 0) {}

  /// Clears every estimate and region, then seeds the engineer-fixed
  /// macros: preplaced cells get their exact centers as estimates and are
  /// excluded from future writes.
  void reset(const std::vector<MacroPlacement>& preplaced);

  std::size_t cell_count() const { return pos_.size(); }
  std::size_t node_count() const { return region_.size(); }

  bool is_preplaced(CellId cell) const {
    return preplaced_[static_cast<std::size_t>(cell)] != 0;
  }
  int preplaced_count() const { return preplaced_count_; }

  /// Disjoint-slot write (see the contract above). Preplaced cells keep
  /// their exact positions; callers filter them out before writing.
  void set_estimate(CellId cell, const Point& p) {
    const auto i = static_cast<std::size_t>(cell);
    assert(preplaced_[i] == 0 && "preplaced estimates are immutable");
    pos_[i] = p;
    has_[i] = 1;
  }

  bool has_estimate(CellId cell) const {
    return has_[static_cast<std::size_t>(cell)] != 0;
  }
  const Point& estimate(CellId cell) const {
    const auto i = static_cast<std::size_t>(cell);
    assert(has_[i] != 0);
    return pos_[i];
  }

  /// Copy of the current live estimates. Only meaningful from code that
  /// is sequenced against every writer (run() setup / teardown); taking
  /// one while sibling tasks run would tear.
  EstimateSnapshot snapshot() const;

  /// Region assigned to an HT node during the recursion. Same
  /// disjointness contract as the estimates: a subtree only writes nodes
  /// of its own subtree.
  void set_region(HtNodeId node, const Rect& r) {
    region_[static_cast<std::size_t>(node)] = r;
    region_valid_[static_cast<std::size_t>(node)] = 1;
  }
  const std::vector<Rect>& region_of_node() const { return region_; }
  const std::vector<std::uint8_t>& region_valid() const { return region_valid_; }

 private:
  std::vector<Point> pos_;             // per CellId
  std::vector<std::uint8_t> has_;      // per CellId
  std::vector<std::uint8_t> preplaced_;  // per CellId
  int preplaced_count_ = 0;
  std::vector<Rect> region_;              // per HtNodeId
  std::vector<std::uint8_t> region_valid_;  // per HtNodeId
};

}  // namespace hidap
