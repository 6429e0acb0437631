#pragma once
// Macro flipping post-process (paper Algorithm 1, step "macro_flipping").
//
// For each placed macro, the footprint-preserving orientations (identity,
// mirror X, mirror Y, 180 degrees -- applied on top of the rotation group
// chosen during placement) are evaluated by the HPWL of the nets attached
// to the macro's pins; the best is kept. Standard-cell endpoints are
// approximated by the center of the innermost floorplan rectangle of
// their hierarchy node, which is exactly the "macro side dataflow" signal
// the paper exploits: flipping pays off when a macro's data pins face the
// logic they talk to.
//
// Which nets touch a macro, and where their other endpoints live, is a
// property of the netlist alone, so it is indexed once per design
// (MacroNets, held by PlacementContext); a placement then only resolves
// region centers and moves macro pins.

#include <cstdint>
#include <set>
#include <vector>

#include "core/result.hpp"
#include "hier/hier_tree.hpp"
#include "netlist/netlist.hpp"

namespace hidap {

struct FlippingStats {
  int flips = 0;
  int passes = 0;
  double hpwl_before = 0.0;
  double hpwl_after = 0.0;
};

/// Every net with at least one macro pin, in net order, indexed once per
/// design (PlacementContext holds it):
///  * pins: CSR of the net's macro pins, as the macro's
///    HierTree::macro_ordinal (its index in Design::macros(), which the
///    recursion keys its estimates by) plus the R0 pin offset exactly as
///    NetPin stores it;
///  * port_box_of: the net's entry in `port_boxes`, the box of its fixed
///    (port) endpoints; entry 0 is the empty box of every net without
///    ports, so a net costs one index, not a box;
///  * nodes: CSR of the distinct HT nodes of its other endpoints, whose
///    positions are the innermost valid region centers of a placement;
///  * macro_pins: CSR per macro ordinal of that macro's pins in net
///    order (a macro with two pins on one net lists the net twice), so
///    flipping scores a macro by walking only its own nets.
/// CSR offsets are u32, one more than the rows. A pin's macro counts as
/// a macro endpoint only when the placement places it; otherwise it is
/// a fixed endpoint like any other cell.
struct MacroNets {
  struct Pin {
    std::uint32_t macro;  ///< HierTree::macro_ordinal
    float dx;
    float dy;
  };
  struct MacroPin {
    std::uint32_t net;  ///< index of an indexed net
    float dx;
    float dy;
  };

  MacroNets(const Design& design, const HierTree& ht);

  std::size_t net_count() const { return port_box_of.size(); }

  std::vector<std::uint32_t> pin_start;
  std::vector<Pin> pins;
  std::vector<std::uint32_t> port_box_of;
  std::vector<BoundingBox> port_boxes;
  std::vector<std::uint32_t> node_start;
  std::vector<HtNodeId> nodes;
  Csr<MacroPin> macro_pins;
};

/// Mutates `macros` orientations in place: each pass visits the
/// placement in order and keeps, per macro, the cheapest of its four
/// footprint-preserving orientations by the HPWL of its nets (the
/// current one unless another undercuts it by 1e-9). All four are scored
/// in one walk over the macro's nets: O(1) per net whose only placed pin
/// is the macro's, a fold over the net's placed pins otherwise. When a
/// cell has several placement entries the last one is its position and
/// the earlier ones score 0 (they never flip). `region`/`region_valid` come
/// from RecursiveFloorplanner::region_of_node() (one byte per node --
/// the recursion's sibling-subtree tasks write the flags concurrently,
/// which std::vector<bool>'s packed bits could not tolerate). Macros in
/// `skip` keep their orientation (preplaced by the user). `nets` must be
/// the index of (design, ht). Adds the nets it evaluates to the
/// `flip.macro_nets` counter.
FlippingStats flip_macros(const Design& design, const HierTree& ht, const MacroNets& nets,
                          const std::vector<Rect>& region,
                          const std::vector<std::uint8_t>& region_valid,
                          std::vector<MacroPlacement>& macros, int max_passes = 4,
                          const std::set<CellId>* skip = nullptr);

/// Same, indexing the design's macro nets first.
FlippingStats flip_macros(const Design& design, const HierTree& ht,
                          const std::vector<Rect>& region,
                          const std::vector<std::uint8_t>& region_valid,
                          std::vector<MacroPlacement>& macros, int max_passes = 4,
                          const std::set<CellId>* skip = nullptr);

}  // namespace hidap
