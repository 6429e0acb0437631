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

/// Every net with at least one macro pin, in net order, as three CSR
/// tables over the indexed nets (u32 offsets, one more than the nets):
///  * pins: the net's macro pins, as an index into `macro_cells` (the
///    HierTree::macro_ordinal the recursion keys its estimates by) plus
///    the R0 pin offset exactly as NetPin stores it;
///  * ports: the positions of its fixed (port) endpoints;
///  * nodes: the distinct HT nodes of its other endpoints, whose
///    positions are the innermost valid region centers of a placement.
/// A pin's macro counts as a macro endpoint only when the placement
/// places it; otherwise it is a fixed endpoint like any other cell.
struct MacroNets {
  struct Pin {
    std::uint32_t macro;  ///< index into macro_cells
    float dx;
    float dy;
  };

  MacroNets(const Design& design, const HierTree& ht);

  std::size_t net_count() const { return pin_start.empty() ? 0 : pin_start.size() - 1; }

  std::vector<CellId> macro_cells;  ///< every macro cell, ascending (index = macro ordinal)
  std::vector<std::uint32_t> pin_start;
  std::vector<Pin> pins;
  std::vector<std::uint32_t> port_start;
  std::vector<Point> ports;
  std::vector<std::uint32_t> node_start;
  std::vector<HtNodeId> nodes;
};

/// Mutates `macros` orientations in place. `region`/`region_valid` come
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
