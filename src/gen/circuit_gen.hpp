#pragma once
// Synthetic hierarchical SoC generator.
//
// Substitute for the paper's proprietary industrial circuits, which are
// not public; gen/suite.cpp sizes one per row of the paper's Table III.
// The generator emits exactly the structure HiDaP consumes: an RTL-style
// hierarchy tree, memory-macro banks, *named* multi-bit register arrays
// ("stage_q[17]"), combinational clouds between pipeline stages,
// cross-subsystem buses of configurable width and latency, narrow
// control glue, and boundary ports with die locations.
//
// Topology: `subsystems` top-level units arranged in a logical pipeline
// ring (ss0 -> ss1 -> ... -> ss0), each containing memory banks fed and
// drained by register pipelines, plus a shared control/NoC unit with
// narrow links to every subsystem. The dataflow is therefore strongly
// structured -- the property the paper's affinity metric exploits.

#include <cstdint>
#include <string>

#include "netlist/netlist.hpp"

namespace hidap {

struct CircuitSpec {
  std::string name = "soc";
  int target_cells = 50000;   ///< approximate std-cell count
  int macro_count = 32;
  int subsystems = 4;         ///< top-level pipeline units
  int pipeline_depth = 3;     ///< register stages between memories
  int bus_width = 64;         ///< main datapath width (bits)
  int comb_depth = 3;         ///< comb cells per bit between stages
  double macro_w = 120.0;     ///< base macro footprint (um)
  double macro_h = 90.0;
  double avg_cell_area = 1.2; ///< um^2 per std cell
  double utilization = 0.55;  ///< die sizing: total area / utilization
  std::uint64_t seed = 1;
};

/// Generates the design; die and port locations are set. A dry pass
/// makes the same random draws and counts the cells, nets, pins and
/// name bytes, so every store of the design grows once.
Design generate_circuit(const CircuitSpec& spec);

}  // namespace hidap
