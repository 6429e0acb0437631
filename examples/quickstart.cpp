// Quickstart: build a small design with the C++ API, run HiDaP, inspect
// the placement.
//
//   $ ./quickstart
//
// The design is a toy 4-macro pipeline: in -> regs -> M0 -> regs -> M1 ->
// regs -> M2 -> regs -> M3 -> regs -> out. HiDaP should order the macros
// along the port-to-port axis.

#include <cstdio>

#include "core/hidap.hpp"
#include "viz/svg.hpp"

using namespace hidap;

int main() {
  // --- 1. Build a netlist: hierarchy, macros, register arrays, ports. ---
  Design design("quickstart");
  const MacroDefId sram = design.library().add(MacroLibrary::make_sram("SRAM", 40, 30, 32));

  const int width = 32;
  std::vector<NetId> bus;
  // Input ports on the west edge.
  for (int i = 0; i < width; ++i) {
    const CellId pad = design.add_cell(design.root(), "in[" + std::to_string(i) + "]",
                                       CellKind::PortIn, 0.0);
    design.set_fixed_pos(pad, Point{0.0, 100.0 + i});
    const NetId n = design.add_net("in");
    design.set_driver(n, pad);
    bus.push_back(n);
  }
  // Four pipeline stages, each its own module with a macro.
  std::vector<CellId> macros;
  for (int stage = 0; stage < 4; ++stage) {
    const HierId h = design.add_hier(design.root(), "stage" + std::to_string(stage));
    const CellId mem = design.add_cell(h, "mem", CellKind::Macro, 0.0, sram);
    macros.push_back(mem);
    std::vector<NetId> next;
    for (int i = 0; i < width; ++i) {
      const std::string idx = "[" + std::to_string(i) + "]";
      const CellId reg = design.add_cell(h, "d_q" + idx, CellKind::Flop, 1.0);
      design.add_sink(bus[static_cast<std::size_t>(i)], reg);
      const NetId to_mem = design.add_net("dm");
      design.set_driver(to_mem, reg);
      design.add_sink(to_mem, mem, 0.0f, 15.0f);
      const NetId from_mem = design.add_net("mq");
      design.set_driver(from_mem, mem, 40.0f, 15.0f);
      const CellId qreg = design.add_cell(h, "q_q" + idx, CellKind::Flop, 1.0);
      design.add_sink(from_mem, qreg);
      const NetId out = design.add_net("o");
      design.set_driver(out, qreg);
      next.push_back(out);
    }
    bus = next;
  }
  // Output ports on the east edge.
  const double die_side = 300.0;
  for (int i = 0; i < width; ++i) {
    const CellId pad = design.add_cell(design.root(), "out[" + std::to_string(i) + "]",
                                       CellKind::PortOut, 0.0);
    design.set_fixed_pos(pad, Point{die_side, 100.0 + i});
    design.add_sink(bus[static_cast<std::size_t>(i)], pad);
  }
  design.set_die(Die{die_side, die_side});
  design.freeze();  // the netlist is complete: lay it out for the readers
  std::printf("design: %zu cells, %zu nets, %zu macros\n", design.cell_count(),
              design.net_count(), design.macro_count());

  // --- 2. Run HiDaP. -----------------------------------------------------
  HiDaPOptions options;
  options.lambda = 0.5;  // balance block flow and macro flow
  const PlacementResult result = place_macros(design, options);

  // --- 3. Inspect the result. ---------------------------------------------
  std::printf("\nplaced %zu macros in %.2f s:\n", result.macros.size(),
              result.runtime_seconds);
  for (const MacroPlacement& m : result.macros) {
    std::printf("  %-18s at (%7.1f, %7.1f) %4.0fx%-4.0f %s\n",
                design.cell_path(m.cell).c_str(), m.rect.x, m.rect.y, m.rect.w,
                m.rect.h, std::string(to_string(m.orientation)).c_str());
  }
  // The pipeline should be ordered left to right: check x monotonicity.
  double prev_x = -1e9;
  int ordered = 0;
  for (const CellId mc : macros) {
    const MacroPlacement* p = result.find(mc);
    if (p && p->rect.center().x >= prev_x) ++ordered;
    if (p) prev_x = p->rect.center().x;
  }
  std::printf("\npipeline order along the port axis: %d/4 stages monotone\n", ordered);

  write_placement_svg(design, result, "quickstart_placement.svg");
  std::printf("wrote quickstart_placement.svg\n");
  return 0;
}
