#pragma once
// Macro legalizer: removes residual overlaps and die violations from a
// macro placement while moving each macro as little as possible.
//
// HiDaP's budget layout is overlap-free by construction, but the
// single-macro corner snapping, halos, or externally supplied (DEF)
// placements can leave small violations. The legalizer resolves them
// with a greedy constraint-relaxation scheme: macros are processed in
// placement order and pushed by the minimum displacement vector that
// clears all already-legalized macros and the die boundary; a local
// spiral search takes over if the direct pushes fail.

#include <set>
#include <vector>

#include "core/result.hpp"
#include "netlist/netlist.hpp"

namespace hidap {

struct LegalizeOptions {
  double halo = 0.0;        ///< required clearance around every macro (um)
  std::set<CellId> fixed;   ///< macros that must not move (preplaced)
};

struct LegalizeStats {
  int moved = 0;               ///< macros displaced
  int unresolved = 0;          ///< macros still overlapping after search
  double total_displacement = 0.0;  ///< sum of center displacements (um)
  double overlap_before = 0.0;
  double overlap_after = 0.0;
};

/// Legalizes in place, clamping every macro into `design.die()`.
LegalizeStats legalize_macros(const Design& design, std::vector<MacroPlacement>& macros,
                              const LegalizeOptions& options = {});

/// Total pairwise overlap area including halo clearance violations.
double total_overlap(const std::vector<MacroPlacement>& macros, double halo = 0.0);

}  // namespace hidap
