#pragma once
// Output types of the macro placement flows.

#include <string>
#include <vector>

#include "geometry/geometry.hpp"
#include "geometry/orientation.hpp"
#include "hier/hier_tree.hpp"
#include "netlist/netlist.hpp"
#include "util/job_control.hpp"

namespace hidap {

struct MacroPlacement {
  CellId cell = kInvalidId;
  Rect rect;                               ///< placed footprint on the die
  Orientation orientation = Orientation::R0;
  Point center() const { return rect.center(); }
};

/// Rectangles assigned to the blocks of one recursion level -- the data
/// behind the paper's Fig. 1 evolution snapshots.
struct LevelSnapshot {
  HtNodeId level = kInvalidId;  ///< the nh being floorplanned
  Rect region;
  std::vector<HtNodeId> blocks;
  std::vector<Rect> block_rects;
  std::vector<int> block_macro_counts;
  int depth = 0;  ///< recursion depth (root = 0)
};

/// Wall seconds of place_macros' four steps, each zero when its step
/// did not run (adopted curves, no legalization needed, a stopped run's
/// skipped post-passes). The steps are disjoint, so they sum to at most
/// runtime_seconds.
struct PhaseSeconds {
  double curves_s = 0.0;
  double recursion_s = 0.0;
  double flip_s = 0.0;
  double legalize_s = 0.0;
};

struct PlacementResult {
  std::vector<MacroPlacement> macros;
  std::vector<LevelSnapshot> snapshots;
  double runtime_seconds = 0.0;
  PhaseSeconds phases;  ///< place_macros only; zero for the baselines
  std::string flow_name;

  /// Completed for a full run. Cancelled / DeadlineExpired runs are
  /// still valid placements (every macro placed) but partial-quality:
  /// levels below the stop point fall back to cheap grid prototypes and
  /// the flipping/legalization post-passes are skipped.
  JobStatus status = JobStatus::Completed;

  const MacroPlacement* find(CellId cell) const {
    for (const MacroPlacement& m : macros) {
      if (m.cell == cell) return &m;
    }
    return nullptr;
  }
};

}  // namespace hidap
