#pragma once
// HiDaP top flow (paper Algorithm 1): hierarchy tree, shape-curve
// generation, recursive block floorplanning, macro flipping.
//
// This is the primary public entry point of the library:
//
//   hidap::Design design = ...;               // build or parse a netlist
//   hidap::HiDaPOptions options;
//   options.lambda = 0.5;
//   hidap::PlacementResult result = hidap::place_macros(design, options);
//
// The die is design.die(), anchored at the origin. When running several configurations on one design (lambda
// sweeps, seed sweeps), build a PlacementContext once and reuse it -- the
// netlist adjacency, hierarchy tree and Gseq extraction dominate setup
// time on large designs.

#include "core/macro_flipping.hpp"
#include "core/options.hpp"
#include "core/result.hpp"
#include "dataflow/seq_extract.hpp"
#include "hier/hier_tree.hpp"
#include "netlist/netlist.hpp"

namespace hidap {

/// Immutable per-design analysis shared across placement runs.
struct PlacementContext {
  explicit PlacementContext(const Design& design, const SeqExtractOptions& seq_options = {})
      : adjacency(design),
        ht(design),
        seq(extract_seq_graph(design, adjacency, seq_options)),
        macro_nets(design, ht) {}

  CellAdjacency adjacency;
  HierTree ht;  ///< also the dense macro ordinal (HierTree::macro_ordinal)
  SeqGraph seq;
  MacroNets macro_nets;  ///< the nets macro flipping evaluates
};

/// Reusable shape-curve / recursion-plan precomputes; defined in
/// core/recursive_floorplan.hpp, cached across jobs by the service
/// layer's ArtifactCache.
struct PlacementArtifacts;

/// Runs the full HiDaP flow on a design. Throws HidapError with
/// ErrorCode::InvalidRequest when the design has no macros or no usable
/// die area.
///
/// Per-job state (seed, preplaced macros, the cancellation/deadline/
/// progress handle) rides in options.job. A controlled job whose
/// JobControl asks to stop returns promptly with a valid
/// partial-quality placement and result.status set to the stop reason;
/// an uncontrolled or uncancelled run is bit-identical to the
/// pre-service pipeline.
PlacementResult place_macros(const Design& design, const HiDaPOptions& options = {});

/// Same, reusing a prebuilt context (lambda/seed sweeps) and optionally
/// cached artifacts: when `artifacts` is non-null, present entries are
/// adopted (skipping shape-curve generation / recursion planning,
/// bit-identical to recomputing them) and absent entries are filled in
/// from this run for the caller to cache -- except on stopped runs,
/// whose partial-quality curves must never be cached.
PlacementResult place_macros(const Design& design, const PlacementContext& context,
                             const HiDaPOptions& options,
                             PlacementArtifacts* artifacts = nullptr);

/// Sanity metrics over a placement, used by tests and flows.
struct PlacementCheck {
  bool all_macros_placed = false;
  bool all_inside_die = false;
  double overlap_area = 0.0;  ///< total pairwise macro overlap (um^2)
};
PlacementCheck check_placement(const Design& design, const PlacementResult& result,
                               const Rect& die, double tolerance = 1e-6);

}  // namespace hidap
