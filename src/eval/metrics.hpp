#pragma once
// End-to-end evaluation of a macro placement: standard-cell placement,
// wirelength, congestion, timing, density -- the paper's "metrics after
// placement using the same tool" protocol (Table III columns).
//
// A flow's sweep is evaluated as one batch: the cells of all of its
// placements are placed in one batched solve (place_cells), each
// placement's wirelength ranks it, and congestion, timing and density
// run only for the winner -- the only placement a sweep reports. Every
// number is bit-identical to evaluating the placement alone.

#include <cstddef>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/result.hpp"
#include "dataflow/seq_graph.hpp"
#include "place/density.hpp"
#include "place/hpwl.hpp"
#include "place/quadratic_placer.hpp"
#include "route/congestion.hpp"
#include "timing/timing.hpp"

namespace hidap {

struct EvalOptions {
  PlaceOptions place;
  CongestionOptions congestion;
  TimingOptions timing;
  int density_grid = 64;
};

struct Metrics {
  std::string flow;
  double wl_m = 0.0;           ///< Table III "WL" (meters)
  double wl_norm = 0.0;        ///< normalized vs a reference (filled later)
  double grc_percent = 0.0;    ///< Table III "Cong. GRC%"
  double wns_percent = 0.0;    ///< Table III "WNS%"
  double tns_ns = 0.0;         ///< Table III "TNS"
  double runtime_s = 0.0;      ///< flow effort
  double peak_density_near_macros = 0.0;  ///< Fig. 9 discussion metric
};

/// A sweep's placements measured as one batch (see evaluate_sweep).
struct SweepMetrics {
  std::vector<double> wl_m;  ///< per placement, in input order
  /// Index of the lowest wl_m, the first one on ties (0 when no wl_m is
  /// below the largest double); wl_m.size() when the sweep is empty.
  std::size_t winner = 0;
  Metrics best;  ///< full metrics of the winner (default when empty)
};

/// Evaluates any number of macro placements of one design. The cell
/// placement model (clustering + link template) is built once, in the
/// constructor, and shared read-only by every evaluate()/evaluate_sweep()
/// call, which may run concurrently. `ht`/`seq` must come from the same
/// design (see PlacementContext) and outlive the evaluator.
class PlacementEvaluator {
 public:
  PlacementEvaluator(const Design& design, const HierTree& ht, const SeqGraph& seq,
                     const EvalOptions& options = {});

  /// Places cells under the given macro placement and measures everything.
  Metrics evaluate(const PlacementResult& placement) const;

  /// Places cells under all `placements` in one batched solve, measures
  /// each one's wirelength, and measures everything else only for the
  /// lowest-wirelength one: `best` is bit-identical to
  /// evaluate(*placements[winner]), and wl_m[i] to
  /// evaluate(*placements[i]).wl_m.
  SweepMetrics evaluate_sweep(std::span<const PlacementResult* const> placements) const;

 private:
  std::shared_ptr<const CellPlacementModel> model_;
  const SeqGraph* seq_;
  EvalOptions options_;
};

/// One-shot PlacementEvaluator(design, ht, seq, options).evaluate(placement).
Metrics evaluate_placement(const Design& design, const HierTree& ht,
                           const SeqGraph& seq, const PlacementResult& placement,
                           const EvalOptions& options = {});

/// Cheap surrogate (no cell placement): bit-weighted Gseq wirelength with
/// registers collapsed to their hierarchy estimate. Used for intermediate
/// flow selection where full evaluation would dominate runtime.
double quick_wirelength(const Design& design, const HierTree& ht, const SeqGraph& seq,
                        const PlacementResult& placement);

}  // namespace hidap
