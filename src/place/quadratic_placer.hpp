#pragma once
// Cluster-level quadratic placement with grid spreading.
//
// Given fixed macro positions and port locations, cell clusters are
// placed by minimizing quadratic (star-model) wirelength -- solved with
// damped Gauss-Seidel sweeps -- and then spread out of overfull grid bins
// whose capacity excludes macro-covered area. The result is the
// PlacedDesign every downstream metric (HPWL, congestion, timing,
// density) reads positions from. The clustering and the link template
// are built once per design (CellPlacementModel); each macro placement
// only resolves its fixed-pin positions and runs the sweeps.

#include <memory>
#include <vector>

#include "core/result.hpp"
#include "geometry/geometry.hpp"
#include "hier/hier_tree.hpp"
#include "netlist/netlist.hpp"
#include "place/clustering.hpp"

namespace hidap {

struct PlaceOptions {
  /// <= 0 selects automatically: ~3 clusters per spreading bin, so every
  /// cluster is legalizable within one bin.
  int target_clusters = 0;
  int solver_iterations = 80;
  int grid = 32;              ///< spreading grid resolution
  int spreading_rounds = 200;
  double bin_capacity_ratio = 0.9;  ///< usable fraction of free bin area
};

class PlacedDesign;

/// The placement-independent half of cell placement: the clustering and
/// the cluster-level star model's link template (clique links with
/// 1/(p-1) weights, in CSR form). Both depend only on (design, ht,
/// options), so one model serves every macro placement of a design.
/// Immutable after construction; safe to share across pool tasks.
class CellPlacementModel {
 public:
  CellPlacementModel(const Design& design, const HierTree& ht, const PlaceOptions& options = {});

  const Design& design() const { return *design_; }
  const PlaceOptions& options() const { return options_; }
  const Clustering& clustering() const { return clustering_; }
  const Rect& die() const { return die_; }
  /// Directed cluster links over all clusters (one Gauss-Seidel sweep
  /// visits each once).
  std::size_t link_count() const { return other_.size(); }
  /// Gauss-Seidel sweeps per placement: the initial solve plus the two
  /// anchored re-solves.
  int sweeps() const;

 private:
  friend PlacedDesign place_cells(std::shared_ptr<const CellPlacementModel>,
                                  const PlacementResult&);

  // Gauss-Seidel sweeps over the link template; `fixed` holds the fixed
  // pins' positions under the current placement.
  void solve(const std::vector<Point>& fixed, std::vector<Point>& pos, int iterations,
             const std::vector<Point>* anchors = nullptr, double anchor_strength = 0.0) const;

  const Design* design_;
  PlaceOptions options_;
  Clustering clustering_;
  Rect die_;
  // Cluster i's links are [begin_[i], begin_[i+1]), in net order.
  std::vector<std::size_t> begin_;
  std::vector<int> other_;        ///< linked cluster, or ~k for fixed pin k
  std::vector<double> weight_;
  std::vector<double> wsum_;      ///< per cluster: its link weights summed in link order
  std::vector<NetPin> fixed_pins_;  ///< fixed endpoints, resolved per placement
};

class PlacedDesign {
 public:
  PlacedDesign(std::shared_ptr<const CellPlacementModel> model, const PlacementResult& macros);

  const Design& design() const { return model_->design(); }
  const Rect& die() const { return model_->die(); }
  const Clustering& clustering() const { return model_->clustering(); }
  const std::vector<Point>& cluster_positions() const { return cluster_pos_; }
  std::vector<Point>& cluster_positions() { return cluster_pos_; }

  /// Position of any cell: macro center / port location / cluster site.
  Point cell_position(CellId cell) const;
  /// Position of a specific net endpoint (macro pins use real offsets).
  Point pin_position(const NetPin& pin) const;
  /// Placed macro footprint lookup (nullptr when the cell is not a macro).
  const MacroPlacement* macro_of(CellId cell) const;
  /// Footprints of the placed macros in CellId order: the blockage the
  /// spreading, density and congestion grids subtract.
  const std::vector<Rect>& macro_blockages() const { return blockages_; }

 private:
  std::shared_ptr<const CellPlacementModel> model_;
  std::vector<Point> cluster_pos_;
  std::vector<int> macro_index_;  ///< per cell: index into macros_, -1 otherwise
  std::vector<MacroPlacement> macros_;
  std::vector<Rect> blockages_;
};

/// Usable area of each spreading bin (row-major, grid x grid): free area
/// times bin_capacity_ratio, with the macro blockage subtracted.
std::vector<double> bin_capacity(const PlacedDesign& placed, const PlaceOptions& options);

/// Solve and spread the clusters of `model` under one macro placement.
PlacedDesign place_cells(std::shared_ptr<const CellPlacementModel> model,
                         const PlacementResult& macros);

/// Full pipeline (cluster, solve, spread) through a model built for this
/// call alone.
PlacedDesign place_cells(const Design& design, const HierTree& ht,
                         const PlacementResult& macros, const PlaceOptions& options = {});

}  // namespace hidap
