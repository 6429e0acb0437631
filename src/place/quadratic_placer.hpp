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
// only resolves its fixed-pin positions, runs the sweeps and spreads.
//
// Placements are solved in batches: every sweep walks the link template
// once for all placements of the batch, each placement doing exactly the
// multiply-adds of a solve of its own, in the same order. A batch of one
// is the one-placement place_cells, and every position of a batched
// placement is bit-identical to placing it alone.
//
// The model also holds the net template HPWL and congestion walk: each
// net as its distinct position sources, with the nets that collapse to
// one source (most of them at paper scale) left out.

#include <cstdint>
#include <memory>
#include <span>
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

/// The placement-independent half of cell placement: the clustering,
/// the cluster-level star model's link template (clique links with
/// 1/(p-1) weights, in CSR form) and the net template. All depend only
/// on (design, ht, options), so one model serves every macro placement
/// of a design. Immutable after construction; safe to share across pool
/// tasks. `design` and `ht` must outlive the model and every
/// PlacedDesign of it, and must not change while it lives.
class CellPlacementModel {
 public:
  /// Builds the clustering and both templates inside an `eval_model`
  /// phase, counting clusters, links and net-template sources.
  CellPlacementModel(const Design& design, const HierTree& ht, const PlaceOptions& options = {});

  const Design& design() const { return *design_; }
  const HierTree& ht() const { return *ht_; }
  const PlaceOptions& options() const { return options_; }
  const Clustering& clustering() const { return clustering_; }
  const Rect& die() const { return die_; }
  /// Directed cluster links over all clusters (one Gauss-Seidel sweep
  /// visits each once).
  std::size_t link_count() const { return column_.size(); }
  /// Gauss-Seidel sweeps per placement: the initial solve plus the two
  /// anchored re-solves.
  int sweeps() const;

  /// Net template: the nets whose pins resolve to at least two distinct
  /// sources, in net order, each as its sources in first-appearance
  /// order. A source is a position column: cluster c is column c, fixed
  /// source f (a macro pin, a port, an unclustered or pinned cell) is
  /// column clusters + f. A net left out is one point at every
  /// placement: zero wirelength and no routing demand.
  std::size_t template_nets() const { return net_begin_.size() - 1; }
  std::span<const std::uint32_t> net_sources(std::size_t k) const {
    return std::span(net_source_).subspan(net_begin_[k], net_begin_[k + 1] - net_begin_[k]);
  }
  std::size_t template_sources() const { return net_source_.size(); }
  /// Fixed sources, resolved per placement (PlacedDesign::source_positions).
  const std::vector<NetPin>& fixed_sources() const { return fixed_sources_; }
  /// Nets with at least two pins: WirelengthReport::nets at any placement.
  std::size_t multi_pin_nets() const { return multi_pin_nets_; }

 private:
  friend std::vector<PlacedDesign> place_cells(std::shared_ptr<const CellPlacementModel>,
                                               std::span<const PlacementResult* const>);
  friend std::vector<Point> initial_solve(std::shared_ptr<const CellPlacementModel>,
                                          const PlacementResult&);

  void build_templates();
  // Loads cluster rows (each placement's current positions) and fixed-pin
  // rows (resolved under each placement) of a batch into `pos`.
  void load_rows(std::span<const PlacedDesign> batch, std::vector<double>& pos) const;

  // Widest batch one solve runs; place_cells splits larger ones.
  static constexpr std::size_t kMaxBatchWidth = 6;

  // Gauss-Seidel sweeps over the link template for `width` <=
  // kMaxBatchWidth placements at once; see the definition for the
  // position layout.
  void solve(std::vector<double>& pos, std::size_t width, int iterations,
             const std::vector<double>* anchors = nullptr, double anchor_strength = 0.0) const;
  template <std::size_t Width>
  void sweep(std::vector<double>& pos, int iterations, const std::vector<double>* anchors,
             double anchor_strength) const;

  const Design* design_;
  const HierTree* ht_;
  PlaceOptions options_;
  Clustering clustering_;
  Rect die_;
  // Cluster i's links are [begin_[i], begin_[i+1]), in net order.
  std::vector<std::size_t> begin_;
  /// Position column of the link's other end: a linked cluster c is
  /// column c, fixed pin k is column clusters + k.
  std::vector<std::uint32_t> column_;
  std::vector<double> weight_;
  std::vector<double> wsum_;      ///< per cluster: its link weights summed in link order
  std::vector<NetPin> fixed_pins_;  ///< fixed endpoints, resolved per placement
  // Net template: kept net k's source columns are
  // net_source_[net_begin_[k], net_begin_[k+1]).
  std::vector<std::size_t> net_begin_;
  std::vector<std::uint32_t> net_source_;
  std::vector<NetPin> fixed_sources_;
  std::size_t multi_pin_nets_ = 0;
};

class PlacedDesign {
 public:
  PlacedDesign(std::shared_ptr<const CellPlacementModel> model, const PlacementResult& macros);

  const CellPlacementModel& model() const { return *model_; }
  const Design& design() const { return model_->design(); }
  const Rect& die() const { return model_->die(); }
  const Clustering& clustering() const { return model_->clustering(); }
  const std::vector<Point>& cluster_positions() const { return cluster_pos_; }
  std::vector<Point>& cluster_positions() { return cluster_pos_; }

  /// Position of any cell: macro center / port location / cluster site.
  Point cell_position(CellId cell) const;
  /// Position of a specific net endpoint (macro pins use real offsets).
  Point pin_position(const NetPin& pin) const;
  /// Placed macro footprint lookup: the last placement entry of a macro
  /// cell, nullptr when the cell is not a macro or is unplaced.
  const MacroPlacement* macro_of(CellId cell) const;
  /// Footprints of the placed macros in CellId order: the blockage the
  /// spreading, density and congestion grids subtract.
  const std::vector<Rect>& macro_blockages() const { return blockages_; }
  /// Calls fn(box) with the bounding box of each net of the model's net
  /// template, over its distinct sources, in net order.
  template <typename Fn>
  void for_each_net_box(Fn&& fn) const {
    const std::vector<Point> at = source_positions();
    for (std::size_t k = 0; k < model_->template_nets(); ++k) {
      BoundingBox box;
      for (const std::uint32_t s : model_->net_sources(k)) box.absorb(at[s]);
      fn(box);
    }
  }

 private:
  // Position of every net-template source column: the cluster positions,
  // then each fixed source's pin_position.
  std::vector<Point> source_positions() const;

  std::shared_ptr<const CellPlacementModel> model_;
  std::vector<Point> cluster_pos_;
  /// Per macro, keyed by HierTree::macro_ordinal: its last placement
  /// entry, or cell == kInvalidId when unplaced. A placement costs
  /// per-macro storage, never a per-cell table.
  std::vector<MacroPlacement> macros_;
  std::vector<Rect> blockages_;
};

/// Usable area of each spreading bin (row-major, grid x grid): free area
/// times bin_capacity_ratio, with the macro blockage subtracted.
std::vector<double> bin_capacity(const PlacedDesign& placed, const PlaceOptions& options);

/// One spreading pass over the positions `pos` of `clusters` on a
/// `die`: clusters leave overfull bins for freer neighbors for up to
/// options.spreading_rounds rounds, any surplus goes to the nearest bins
/// with room, and each bin's clusters take slots on a sub-grid of it.
/// `capacity` is bin_capacity(placed, options). The rounds are a pure
/// function of the bins' loads and stacks; once that state repeats, the
/// rounds left are cut to the remainder of the cycle, which ends in the
/// state the last round would have reached.
void spread_clusters(const Rect& die, std::span<const CellCluster> clusters,
                     const std::vector<double>& capacity, std::vector<Point>& pos,
                     const PlaceOptions& options);

/// The cluster positions the first spreading pass of place_cells sees
/// under `macros`: the initial Gauss-Seidel solve from the die centre.
std::vector<Point> initial_solve(std::shared_ptr<const CellPlacementModel> model,
                                 const PlacementResult& macros);

/// Solve and spread the clusters of `model` under each of `placements`,
/// as one batch (see the file comment); result i belongs to
/// placements[i]. Placements may list macros in any order, repeat one
/// (the last entry wins) or leave some unplaced.
std::vector<PlacedDesign> place_cells(std::shared_ptr<const CellPlacementModel> model,
                                      std::span<const PlacementResult* const> placements);

/// The batch of one: solve and spread under a single macro placement.
PlacedDesign place_cells(std::shared_ptr<const CellPlacementModel> model,
                         const PlacementResult& macros);

/// Full pipeline (cluster, solve, spread) through a model built for this
/// call alone.
PlacedDesign place_cells(const Design& design, const HierTree& ht,
                         const PlacementResult& macros, const PlaceOptions& options = {});

}  // namespace hidap
