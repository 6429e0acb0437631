#pragma once
// FlatSA cost model, split out of flat_sa.cpp so the incremental
// evaluator and the differential suite can target the exact same
// arithmetic as the full recompute.
//
// FlatCostModel is the reference oracle: bit-weighted sequential
// wirelength between macro centers / fixed-port centroids, plus overlap
// area and out-of-die area, recomputed from scratch on every call.
//
// IncrementalFlatCost caches every additive term of that objective --
// one per sequential net (edge), one per macro pair, one per-macro
// boundary term -- and on a move refreshes only the terms whose
// bounding boxes involve a relocated macro, then re-reduces the cached
// terms left to right in the oracle's accumulation order. Every term
// value and every addition matches the full recompute, so the cost is
// bit-identical (not merely close), which keeps the annealer's
// accept/reject sequence -- and the final placement -- byte-identical
// whether AnnealOptions::incremental is on or off.

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "core/result.hpp"
#include "dataflow/seq_graph.hpp"
#include "geometry/geometry.hpp"
#include "netlist/netlist.hpp"

namespace hidap {

class FlatCostModel {
 public:
  FlatCostModel(const Design& design, const SeqGraph& seq, const Rect& die,
                double overlap_weight);

  /// Full recompute of the objective (the reference oracle).
  double operator()(const std::vector<MacroPlacement>& macros) const;

  struct MacroEdge {
    CellId a, b;
    double w;
  };
  struct PortEdge {
    CellId a;
    Point p;
    double w;
  };
  const std::vector<MacroEdge>& macro_edges() const { return macro_edges_; }
  const std::vector<PortEdge>& port_edges() const { return port_edges_; }
  const Rect& die() const { return die_; }
  double overlap_weight() const { return overlap_weight_; }

 private:
  Rect die_;
  double overlap_weight_;
  std::vector<MacroEdge> macro_edges_;
  std::vector<PortEdge> port_edges_;
};

class IncrementalFlatCost {
 public:
  /// Builds per-net and per-pair term caches for `macros` (whose order
  /// defines the macro indices used by propose()). Every edge endpoint
  /// of the model must be present in `macros`.
  IncrementalFlatCost(const FlatCostModel& model, const std::vector<MacroPlacement>& macros);

  /// Committed cost; bit-identical to model(macros) at the committed
  /// placements.
  double cost() const { return committed_cost_; }

  /// Re-evaluates after the caller mutated `macros[moved...]` in place.
  /// Exactly one commit() or rollback() must follow; on rollback the
  /// caller must also restore the mutated placements themselves (this
  /// class only restores its cached terms).
  double propose(const std::vector<MacroPlacement>& macros, std::span<const std::size_t> moved);
  void commit();
  void rollback();

 private:
  double wl_term_value(std::size_t idx, const std::vector<MacroPlacement>& macros) const;
  double ov_term_value(std::size_t idx, const std::vector<MacroPlacement>& macros) const;
  double reduce() const;

  const FlatCostModel& model_;
  std::size_t macro_count_ = 0;

  // Wirelength edges in the oracle's accumulation order -- macro-macro
  // edges first, then port edges -- as parallel arrays. Indices below
  // macro_edge_count_ are macro edges (endpoints wl_a_/wl_b_); the rest
  // connect wl_a_ to the fixed port centroid (wl_px_, wl_py_).
  std::size_t macro_edge_count_ = 0;
  std::vector<std::uint32_t> wl_a_, wl_b_;
  std::vector<double> wl_w_, wl_px_, wl_py_;
  std::vector<double> wl_terms_;

  // Overlap terms, row-major: for each i the pair terms (i, j > i), then
  // macro i's boundary (out-of-die) term -- again the oracle's order.
  std::vector<double> ov_terms_;
  std::vector<std::size_t> ov_row_offset_;  ///< start of row i in ov_terms_

  // Per-macro indices of the terms its relocation invalidates.
  std::vector<std::vector<std::uint32_t>> touched_wl_;
  std::vector<std::vector<std::uint32_t>> touched_ov_;

  // Proposal bookkeeping: saved (index, previous value) pairs, deduped
  // with an epoch stamp so a two-macro move saves each term once.
  struct Undo {
    std::uint32_t idx;
    double value;
  };
  std::vector<Undo> undo_wl_, undo_ov_;
  std::vector<std::uint32_t> epoch_wl_, epoch_ov_;
  std::uint32_t epoch_ = 0;

  double committed_cost_ = 0.0;
  double proposed_cost_ = 0.0;
  bool pending_ = false;
};

}  // namespace hidap
