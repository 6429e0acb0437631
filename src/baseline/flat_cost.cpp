#include "baseline/flat_cost.hpp"

#include <algorithm>
#include <cassert>
#include <optional>
#include <unordered_map>

namespace hidap {

namespace {

std::optional<Point> port_pos(const Design& design, const SeqNode& node) {
  Point p{};
  int counted = 0;
  for (const CellId bit : node.bits) {
    if (design.cell(bit).fixed_pos) {
      p.x += design.cell(bit).fixed_pos->x;
      p.y += design.cell(bit).fixed_pos->y;
      ++counted;
    }
  }
  if (counted == 0) return std::nullopt;
  return Point{p.x / counted, p.y / counted};
}

}  // namespace

FlatCostModel::FlatCostModel(const Design& design, const SeqGraph& seq, const Rect& die,
                             double overlap_weight)
    : die_(die), overlap_weight_(overlap_weight) {
  // Edges between macros / macro and port, precomputed.
  for (const SeqEdge& e : seq.edges()) {
    const SeqNode& a = seq.node(e.from);
    const SeqNode& b = seq.node(e.to);
    if (a.kind == SeqKind::Macro && b.kind == SeqKind::Macro) {
      macro_edges_.push_back({a.macro_cell, b.macro_cell, double(e.bits)});
    } else if (a.kind == SeqKind::Macro && b.kind == SeqKind::Port) {
      if (const auto p = port_pos(design, b)) {
        port_edges_.push_back({a.macro_cell, *p, double(e.bits)});
      }
    } else if (a.kind == SeqKind::Port && b.kind == SeqKind::Macro) {
      if (const auto p = port_pos(design, a)) {
        port_edges_.push_back({b.macro_cell, *p, double(e.bits)});
      }
    }
  }
}

double FlatCostModel::operator()(const std::vector<MacroPlacement>& macros) const {
  std::unordered_map<CellId, Point> pos;
  for (const MacroPlacement& m : macros) pos[m.cell] = m.rect.center();
  double wl = 0.0;
  for (const auto& [a, b, w] : macro_edges_) {
    wl += w * manhattan(pos.at(a), pos.at(b));
  }
  for (const auto& [a, p, w] : port_edges_) wl += w * manhattan(pos.at(a), p);
  double overlap = 0.0;
  for (std::size_t i = 0; i < macros.size(); ++i) {
    for (std::size_t j = i + 1; j < macros.size(); ++j) {
      overlap += macros[i].rect.overlap_area(macros[j].rect);
    }
    // Out-of-die is treated as overlap with the outside.
    const Rect& r = macros[i].rect;
    const double inside = r.overlap_area(die_);
    overlap += r.area() - inside;
  }
  return wl + overlap_weight_ * overlap;
}

IncrementalFlatCost::IncrementalFlatCost(const FlatCostModel& model,
                                         const std::vector<MacroPlacement>& macros)
    : model_(model), macro_count_(macros.size()) {
  std::unordered_map<CellId, std::uint32_t> index;
  index.reserve(macros.size());
  for (std::size_t i = 0; i < macros.size(); ++i) {
    index[macros[i].cell] = static_cast<std::uint32_t>(i);
  }

  touched_wl_.resize(macro_count_);
  touched_ov_.resize(macro_count_);

  const std::size_t edge_total = model.macro_edges().size() + model.port_edges().size();
  wl_a_.reserve(edge_total);
  wl_b_.reserve(edge_total);
  wl_w_.reserve(edge_total);
  wl_px_.reserve(edge_total);
  wl_py_.reserve(edge_total);
  for (const FlatCostModel::MacroEdge& e : model.macro_edges()) {
    const auto idx = static_cast<std::uint32_t>(wl_w_.size());
    const std::uint32_t a = index.at(e.a);
    const std::uint32_t b = index.at(e.b);
    wl_a_.push_back(a);
    wl_b_.push_back(b);
    wl_w_.push_back(e.w);
    wl_px_.push_back(0.0);
    wl_py_.push_back(0.0);
    touched_wl_[a].push_back(idx);
    if (b != a) touched_wl_[b].push_back(idx);
  }
  macro_edge_count_ = wl_w_.size();
  for (const FlatCostModel::PortEdge& e : model.port_edges()) {
    const auto idx = static_cast<std::uint32_t>(wl_w_.size());
    const std::uint32_t a = index.at(e.a);
    wl_a_.push_back(a);
    wl_b_.push_back(0);
    wl_w_.push_back(e.w);
    wl_px_.push_back(e.p.x);
    wl_py_.push_back(e.p.y);
    touched_wl_[a].push_back(idx);
  }
  wl_terms_.resize(wl_w_.size());
  for (std::size_t idx = 0; idx < wl_terms_.size(); ++idx) {
    wl_terms_[idx] = wl_term_value(idx, macros);
  }

  // Row i holds the pair terms (i, j > i) followed by i's boundary term.
  const std::size_t m = macro_count_;
  ov_row_offset_.resize(m + 1);
  std::size_t offset = 0;
  for (std::size_t i = 0; i < m; ++i) {
    ov_row_offset_[i] = offset;
    offset += (m - 1 - i) + 1;
  }
  ov_row_offset_[m] = offset;
  ov_terms_.resize(offset);
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = i + 1; j < m; ++j) {
      const auto idx = static_cast<std::uint32_t>(ov_row_offset_[i] + (j - i - 1));
      touched_ov_[i].push_back(idx);
      touched_ov_[j].push_back(idx);
    }
    touched_ov_[i].push_back(static_cast<std::uint32_t>(ov_row_offset_[i] + (m - 1 - i)));
  }
  for (std::size_t idx = 0; idx < ov_terms_.size(); ++idx) {
    ov_terms_[idx] = ov_term_value(idx, macros);
  }

  epoch_wl_.assign(wl_terms_.size(), 0);
  epoch_ov_.assign(ov_terms_.size(), 0);
  committed_cost_ = reduce();
}

double IncrementalFlatCost::wl_term_value(std::size_t idx,
                                          const std::vector<MacroPlacement>& macros) const {
  const Point ca = macros[wl_a_[idx]].rect.center();
  if (idx < macro_edge_count_) {
    return wl_w_[idx] * manhattan(ca, macros[wl_b_[idx]].rect.center());
  }
  return wl_w_[idx] * manhattan(ca, Point{wl_px_[idx], wl_py_[idx]});
}

double IncrementalFlatCost::ov_term_value(std::size_t idx,
                                          const std::vector<MacroPlacement>& macros) const {
  // Locate the row: ov_row_offset_ is ascending, rows are short, and the
  // callers touch terms row-locally, so a binary search is plenty.
  const auto row_it =
      std::upper_bound(ov_row_offset_.begin(), ov_row_offset_.end(), idx) - 1;
  const auto i = static_cast<std::size_t>(row_it - ov_row_offset_.begin());
  const std::size_t col = idx - ov_row_offset_[i];
  const Rect& r = macros[i].rect;
  if (col == macro_count_ - 1 - i) {
    // Boundary term: out-of-die area, exactly as the oracle charges it.
    const double inside = r.overlap_area(model_.die());
    return r.area() - inside;
  }
  const std::size_t j = i + 1 + col;
  return r.overlap_area(macros[j].rect);
}

double IncrementalFlatCost::reduce() const {
  // Left-to-right sums in the oracle's order: macro edges then port
  // edges; per-row pair terms then the row's boundary term.
  double wl = 0.0;
  for (const double t : wl_terms_) wl += t;
  double overlap = 0.0;
  for (const double t : ov_terms_) overlap += t;
  return wl + model_.overlap_weight() * overlap;
}

double IncrementalFlatCost::propose(const std::vector<MacroPlacement>& macros,
                                    std::span<const std::size_t> moved) {
  assert(!pending_ && "commit() or rollback() the previous proposal first");
  assert(macros.size() == macro_count_);
  ++epoch_;
  undo_wl_.clear();
  undo_ov_.clear();
  for (const std::size_t k : moved) {
    for (const std::uint32_t idx : touched_wl_[k]) {
      if (epoch_wl_[idx] == epoch_) continue;  // already refreshed this move
      epoch_wl_[idx] = epoch_;
      undo_wl_.push_back({idx, wl_terms_[idx]});
      wl_terms_[idx] = wl_term_value(idx, macros);
    }
    for (const std::uint32_t idx : touched_ov_[k]) {
      if (epoch_ov_[idx] == epoch_) continue;
      epoch_ov_[idx] = epoch_;
      undo_ov_.push_back({idx, ov_terms_[idx]});
      ov_terms_[idx] = ov_term_value(idx, macros);
    }
  }
  proposed_cost_ = reduce();
  pending_ = true;
  return proposed_cost_;
}

void IncrementalFlatCost::commit() {
  assert(pending_ && "commit() without a pending proposal");
  committed_cost_ = proposed_cost_;
  undo_wl_.clear();
  undo_ov_.clear();
  pending_ = false;
}

void IncrementalFlatCost::rollback() {
  assert(pending_ && "rollback() without a pending proposal");
  for (const Undo& u : undo_wl_) wl_terms_[u.idx] = u.value;
  for (const Undo& u : undo_ov_) ov_terms_[u.idx] = u.value;
  undo_wl_.clear();
  undo_ov_.clear();
  pending_ = false;
}

}  // namespace hidap
