#include "dataflow/seq_graph.hpp"

#include <algorithm>
#include <cassert>
#include <unordered_map>

namespace hidap {

std::optional<Point> port_centroid(const Design& design, const SeqNode& node) {
  Point p{};
  int counted = 0;
  for (const CellId bit : node.bits) {
    if (const auto& fixed = design.cell(bit).fixed_pos) {
      p.x += fixed->x;
      p.y += fixed->y;
      ++counted;
    }
  }
  if (counted == 0) return std::nullopt;
  return Point{p.x / counted, p.y / counted};
}

SeqNodeId SeqGraph::add_node(SeqNode node) {
  const SeqNodeId id = static_cast<SeqNodeId>(nodes_.size());
  nodes_.push_back(std::move(node));
  adjacency_built_ = false;
  return id;
}

void SeqGraph::add_edge(SeqNodeId from, SeqNodeId to, int bits, int comb_depth) {
  assert(from >= 0 && static_cast<std::size_t>(from) < nodes_.size());
  assert(to >= 0 && static_cast<std::size_t>(to) < nodes_.size());
  // Merge with an existing parallel edge when present. A hash keyed on the
  // pair keeps this O(1) amortized.
  const std::uint64_t key =
      (static_cast<std::uint64_t>(static_cast<std::uint32_t>(from)) << 32) |
      static_cast<std::uint32_t>(to);
  const auto it = edge_index_.find(key);
  if (it != edge_index_.end()) {
    SeqEdge& e = edges_[it->second];
    e.bits += bits;
    e.comb_depth = std::max(e.comb_depth, comb_depth);
    return;
  }
  edge_index_.emplace(key, edges_.size());
  edges_.push_back(SeqEdge{from, to, bits, comb_depth});
  adjacency_built_ = false;
}

void SeqGraph::build_adjacency() {
  const std::size_t n = nodes_.size();
  out_start_.assign(n + 1, 0);
  in_start_.assign(n + 1, 0);
  for (const SeqEdge& e : edges_) {
    ++out_start_[static_cast<std::size_t>(e.from) + 1];
    ++in_start_[static_cast<std::size_t>(e.to) + 1];
  }
  for (std::size_t i = 0; i < n; ++i) {
    out_start_[i + 1] += out_start_[i];
    in_start_[i + 1] += in_start_[i];
  }
  out_list_.resize(edges_.size());
  in_list_.resize(edges_.size());
  std::vector<std::uint32_t> ofill(out_start_.begin(), out_start_.end() - 1);
  std::vector<std::uint32_t> ifill(in_start_.begin(), in_start_.end() - 1);
  for (std::size_t i = 0; i < edges_.size(); ++i) {
    out_list_[ofill[static_cast<std::size_t>(edges_[i].from)]++] =
        static_cast<std::uint32_t>(i);
    in_list_[ifill[static_cast<std::size_t>(edges_[i].to)]++] =
        static_cast<std::uint32_t>(i);
  }
  adjacency_built_ = true;
}

std::pair<const std::uint32_t*, const std::uint32_t*> SeqGraph::out_edges(
    SeqNodeId n) const {
  assert(adjacency_built_);
  return {out_list_.data() + out_start_[static_cast<std::size_t>(n)],
          out_list_.data() + out_start_[static_cast<std::size_t>(n) + 1]};
}

std::pair<const std::uint32_t*, const std::uint32_t*> SeqGraph::in_edges(
    SeqNodeId n) const {
  assert(adjacency_built_);
  return {in_list_.data() + in_start_[static_cast<std::size_t>(n)],
          in_list_.data() + in_start_[static_cast<std::size_t>(n) + 1]};
}

void SeqGraph::map_cell(CellId cell, SeqNodeId node) {
  cell_node_[static_cast<std::size_t>(cell)] = node;
}

}  // namespace hidap
