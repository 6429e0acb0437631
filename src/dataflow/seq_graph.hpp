#pragma once
// Sequential graph Gseq = (Vseq, Eseq) (paper sect. II-C / IV-D).
//
// Nodes are macros, multi-bit registers and multi-bit ports; edges are
// direct register-transfer connections (combinational cells removed).
// Each edge carries the wire count crossing it and the deepest
// combinational path it summarizes (used by the timing proxy).

#include <cstdint>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "netlist/netlist.hpp"

namespace hidap {

using SeqNodeId = std::int32_t;

enum class SeqKind : std::uint8_t { Macro, Register, Port };

struct SeqNode {
  SeqKind kind = SeqKind::Register;
  std::string base_name;            ///< array base name, macro name, or port base
  HierId hier = 0;                  ///< hierarchy level the element lives in
  CellId macro_cell = kInvalidId;   ///< macros only
  std::vector<CellId> bits;         ///< member bit cells (flop/port bits; macro cell)
  int width = 1;                    ///< bit width (array size; macro data width)
};

struct SeqEdge {
  SeqNodeId from = kInvalidId;
  SeqNodeId to = kInvalidId;
  int bits = 0;        ///< distinct source bits observed on the connection
  int comb_depth = 0;  ///< deepest combinational path summarized by the edge
};

/// Centroid of a node's fixed bit positions (a port's pins), summed in
/// `bits` order; nullopt when no bit has a fixed position. Callers pick
/// their own fallback for such a node.
std::optional<Point> port_centroid(const Design& design, const SeqNode& node);

class SeqGraph {
 public:
  SeqNodeId add_node(SeqNode node);
  /// Adds or merges an edge (bits accumulate, depth takes the max).
  void add_edge(SeqNodeId from, SeqNodeId to, int bits, int comb_depth);

  std::size_t node_count() const { return nodes_.size(); }
  std::size_t edge_count() const { return edges_.size(); }
  const SeqNode& node(SeqNodeId id) const { return nodes_[static_cast<std::size_t>(id)]; }
  const SeqEdge& edge(std::size_t i) const { return edges_[i]; }
  const std::vector<SeqNode>& nodes() const { return nodes_; }
  const std::vector<SeqEdge>& edges() const { return edges_; }

  /// Must be called after the last add_edge and before adjacency queries.
  void build_adjacency();

  /// Outgoing edge indices of a node.
  std::pair<const std::uint32_t*, const std::uint32_t*> out_edges(SeqNodeId n) const;
  /// Incoming edge indices of a node.
  std::pair<const std::uint32_t*, const std::uint32_t*> in_edges(SeqNodeId n) const;

  /// Gseq node of a sequential bit cell (kInvalidId for comb cells and
  /// for elements dropped by the bit-width threshold).
  SeqNodeId node_of_cell(CellId cell) const {
    return cell >= 0 && static_cast<std::size_t>(cell) < cell_node_.size()
               ? cell_node_[static_cast<std::size_t>(cell)]
               : kInvalidId;
  }
  void map_cell(CellId cell, SeqNodeId node);
  void resize_cell_map(std::size_t cells) { cell_node_.assign(cells, kInvalidId); }

 private:
  std::vector<SeqNode> nodes_;
  std::vector<SeqEdge> edges_;
  std::unordered_map<std::uint64_t, std::size_t> edge_index_;  ///< (from,to) -> edge
  std::vector<SeqNodeId> cell_node_;
  // CSR adjacency over edge indices.
  std::vector<std::uint32_t> out_start_, out_list_, in_start_, in_list_;
  bool adjacency_built_ = false;
};

}  // namespace hidap
