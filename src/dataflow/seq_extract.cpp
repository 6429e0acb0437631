#include "dataflow/seq_extract.hpp"

#include <algorithm>
#include <deque>

#include "netlist/array_naming.hpp"
#include "util/log.hpp"

namespace hidap {

namespace {

// Safety cap on the cells one source's comb-cone BFS visits.
constexpr int kMaxConeCells = 200000;

// Estimated data width of a macro: sum of its output pin widths, at least 1.
int macro_width(const Design& design, CellId macro) {
  const MacroDef& def = design.macro_def_of(macro);
  int bits = 0;
  for (const MacroPin& p : def.pins) {
    if (p.is_output) bits += p.bits;
  }
  return std::max(1, bits);
}

}  // namespace

SeqGraph extract_seq_graph(const Design& design, const CellAdjacency& adjacency,
                           const SeqExtractOptions& options) {
  SeqGraph graph;
  graph.resize_cell_map(design.cell_count());

  // --- steps 2 & 4: nodes ------------------------------------------------
  // Arrays for flops/ports; small register arrays are dropped right away.
  const ArrayClusters clusters = cluster_arrays(design);
  for (const ArrayGroup& g : clusters.groups) {
    if (g.kind == CellKind::Flop && g.width() < options.bit_threshold) continue;
    const std::span<const CellId> bits = clusters.bits(g);
    SeqNode node;
    node.kind = (g.kind == CellKind::Flop) ? SeqKind::Register : SeqKind::Port;
    node.base_name = g.base;
    node.hier = g.hier;
    node.bits.assign(bits.begin(), bits.end());
    node.width = g.width();
    const SeqNodeId id = graph.add_node(std::move(node));
    for (const CellId c : bits) graph.map_cell(c, id);
  }
  // One node per macro.
  for (std::size_t i = 0; i < design.cell_count(); ++i) {
    const CellId cid = static_cast<CellId>(i);
    const Cell& cell = design.cell(cid);
    if (cell.kind != CellKind::Macro) continue;
    SeqNode node;
    node.kind = SeqKind::Macro;
    node.base_name = design.cell_name(cid);
    node.hier = cell.hier;
    node.macro_cell = cid;
    node.bits = {cid};
    node.width = macro_width(design, cid);
    const SeqNodeId id = graph.add_node(std::move(node));
    graph.map_cell(cid, id);
  }

  // --- steps 1 & 3: edges via comb-cone BFS --------------------------------
  // From every Gseq node's bit cells, walk forward through combinational
  // cells; each first-touch of a sequential cell owned by another Gseq
  // node yields one wire of an inferred edge. `stamp` gives O(1) visited
  // resets between sources.
  std::vector<std::uint32_t> stamp(design.cell_count(), 0);
  std::uint32_t epoch = 0;
  std::deque<std::pair<CellId, int>> queue;  // (comb cell, depth)

  for (SeqNodeId src = 0; src < static_cast<SeqNodeId>(graph.node_count()); ++src) {
    ++epoch;
    queue.clear();
    int visited = 0;
    // Expanding a frontier cell `u` at comb depth `d`: every sequential
    // fan-out is one wire of an inferred edge (counted per distinct
    // upstream cell, so an 8-bit bus into one macro contributes 8 bits);
    // combinational fan-outs join the cone once.
    const auto expand = [&](CellId u, int depth) {
      for (const CellId v : adjacency.out(u)) {
        if (is_sequential(design.cell(v).kind)) {
          const SeqNodeId dst = graph.node_of_cell(v);
          if (dst != kInvalidId && dst != src) graph.add_edge(src, dst, 1, depth);
          continue;  // sequential elements terminate the cone
        }
        if (stamp[static_cast<std::size_t>(v)] == epoch) continue;
        stamp[static_cast<std::size_t>(v)] = epoch;
        queue.emplace_back(v, depth + 1);
      }
    };
    for (const CellId bit : graph.node(src).bits) expand(bit, 0);
    while (!queue.empty()) {
      const auto [cell, depth] = queue.front();
      queue.pop_front();
      if (++visited > kMaxConeCells) {
        HIDAP_LOG_WARN("seq_extract: cone cap hit at node %d", src);
        break;
      }
      expand(cell, depth);
    }
  }

  graph.build_adjacency();
  HIDAP_LOG_DEBUG("Gseq: %zu nodes, %zu edges (from %zu cells)", graph.node_count(),
                  graph.edge_count(), design.cell_count());
  return graph;
}

}  // namespace hidap
