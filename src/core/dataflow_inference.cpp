#include "core/dataflow_inference.hpp"

#include <cassert>
#include <unordered_map>

#include "util/log.hpp"

namespace hidap {

namespace {

// HT node hosting a Gseq element.
HtNodeId ht_of_seq(const HierTree& ht, const SeqGraph& seq, SeqNodeId n) {
  const SeqNode& node = seq.node(n);
  if (node.kind == SeqKind::Macro) return ht.node_of_cell(node.macro_cell);
  return ht.node_of_hier(node.hier);
}

}  // namespace

Point LevelDataflow::node_center(std::size_t j, const std::vector<Rect>& block_rects) const {
  assert(block_rects.size() == movable_count);
  assert(j < movable_count + terminal_positions.size());
  return j < movable_count ? block_rects[j].center()
                           : terminal_positions[j - movable_count];
}

Point LevelDataflow::attraction_point(std::size_t b, const std::vector<Rect>& block_rects,
                                      const Point& fallback) const {
  assert(b < movable_count);
  double weight = 0.0, ax = 0.0, ay = 0.0;
  for (std::size_t j = 0; j < affinity.size(); ++j) {
    if (j == b) continue;
    const double a = affinity.at(b, j);
    if (a <= 0) continue;
    const Point pj = node_center(j, block_rects);
    ax += a * pj.x;
    ay += a * pj.y;
    weight += a;
  }
  if (weight > 0) return Point{ax / weight, ay / weight};
  return fallback;
}

LevelDataflow infer_level_dataflow(const Design& design, const HierTree& ht,
                                   const SeqGraph& seq, HtNodeId nh,
                                   const std::vector<HtNodeId>& hcb,
                                   const EstimateSnapshot& estimates,
                                   const HiDaPOptions& options) {
  LevelDataflow out;
  out.gdf = std::make_unique<DataflowGraph>(seq);
  out.movable_count = hcb.size();

  // Block index per HT node for the HCB roots.
  std::unordered_map<HtNodeId, int> block_of_root;
  for (std::size_t b = 0; b < hcb.size(); ++b) {
    block_of_root[hcb[b]] = static_cast<int>(b);
  }

  // Classify every Gseq node: member of block b / port / outside macro /
  // glue. Walk up the HT from the hosting node; hitting an HCB root first
  // means membership, hitting nh means in-scope glue.
  std::vector<std::vector<SeqNodeId>> members(hcb.size());
  std::vector<SeqNodeId> port_nodes;
  std::vector<SeqNodeId> outside_macros;
  for (SeqNodeId n = 0; n < static_cast<SeqNodeId>(seq.node_count()); ++n) {
    const SeqNode& node = seq.node(n);
    if (node.kind == SeqKind::Port) {
      port_nodes.push_back(n);
      continue;
    }
    HtNodeId walk = ht_of_seq(ht, seq, n);
    int owner = -1;
    bool in_scope = false;
    while (true) {
      const auto it = block_of_root.find(walk);
      if (it != block_of_root.end()) {
        owner = it->second;
        break;
      }
      if (walk == nh) {
        in_scope = true;
        break;
      }
      if (walk == ht.root()) break;
      walk = ht.node(walk).parent;
    }
    if (owner >= 0) {
      members[static_cast<std::size_t>(owner)].push_back(n);
    } else if (!in_scope && node.kind == SeqKind::Macro) {
      outside_macros.push_back(n);
    }
    // In-scope glue registers and outside registers stay unassigned: the
    // BFS may traverse them.
  }

  // Movable block nodes, in HCB order (affinity row b == block b).
  for (std::size_t b = 0; b < hcb.size(); ++b) {
    DfNode node;
    node.kind = DfKind::Block;
    node.name = ht.path(hcb[b]);
    node.members = std::move(members[b]);
    out.gdf->add_node(std::move(node));
  }
  // Fixed terminals: port groups.
  for (const SeqNodeId p : port_nodes) {
    DfNode node;
    node.kind = DfKind::PortGroup;
    node.name = seq.node(p).base_name;
    node.members = {p};
    node.fixed = true;
    const Point pos = port_centroid(design, seq.node(p)).value_or(Point{});
    node.position = pos;
    out.terminal_positions.push_back(pos);
    out.gdf->add_node(std::move(node));
  }
  // Fixed terminals: macros outside nh with a position estimate.
  for (const SeqNodeId m : outside_macros) {
    const CellId cell = seq.node(m).macro_cell;
    if (!estimates.has_estimate(cell)) continue;
    DfNode node;
    node.kind = DfKind::FixedMacros;
    node.name = seq.node(m).base_name;
    node.members = {m};
    node.fixed = true;
    node.position = estimates.estimate(cell);
    out.terminal_positions.push_back(node.position);
    out.gdf->add_node(std::move(node));
  }

  out.gdf->infer_edges(DataflowOptions{options.max_latency});
  out.affinity =
      compute_affinity(*out.gdf, AffinityOptions{options.lambda, options.k, true});
  return out;
}

}  // namespace hidap
