#include "dataflow/dataflow_graph.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <deque>

#include "util/log.hpp"

namespace hidap {

void LatencyHistogram::add(int latency, double bits) {
  assert(latency >= 1);
  if (static_cast<std::size_t>(latency) > bits_.size()) {
    bits_.resize(static_cast<std::size_t>(latency), 0.0);
  }
  bits_[static_cast<std::size_t>(latency) - 1] += bits;
}

double LatencyHistogram::score(double k) const {
  double s = 0.0;
  for (std::size_t i = 0; i < bits_.size(); ++i) {
    s += bits_[i] / std::pow(static_cast<double>(i + 1), k);
  }
  return s;
}

double LatencyHistogram::total_bits() const {
  double s = 0.0;
  for (const double b : bits_) s += b;
  return s;
}

double LatencyHistogram::bits_at(int latency) const {
  if (latency < 1 || static_cast<std::size_t>(latency) > bits_.size()) return 0.0;
  return bits_[static_cast<std::size_t>(latency) - 1];
}

DataflowGraph::DataflowGraph(const SeqGraph& seq) : seq_(&seq) {
  seq_to_df_.assign(seq.node_count(), kInvalidId);
  stamp_.assign(seq.node_count(), 0);
}

DfNodeId DataflowGraph::add_node(DfNode node) {
  const DfNodeId id = static_cast<DfNodeId>(nodes_.size());
  for (const SeqNodeId m : node.members) {
    assert(seq_to_df_[static_cast<std::size_t>(m)] == kInvalidId &&
           "Gseq node assigned to two Gdf nodes");
    seq_to_df_[static_cast<std::size_t>(m)] = id;
  }
  nodes_.push_back(std::move(node));
  return id;
}

LatencyHistogram& DataflowGraph::edge_histogram(DfNodeId from, DfNodeId to,
                                                bool macro_flow) {
  const std::uint64_t key =
      (static_cast<std::uint64_t>(static_cast<std::uint32_t>(from)) << 32) |
      static_cast<std::uint32_t>(to);
  const auto it = edge_index_.find(key);
  std::size_t idx;
  if (it == edge_index_.end()) {
    idx = edges_.size();
    edge_index_.emplace(key, idx);
    edges_.push_back(DfEdge{from, to, {}, {}});
  } else {
    idx = it->second;
  }
  return macro_flow ? edges_[idx].macro_flow : edges_[idx].block_flow;
}

const DfEdge* DataflowGraph::find_edge(DfNodeId from, DfNodeId to) const {
  const std::uint64_t key =
      (static_cast<std::uint64_t>(static_cast<std::uint32_t>(from)) << 32) |
      static_cast<std::uint32_t>(to);
  const auto it = edge_index_.find(key);
  return it == edge_index_.end() ? nullptr : &edges_[it->second];
}

void DataflowGraph::infer_edges(const DataflowOptions& options) {
  for (DfNodeId n = 0; n < static_cast<DfNodeId>(nodes_.size()); ++n) {
    block_flow_from(n, options);
    macro_flow_from(n, options);
  }
  HIDAP_LOG_DEBUG("Gdf: %zu nodes, %zu edges", nodes_.size(), edges_.size());
}

// Multi-source BFS from all members of `src`, expanding only through glue
// (Gseq nodes not assigned to any Gdf node). First touch of a node of a
// foreign Gdf node contributes bits(predecessor) to the block-flow
// histogram at its BFS depth (paper Fig. 7, blue paths).
void DataflowGraph::block_flow_from(DfNodeId src, const DataflowOptions& options) {
  ++epoch_;
  // (seq node, latency, predecessor width)
  std::deque<std::tuple<SeqNodeId, int, int>> queue;
  for (const SeqNodeId m : nodes_[static_cast<std::size_t>(src)].members) {
    stamp_[static_cast<std::size_t>(m)] = epoch_;
    queue.emplace_back(m, 0, seq_->node(m).width);
  }
  while (!queue.empty()) {
    const auto [u, dist, pred_width] = queue.front();
    queue.pop_front();
    (void)pred_width;
    if (dist >= options.max_latency) continue;
    const int u_width = seq_->node(u).width;
    for (const std::uint32_t e : seq_->out_edges(u)) {
      const SeqEdge& edge = seq_->edge(e);
      const SeqNodeId v = edge.to;
      if (stamp_[static_cast<std::size_t>(v)] == epoch_) continue;
      stamp_[static_cast<std::size_t>(v)] = epoch_;
      const DfNodeId owner = seq_to_df_[static_cast<std::size_t>(v)];
      if (owner == src) continue;  // re-entered the source block: stop
      if (owner != kInvalidId) {
        // Reached block `owner`: the predecessor on the path is u.
        edge_histogram(src, owner, /*macro_flow=*/false).add(dist + 1, u_width);
        continue;  // foreign blocks terminate the path
      }
      queue.emplace_back(v, dist + 1, u_width);
    }
  }
}

// BFS from the macro members of `src`, crossing any non-macro Gseq node
// (registers of any block included), terminating at macros (paper Fig. 7,
// red paths).
void DataflowGraph::macro_flow_from(DfNodeId src, const DataflowOptions& options) {
  ++epoch_;
  std::deque<std::tuple<SeqNodeId, int, int>> queue;
  for (const SeqNodeId m : nodes_[static_cast<std::size_t>(src)].members) {
    if (seq_->node(m).kind != SeqKind::Macro) continue;
    stamp_[static_cast<std::size_t>(m)] = epoch_;
    queue.emplace_back(m, 0, seq_->node(m).width);
  }
  while (!queue.empty()) {
    const auto [u, dist, pred_width] = queue.front();
    queue.pop_front();
    (void)pred_width;
    if (dist >= options.max_latency) continue;
    const int u_width = seq_->node(u).width;
    for (const std::uint32_t e : seq_->out_edges(u)) {
      const SeqEdge& edge = seq_->edge(e);
      const SeqNodeId v = edge.to;
      if (stamp_[static_cast<std::size_t>(v)] == epoch_) continue;
      stamp_[static_cast<std::size_t>(v)] = epoch_;
      if (seq_->node(v).kind == SeqKind::Macro) {
        const DfNodeId owner = seq_to_df_[static_cast<std::size_t>(v)];
        if (owner != kInvalidId && owner != src) {
          edge_histogram(src, owner, /*macro_flow=*/true).add(dist + 1, u_width);
        }
        continue;  // macros terminate macro-flow paths
      }
      queue.emplace_back(v, dist + 1, u_width);
    }
  }
}

}  // namespace hidap
