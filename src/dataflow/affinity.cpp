#include "dataflow/affinity.hpp"

#include <algorithm>
#include <cstdint>
#include <utility>

namespace hidap {

double AffinityMatrix::max_value() const {
  double mx = unstored_max_;
  for (const double v : m_) mx = std::max(mx, v);
  return mx;
}

void AffinityMatrix::normalize_max() {
  const double mx = max_value();
  if (mx <= 0.0) return;
  for (double& v : m_) v /= mx;
  unstored_max_ /= mx;
}

std::size_t AffinityMatrix::positive_pairs() const {
  std::size_t count = 0;
  for (std::size_t i = 0; i < rows_; ++i) {
    for (std::size_t j = i + 1; j < n_; ++j) count += m_[i * n_ + j] > 0.0;
  }
  return count;
}

AffinityMatrix compute_affinity(const DataflowGraph& gdf, const AffinityOptions& options) {
  const std::size_t n = gdf.node_count();
  std::size_t rows = 0;
  while (rows < n && !gdf.node(static_cast<DfNodeId>(rows)).fixed) ++rows;
  AffinityMatrix m(n, rows);
  // Terminal-terminal scores, keyed by their unordered pair; summed per
  // pair in edge order below, as the dense matrix would have added them.
  std::vector<std::pair<std::uint64_t, double>> unstored;
  for (const DfEdge& e : gdf.edges()) {
    const double score = options.lambda * e.block_flow.score(options.k) +
                         (1.0 - options.lambda) * e.macro_flow.score(options.k);
    if (score <= 0.0) continue;
    const auto i = static_cast<std::size_t>(e.from);
    const auto j = static_cast<std::size_t>(e.to);
    if (i < rows || j < rows) {
      m.accumulate(i, j, score);
    } else {
      unstored.emplace_back(std::uint64_t{std::min(i, j)} << 32 | std::max(i, j), score);
    }
  }
  std::stable_sort(unstored.begin(), unstored.end(),
                   [](const auto& a, const auto& b) { return a.first < b.first; });
  for (std::size_t k = 0; k < unstored.size();) {
    double sum = 0.0;
    const std::uint64_t key = unstored[k].first;
    for (; k < unstored.size() && unstored[k].first == key; ++k) sum += unstored[k].second;
    m.note_unstored(sum);
  }
  if (options.normalize) m.normalize_max();
  return m;
}

}  // namespace hidap
