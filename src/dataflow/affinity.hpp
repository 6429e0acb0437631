#pragma once
// Dataflow affinity matrix Maff (paper sect. IV-D).
//
// Edge score = lambda * score(E^b, k) + (1 - lambda) * score(E^m, k);
// the matrix is symmetrized (i->j and j->i flows add up) and normalized
// so the largest entry is 1, which keeps the annealer's cost scale stable
// across designs.

#include <cassert>
#include <vector>

#include "dataflow/dataflow_graph.hpp"

namespace hidap {

struct AffinityOptions {
  double lambda = 0.5;  ///< block-flow vs macro-flow balance (paper lambda)
  double k = 2.0;       ///< latency decay exponent (paper k)
  bool normalize = true;
};

/// Symmetric matrix of pairwise affinities between Gdf nodes that stores
/// only its leading `rows` rows (full width). Every reader asks for pairs
/// with at least one movable block, and the blocks lead the Gdf, so the
/// terminal-terminal square -- most of the matrix on a level with a few
/// hundred port terminals -- is never stored. Its values still count in
/// max_value() and normalize_max(), through note_unstored(), so every
/// stored value equals the dense matrix's bit for bit.
class AffinityMatrix {
 public:
  /// Rows 0..rows-1 of an n x n matrix (rows <= n); rows == n is dense.
  AffinityMatrix(std::size_t n, std::size_t rows) : n_(n), rows_(rows), m_(rows * n, 0.0) {
    assert(rows <= n);
  }

  std::size_t size() const { return n_; }
  std::size_t rows() const { return rows_; }
  /// Any pair with min(i, j) < rows().
  double at(std::size_t i, std::size_t j) const {
    assert(i < rows_ || j < rows_);
    return i < rows_ ? m_[i * n_ + j] : m_[j * n_ + i];
  }
  void set(std::size_t i, std::size_t j, double v) {
    assert(i < rows_ || j < rows_);
    if (i < rows_) m_[i * n_ + j] = v;
    if (j < rows_) m_[j * n_ + i] = v;
  }
  void accumulate(std::size_t i, std::size_t j, double v) {
    assert(i < rows_ || j < rows_);
    if (i < rows_) m_[i * n_ + j] += v;
    if (i != j && j < rows_) m_[j * n_ + i] += v;
  }
  /// Records the value of a pair outside the stored rows, so the maximum
  /// covers the whole matrix.
  void note_unstored(double v) {
    if (v > unstored_max_) unstored_max_ = v;
  }
  double max_value() const;
  /// Scales so the maximum entry becomes 1 (no-op on an all-zero matrix).
  void normalize_max();
  /// Pairs i < j with positive affinity (the pairs the layout cost walks).
  std::size_t positive_pairs() const;

 private:
  std::size_t n_;
  std::size_t rows_;
  std::vector<double> m_;
  double unstored_max_ = 0.0;
};

/// Stores the rows of the Gdf's leading non-fixed nodes (its blocks);
/// a Gdf without fixed nodes gets the dense matrix.
AffinityMatrix compute_affinity(const DataflowGraph& gdf,
                                const AffinityOptions& options = {});

}  // namespace hidap
