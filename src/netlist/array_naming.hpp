#pragma once
// Array clustering by component name (paper sect. IV-D, step 2).
//
// Flops and port bits named "base[i]" or "base_i" within the same
// hierarchy node are grouped into one multi-bit element. The result feeds
// Gseq construction: each group becomes a single Gseq node whose width is
// the number of member bits.

#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

#include "netlist/netlist.hpp"

namespace hidap {

struct ArrayGroup {
  std::string_view base;      ///< base name (without the bit suffix), viewing a member's name
  HierId hier = 0;            ///< hierarchy node the bits live in
  CellKind kind = CellKind::Flop;
  std::uint32_t first = 0;    ///< first member in ArrayClusters::members
  std::uint32_t count = 0;    ///< number of members
  int width() const { return static_cast<int>(count); }
};

/// Every group of a design, their member cells stored back to back.
/// `base` views point into the design's cell names: they stay valid while
/// the design lives and gains no cells.
struct ArrayClusters {
  std::vector<ArrayGroup> groups;  ///< ordered by (hier, kind, base)
  std::vector<CellId> members;     ///< per group, ascending (bit index, cell id)
  std::span<const CellId> bits(const ArrayGroup& g) const {
    return {members.data() + g.first, g.count};
  }
};

/// Groups all flop and port cells of the design. Cells whose names carry
/// no index become singleton groups. Grouping never crosses hierarchy
/// nodes or cell kinds.
ArrayClusters cluster_arrays(const Design& design);

}  // namespace hidap
