#pragma once
// Hierarchical bit-level netlist (the paper's N and the vertex set of
// Gnet = M ∪ P ∪ F ∪ C: macros, ports, flops, combinational cells).
//
// The design is stored flattened (one Cell per leaf instance) together
// with an explicit hierarchy tree so that both the bit-level graph
// traversals (target-area assignment, Gseq extraction) and the
// hierarchy-driven declustering operate on the same object.

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "geometry/geometry.hpp"
#include "netlist/macro_library.hpp"

namespace hidap {

using CellId = std::int32_t;
using NetId = std::int32_t;
using HierId = std::int32_t;
inline constexpr std::int32_t kInvalidId = -1;

enum class CellKind : std::uint8_t {
  Macro,    ///< hard block (memory); sequential endpoint
  Flop,     ///< single-bit sequential cell
  Comb,     ///< combinational cell
  PortIn,   ///< top-level input port bit (modeled as a boundary cell)
  PortOut,  ///< top-level output port bit
};

/// True for the Gseq endpoint kinds (macros, flops, ports).
inline bool is_sequential(CellKind k) { return k != CellKind::Comb; }
inline bool is_port(CellKind k) { return k == CellKind::PortIn || k == CellKind::PortOut; }

struct Cell {
  std::string name;                 ///< local name, unique within its hier node
  CellKind kind = CellKind::Comb;
  HierId hier = 0;                  ///< owning hierarchy node
  double area = 0.0;                ///< footprint in um^2
  MacroDefId macro_def = kNoMacroDef;
  std::optional<Point> fixed_pos;   ///< ports: location on the die boundary
};

/// One endpoint of a net. For macros, (dx, dy) is the pin offset from the
/// cell's lower-left corner (R0 frame); for other cells it is (0, 0).
struct NetPin {
  CellId cell = kInvalidId;
  float dx = 0.0f;
  float dy = 0.0f;
};

/// A net's name lives in its Design (Design::net_name).
struct Net {
  NetPin driver;              ///< driver.cell == kInvalidId for floating nets
  std::vector<NetPin> sinks;
  int degree() const { return (driver.cell != kInvalidId ? 1 : 0) + static_cast<int>(sinks.size()); }
};

struct HierNode {
  std::string name;           ///< local name ("top" for the root)
  HierId parent = kInvalidId;
  std::vector<HierId> children;
  std::vector<CellId> cells;  ///< leaf cells directly under this node
};

/// Die outline: the floorplanning area handed to the top flow.
struct Die {
  double w = 0.0;
  double h = 0.0;
  double area() const { return w * h; }
};

class Design {
 public:
  explicit Design(std::string name = "top");

  const std::string& name() const { return name_; }

  // --- hierarchy ------------------------------------------------------
  HierId root() const { return 0; }
  HierId add_hier(HierId parent, std::string name);
  const HierNode& hier(HierId id) const { return hier_[static_cast<std::size_t>(id)]; }
  std::size_t hier_count() const { return hier_.size(); }
  /// Full path of a hierarchy node, e.g. "top/core0/lsu".
  std::string hier_path(HierId id) const;

  // --- cells ----------------------------------------------------------
  CellId add_cell(HierId hier, std::string name, CellKind kind, double area,
                  MacroDefId macro_def = kNoMacroDef);
  const Cell& cell(CellId id) const { return cells_[static_cast<std::size_t>(id)]; }
  Cell& cell_mutable(CellId id) { return cells_[static_cast<std::size_t>(id)]; }
  std::size_t cell_count() const { return cells_.size(); }
  /// Full hierarchical name of a cell.
  std::string cell_path(CellId id) const;

  // --- nets -----------------------------------------------------------
  /// Net names are stored back to back in one design-owned buffer.
  NetId add_net(std::string_view name);
  /// Adds the net named `prefix` + `local` (a hierarchy path and a local name).
  NetId add_net(std::string_view prefix, std::string_view local);
  void set_driver(NetId net, CellId cell, float dx = 0.0f, float dy = 0.0f);
  void add_sink(NetId net, CellId cell, float dx = 0.0f, float dy = 0.0f);
  const Net& net(NetId id) const { return nets_[static_cast<std::size_t>(id)]; }
  std::size_t net_count() const { return nets_.size(); }
  /// Full name of a net; the view is valid until the next add_net.
  std::string_view net_name(NetId id) const {
    const auto i = static_cast<std::size_t>(id);
    return std::string_view(net_names_)
        .substr(net_name_end_[i], net_name_end_[i + 1] - net_name_end_[i]);
  }

  /// Makes room for `cells` more cells, `nets` more nets and
  /// `net_name_bytes` more bytes of net names, so a builder that counted
  /// its output grows each store once.
  void reserve(std::size_t cells, std::size_t nets, std::size_t net_name_bytes);

  // --- macro library / die -------------------------------------------
  MacroLibrary& library() { return library_; }
  const MacroLibrary& library() const { return library_; }
  const MacroDef& macro_def_of(CellId id) const { return library_.def(cell(id).macro_def); }

  void set_die(Die die) { die_ = die; }
  const Die& die() const { return die_; }

  // --- derived stats ---------------------------------------------------
  std::vector<CellId> macros() const;
  std::vector<CellId> ports() const;
  std::size_t macro_count() const;
  double total_cell_area() const;  ///< macros + standard cells

  /// Consistency check: ids in range, drivers unique, hierarchy a tree.
  /// Returns an empty string when valid, else a description of the issue.
  std::string validate() const;

  // Direct (read-only) access for graph construction hot paths.
  const std::vector<Cell>& cells() const { return cells_; }
  const std::vector<Net>& nets() const { return nets_; }
  const std::vector<HierNode>& hier_nodes() const { return hier_; }

 private:
  std::string name_;
  std::vector<HierNode> hier_;
  std::vector<Cell> cells_;
  std::vector<Net> nets_;
  std::string net_names_;                  ///< every net name, in NetId order
  std::vector<std::size_t> net_name_end_;  ///< [0] = 0, [i + 1] = end of net i's name
  MacroLibrary library_;
  Die die_;
};

/// Compact adjacency (CSR) over cells derived from the nets, used by the
/// BFS-heavy stages. `out` follows driver->sink direction, `in` reverses.
class CellAdjacency {
 public:
  explicit CellAdjacency(const Design& design);

  std::size_t cell_count() const { return out_start_.size() - 1; }

  /// Fan-out cells of `c` (cells driven through any net driven by `c`).
  std::pair<const CellId*, const CellId*> out(CellId c) const {
    return {out_adj_.data() + out_start_[static_cast<std::size_t>(c)],
            out_adj_.data() + out_start_[static_cast<std::size_t>(c) + 1]};
  }
  /// Fan-in cells of `c`.
  std::pair<const CellId*, const CellId*> in(CellId c) const {
    return {in_adj_.data() + in_start_[static_cast<std::size_t>(c)],
            in_adj_.data() + in_start_[static_cast<std::size_t>(c) + 1]};
  }
  /// Undirected neighbor iteration = out then in.
  template <typename Fn>
  void for_each_neighbor(CellId c, Fn&& fn) const {
    auto [ob, oe] = out(c);
    for (const CellId* p = ob; p != oe; ++p) fn(*p);
    auto [ib, ie] = in(c);
    for (const CellId* p = ib; p != ie; ++p) fn(*p);
  }

 private:
  std::vector<std::uint32_t> out_start_, in_start_;
  std::vector<CellId> out_adj_, in_adj_;
};

}  // namespace hidap
