#pragma once
// Hierarchical bit-level netlist (the paper's N and the vertex set of
// Gnet = M ∪ P ∪ F ∪ C: macros, ports, flops, combinational cells).
//
// The design is stored flattened (one Cell per leaf instance) together
// with an explicit hierarchy tree so that both the bit-level graph
// traversals (target-area assignment, Gseq extraction) and the
// hierarchy-driven declustering operate on the same object.

#include <cassert>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "geometry/geometry.hpp"
#include "netlist/macro_library.hpp"
#include "util/csr.hpp"

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

struct HierNode {
  std::string name;           ///< local name ("top" for the root)
  HierId parent = kInvalidId;
  std::vector<HierId> children;
};

/// Die outline: the floorplanning area handed to the top flow.
struct Die {
  double w = 0.0;
  double h = 0.0;
  double area() const { return w * h; }
};

/// Output sizes a builder counted before building (Design::reserve).
struct DesignSize {
  std::size_t cells = 0, nets = 0, pins = 0, cell_name_bytes = 0, net_name_bytes = 0;
};

/// Strings stored back to back in one buffer, read as views by index; a
/// view is valid until the next push.
class NameBuffer {
 public:
  void reserve(std::size_t count, std::size_t bytes) {
    end_.reserve(end_.size() + count);
    bytes_.reserve(bytes_.size() + bytes);
  }
  void push(std::string_view prefix, std::string_view local) {
    end_.push_back(bytes_.append(prefix).append(local).size());
  }
  std::size_t size() const { return end_.size() - 1; }
  std::string_view operator[](std::size_t i) const {
    return std::string_view(bytes_).substr(end_[i], end_[i + 1] - end_[i]);
  }

 private:
  std::string bytes_;
  std::vector<std::size_t> end_{0};  ///< end_[i + 1] = end of string i
};

/// Built with add_hier/add_cell/add_net/set_driver/add_sink, then frozen
/// once: freeze() lays out every net's pins as one range, driver first
/// and sinks in call order, and every hierarchy node's cells as one
/// CellId-ordered range. Adding anything after freeze(), or reading
/// pins, cells_of, macros or ports before it, is an asserted error.
class Design {
 public:
  explicit Design(std::string name = "top");

  const std::string& name() const { return name_; }

  /// Makes room for `more` of each store, so a builder that counted its
  /// output grows each store once.
  void reserve(const DesignSize& more);
  /// Idempotent.
  void freeze();

  // --- hierarchy ------------------------------------------------------
  HierId root() const { return 0; }
  HierId add_hier(HierId parent, std::string name);
  const HierNode& hier(HierId id) const { return hier_[static_cast<std::size_t>(id)]; }
  std::size_t hier_count() const { return hier_.size(); }
  /// Full path of a hierarchy node, e.g. "top/core0/lsu".
  std::string hier_path(HierId id) const;
  /// Leaf cells directly under `id`, in CellId order.
  std::span<const CellId> cells_of(HierId id) const {
    assert(frozen_);
    return hier_cells_[static_cast<std::size_t>(id)];
  }

  // --- cells ----------------------------------------------------------
  /// `name` is the local name, unique within its hierarchy node.
  CellId add_cell(HierId hier, std::string_view name, CellKind kind, double area,
                  MacroDefId macro_def = kNoMacroDef);
  const Cell& cell(CellId id) const { return cells_[static_cast<std::size_t>(id)]; }
  /// The one cell field that may change after freeze().
  void set_fixed_pos(CellId id, std::optional<Point> pos) {
    cells_[static_cast<std::size_t>(id)].fixed_pos = pos;
  }
  std::size_t cell_count() const { return cells_.size(); }
  std::string_view cell_name(CellId id) const { return cell_names_[static_cast<std::size_t>(id)]; }
  /// Full hierarchical name of a cell.
  std::string cell_path(CellId id) const;

  // --- nets -----------------------------------------------------------
  NetId add_net(std::string_view name);
  /// Adds the net named `prefix` + `local` (a hierarchy path and a local name).
  NetId add_net(std::string_view prefix, std::string_view local);
  /// A second driver on one net replaces the first; validate() reports it.
  void set_driver(NetId net, CellId cell, float dx = 0.0f, float dy = 0.0f);
  void add_sink(NetId net, CellId cell, float dx = 0.0f, float dy = 0.0f);
  std::size_t net_count() const { return net_names_.size(); }
  std::size_t pin_count() const { return pins_.size(); }
  std::string_view net_name(NetId id) const { return net_names_[static_cast<std::size_t>(id)]; }
  /// NetPin{} for a floating net. Valid before freeze() too.
  const NetPin& driver(NetId id) const { return driver_[static_cast<std::size_t>(id)]; }
  bool has_driver(NetId id) const { return driver(id).cell != kInvalidId; }
  /// The driver first (when there is one), then the sinks.
  std::span<const NetPin> pins(NetId id) const {
    assert(frozen_);
    return pins_[static_cast<std::size_t>(id)];
  }
  std::span<const NetPin> sinks(NetId id) const { return pins(id).subspan(has_driver(id)); }
  int degree(NetId id) const { return static_cast<int>(pins(id).size()); }

  // --- macro library / die -------------------------------------------
  MacroLibrary& library() { return library_; }
  const MacroLibrary& library() const { return library_; }
  const MacroDef& macro_def_of(CellId id) const { return library_.def(cell(id).macro_def); }

  void set_die(Die die) { die_ = die; }
  const Die& die() const { return die_; }

  // --- derived stats ---------------------------------------------------
  /// Macro and port cells, ascending.
  const std::vector<CellId>& macros() const { assert(frozen_); return macros_; }
  const std::vector<CellId>& ports() const { assert(frozen_); return ports_; }
  std::size_t macro_count() const { return macros().size(); }
  double total_cell_area() const;  ///< macros + standard cells
  /// Flop and Comb area, summed in CellId order.
  double std_cell_area() const { assert(frozen_); return std_cell_area_; }

  /// Consistency check of a frozen design: ids in range, one driver per
  /// net at most, hierarchy a tree. Empty when valid, else the issue.
  std::string validate() const;

  // Direct (read-only) access for graph construction hot paths.
  const std::vector<Cell>& cells() const { return cells_; }

 private:
  std::string name_;
  std::vector<HierNode> hier_;
  std::vector<Cell> cells_;
  NameBuffer cell_names_, net_names_;
  std::vector<NetPin> driver_;  ///< per net
  std::vector<NetId> sink_net_;  ///< until freeze(): each sink's net and pin, in call order
  std::vector<NetPin> staged_sinks_;
  NetId redriven_net_ = kInvalidId;  ///< the first net given a second driver
  Csr<NetPin> pins_;                 ///< from freeze() on
  Csr<CellId> hier_cells_;
  std::vector<CellId> macros_, ports_;
  double std_cell_area_ = 0.0;
  MacroLibrary library_;
  Die die_;
  bool frozen_ = false;
};

/// Compact adjacency (CSR) over cells derived from the nets, used by the
/// BFS-heavy stages. `out` follows driver->sink direction, `in` reverses.
class CellAdjacency {
 public:
  explicit CellAdjacency(const Design& design);

  std::size_t cell_count() const { return out_.rows(); }

  /// Fan-out cells of `c` (cells driven through any net driven by `c`).
  std::span<const CellId> out(CellId c) const { return out_[static_cast<std::size_t>(c)]; }
  /// Fan-in cells of `c`.
  std::span<const CellId> in(CellId c) const { return in_[static_cast<std::size_t>(c)]; }
  /// Undirected neighbor iteration = out then in.
  template <typename Fn>
  void for_each_neighbor(CellId c, Fn&& fn) const {
    for (const CellId n : out(c)) fn(n);
    for (const CellId n : in(c)) fn(n);
  }

 private:
  Csr<CellId> out_, in_;
};

}  // namespace hidap
