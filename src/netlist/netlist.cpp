#include "netlist/netlist.hpp"

#include <stdexcept>

#include "util/string_utils.hpp"

namespace hidap {

Design::Design(std::string name) : name_(std::move(name)) {
  hier_.push_back(HierNode{name_, kInvalidId, {}});
}

void Design::reserve(const DesignSize& more) {
  cells_.reserve(cells_.size() + more.cells);
  cell_names_.reserve(more.cells, more.cell_name_bytes);
  net_names_.reserve(more.nets, more.net_name_bytes);
  driver_.reserve(driver_.size() + more.nets);
  sink_net_.reserve(sink_net_.size() + more.pins);
  staged_sinks_.reserve(staged_sinks_.size() + more.pins);
}

void Design::freeze() {
  if (frozen_) return;
  frozen_ = true;
  // Every driver is emitted before every sink, so the stable sort puts
  // each net's driver first and its sinks after it in call order.
  pins_ = Csr<NetPin>::group(net_count(), [&](auto&& emit) {
    for (std::size_t n = 0; n < driver_.size(); ++n) {
      if (driver_[n].cell != kInvalidId) emit(n, driver_[n]);
    }
    for (std::size_t i = 0; i < sink_net_.size(); ++i) {
      emit(static_cast<std::size_t>(sink_net_[i]), staged_sinks_[i]);
    }
  });
  std::vector<NetId>().swap(sink_net_);
  std::vector<NetPin>().swap(staged_sinks_);
  hier_cells_ = Csr<CellId>::group(hier_.size(), [&](auto&& emit) {
    for (std::size_t i = 0; i < cells_.size(); ++i) {
      emit(static_cast<std::size_t>(cells_[i].hier), static_cast<CellId>(i));
    }
  });
  for (std::size_t i = 0; i < cells_.size(); ++i) {
    const CellKind kind = cells_[i].kind;
    if (kind == CellKind::Macro) macros_.push_back(static_cast<CellId>(i));
    if (is_port(kind)) ports_.push_back(static_cast<CellId>(i));
    if (kind == CellKind::Flop || kind == CellKind::Comb) std_cell_area_ += cells_[i].area;
  }
}

HierId Design::add_hier(HierId parent, std::string name) {
  assert(!frozen_);
  if (parent < 0 || static_cast<std::size_t>(parent) >= hier_.size()) {
    throw std::out_of_range("add_hier: bad parent");
  }
  const HierId id = static_cast<HierId>(hier_.size());
  hier_.push_back(HierNode{std::move(name), parent, {}});
  hier_[static_cast<std::size_t>(parent)].children.push_back(id);
  return id;
}

std::string Design::hier_path(HierId id) const {
  if (id == root()) return hier_[0].name;
  const HierNode& node = hier(id);
  return join_path(hier_path(node.parent), node.name);
}

CellId Design::add_cell(HierId hier_id, std::string_view name, CellKind kind, double area,
                        MacroDefId macro_def) {
  assert(!frozen_);
  if (hier_id < 0 || static_cast<std::size_t>(hier_id) >= hier_.size()) {
    throw std::out_of_range("add_cell: bad hier node");
  }
  if (kind == CellKind::Macro) {
    if (macro_def == kNoMacroDef) throw std::invalid_argument("macro cell without def");
    area = library_.def(macro_def).area();
  }
  const CellId id = static_cast<CellId>(cells_.size());
  cells_.push_back(Cell{kind, hier_id, area, macro_def, std::nullopt});
  cell_names_.push({}, name);
  return id;
}

std::string Design::cell_path(CellId id) const {
  return join_path(hier_path(cell(id).hier), cell_name(id));
}

NetId Design::add_net(std::string_view name) { return add_net({}, name); }

NetId Design::add_net(std::string_view prefix, std::string_view local) {
  assert(!frozen_);
  const NetId id = static_cast<NetId>(net_count());
  net_names_.push(prefix, local);
  driver_.emplace_back();
  return id;
}

void Design::set_driver(NetId net, CellId cell, float dx, float dy) {
  assert(!frozen_);
  if (has_driver(net) && redriven_net_ == kInvalidId) redriven_net_ = net;
  driver_[static_cast<std::size_t>(net)] = NetPin{cell, dx, dy};
}

void Design::add_sink(NetId net, CellId cell, float dx, float dy) {
  assert(!frozen_);
  sink_net_.push_back(net);
  staged_sinks_.push_back(NetPin{cell, dx, dy});
}

double Design::total_cell_area() const {
  double a = 0.0;
  for (const Cell& c : cells_) a += c.area;
  return a;
}

std::string Design::validate() const {
  for (std::size_t i = 0; i < cells_.size(); ++i) {
    const Cell& c = cells_[i];
    if (c.hier < 0 || static_cast<std::size_t>(c.hier) >= hier_.size()) {
      return "cell " + std::to_string(i) + " has bad hier id";
    }
    if (c.kind == CellKind::Macro &&
        (c.macro_def < 0 || static_cast<std::size_t>(c.macro_def) >= library_.size())) {
      return "macro cell " + std::to_string(i) + " has bad macro def";
    }
  }
  if (redriven_net_ != kInvalidId) {
    return "net " + std::to_string(redriven_net_) + " has two drivers";
  }
  for (std::size_t i = 0; i < net_count(); ++i) {
    for (const NetPin& p : pins(static_cast<NetId>(i))) {
      if (p.cell < 0 || static_cast<std::size_t>(p.cell) >= cells_.size()) {
        return "net " + std::to_string(i) + " has a pin on a bad cell";
      }
    }
  }
  // Hierarchy must be a tree rooted at 0.
  for (std::size_t i = 1; i < hier_.size(); ++i) {
    HierId walk = static_cast<HierId>(i);
    std::size_t steps = 0;
    while (walk != 0) {
      if (walk < 0 || static_cast<std::size_t>(walk) >= hier_.size() ||
          ++steps > hier_.size()) {
        return "hier node " + std::to_string(i) + " not reachable from root";
      }
      walk = hier_[static_cast<std::size_t>(walk)].parent;
    }
  }
  return {};
}

CellAdjacency::CellAdjacency(const Design& design) {
  // One (driver, sink) edge per sink of a driven net.
  const auto edges = [&](auto&& edge) {
    for (std::size_t i = 0; i < design.net_count(); ++i) {
      const auto net = static_cast<NetId>(i);
      if (!design.has_driver(net)) continue;
      const CellId d = design.driver(net).cell;
      for (const NetPin& s : design.sinks(net)) edge(d, s.cell);
    }
  };
  const std::size_t n = design.cell_count();
  out_ = Csr<CellId>::group(n, [&](auto&& emit) {
    edges([&](CellId d, CellId s) { emit(static_cast<std::size_t>(d), s); });
  });
  in_ = Csr<CellId>::group(n, [&](auto&& emit) {
    edges([&](CellId d, CellId s) { emit(static_cast<std::size_t>(s), d); });
  });
}

}  // namespace hidap
