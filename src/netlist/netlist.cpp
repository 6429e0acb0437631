#include "netlist/netlist.hpp"

#include <stdexcept>
#include <unordered_set>

#include "util/string_utils.hpp"

namespace hidap {

Design::Design(std::string name) : name_(std::move(name)), net_name_end_{0} {
  hier_.push_back(HierNode{name_, kInvalidId, {}, {}});
}

void Design::reserve(std::size_t cells, std::size_t nets, std::size_t net_name_bytes) {
  cells_.reserve(cells_.size() + cells);
  nets_.reserve(nets_.size() + nets);
  net_name_end_.reserve(net_name_end_.size() + nets);
  net_names_.reserve(net_names_.size() + net_name_bytes);
}

HierId Design::add_hier(HierId parent, std::string name) {
  if (parent < 0 || static_cast<std::size_t>(parent) >= hier_.size()) {
    throw std::out_of_range("add_hier: bad parent");
  }
  const HierId id = static_cast<HierId>(hier_.size());
  hier_.push_back(HierNode{std::move(name), parent, {}, {}});
  hier_[static_cast<std::size_t>(parent)].children.push_back(id);
  return id;
}

std::string Design::hier_path(HierId id) const {
  if (id == root()) return hier_[0].name;
  const HierNode& node = hier(id);
  return join_path(hier_path(node.parent), node.name);
}

CellId Design::add_cell(HierId hier_id, std::string name, CellKind kind, double area,
                        MacroDefId macro_def) {
  if (hier_id < 0 || static_cast<std::size_t>(hier_id) >= hier_.size()) {
    throw std::out_of_range("add_cell: bad hier node");
  }
  const CellId id = static_cast<CellId>(cells_.size());
  Cell c;
  c.name = std::move(name);
  c.kind = kind;
  c.hier = hier_id;
  c.area = area;
  c.macro_def = macro_def;
  if (kind == CellKind::Macro) {
    if (macro_def == kNoMacroDef) throw std::invalid_argument("macro cell without def");
    c.area = library_.def(macro_def).area();
  }
  cells_.push_back(std::move(c));
  hier_[static_cast<std::size_t>(hier_id)].cells.push_back(id);
  return id;
}

std::string Design::cell_path(CellId id) const {
  const Cell& c = cell(id);
  return join_path(hier_path(c.hier), c.name);
}

NetId Design::add_net(std::string_view name) { return add_net({}, name); }

NetId Design::add_net(std::string_view prefix, std::string_view local) {
  const NetId id = static_cast<NetId>(nets_.size());
  nets_.emplace_back();
  net_names_.append(prefix).append(local);
  net_name_end_.push_back(net_names_.size());
  return id;
}

void Design::set_driver(NetId net, CellId cell, float dx, float dy) {
  nets_[static_cast<std::size_t>(net)].driver = NetPin{cell, dx, dy};
}

void Design::add_sink(NetId net, CellId cell, float dx, float dy) {
  nets_[static_cast<std::size_t>(net)].sinks.push_back(NetPin{cell, dx, dy});
}

std::vector<CellId> Design::macros() const {
  std::vector<CellId> out;
  for (std::size_t i = 0; i < cells_.size(); ++i) {
    if (cells_[i].kind == CellKind::Macro) out.push_back(static_cast<CellId>(i));
  }
  return out;
}

std::vector<CellId> Design::ports() const {
  std::vector<CellId> out;
  for (std::size_t i = 0; i < cells_.size(); ++i) {
    if (is_port(cells_[i].kind)) out.push_back(static_cast<CellId>(i));
  }
  return out;
}

std::size_t Design::macro_count() const {
  std::size_t n = 0;
  for (const Cell& c : cells_) n += (c.kind == CellKind::Macro) ? 1 : 0;
  return n;
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
  for (std::size_t i = 0; i < nets_.size(); ++i) {
    const Net& n = nets_[i];
    const auto check = [&](CellId c) {
      return c >= 0 && static_cast<std::size_t>(c) < cells_.size();
    };
    if (n.driver.cell != kInvalidId && !check(n.driver.cell)) {
      return "net " + std::to_string(i) + " has bad driver";
    }
    for (const NetPin& p : n.sinks) {
      if (!check(p.cell)) return "net " + std::to_string(i) + " has bad sink";
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
  const std::size_t n = design.cell_count();
  std::vector<std::uint32_t> out_deg(n, 0), in_deg(n, 0);
  for (const Net& net : design.nets()) {
    if (net.driver.cell == kInvalidId) continue;
    out_deg[static_cast<std::size_t>(net.driver.cell)] +=
        static_cast<std::uint32_t>(net.sinks.size());
    for (const NetPin& s : net.sinks) in_deg[static_cast<std::size_t>(s.cell)] += 1;
  }
  out_start_.assign(n + 1, 0);
  in_start_.assign(n + 1, 0);
  for (std::size_t i = 0; i < n; ++i) {
    out_start_[i + 1] = out_start_[i] + out_deg[i];
    in_start_[i + 1] = in_start_[i] + in_deg[i];
  }
  out_adj_.resize(out_start_[n]);
  in_adj_.resize(in_start_[n]);
  std::vector<std::uint32_t> out_fill(out_start_.begin(), out_start_.end() - 1);
  std::vector<std::uint32_t> in_fill(in_start_.begin(), in_start_.end() - 1);
  for (const Net& net : design.nets()) {
    if (net.driver.cell == kInvalidId) continue;
    const auto d = static_cast<std::size_t>(net.driver.cell);
    for (const NetPin& s : net.sinks) {
      out_adj_[out_fill[d]++] = s.cell;
      in_adj_[in_fill[static_cast<std::size_t>(s.cell)]++] = net.driver.cell;
    }
  }
}

}  // namespace hidap
