#include "netlist/verilog_writer.hpp"

#include <cctype>
#include <cmath>
#include <fstream>
#include <iomanip>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <unordered_map>
#include <vector>

#include "util/log.hpp"

namespace hidap {

namespace {

// Direction of a net seen from a hierarchy node's boundary.
enum class PortDir { In, Out };

struct ModulePlan {
  std::vector<std::pair<NetId, PortDir>> ports;  // nets crossing the boundary
  std::vector<NetId> wires;                      // nets declared here (LCA)
};

// Identifier-safe local name for a net inside any module.
std::string net_token(NetId id) { return "n" + std::to_string(id); }

std::string sanitize(std::string_view name) {
  std::string out;
  out.reserve(name.size());
  for (char c : name) {
    out.push_back((std::isalnum(static_cast<unsigned char>(c)) || c == '_') ? c : '_');
  }
  if (out.empty() || std::isdigit(static_cast<unsigned char>(out[0]))) out.insert(out.begin(), '_');
  return out;
}

std::string module_name(const Design& d, HierId h) {
  if (h == d.root()) return sanitize(d.name());
  return sanitize(d.hier(h).name) + "_h" + std::to_string(h);
}

HierId lca(const Design& d, HierId a, HierId b, const std::vector<int>& depth) {
  while (a != b) {
    if (depth[static_cast<std::size_t>(a)] >= depth[static_cast<std::size_t>(b)]) {
      a = d.hier(a).parent;
    } else {
      b = d.hier(b).parent;
    }
  }
  return a;
}

// Finds, for every hierarchy node, which nets must become ports and which
// are declared locally.
std::vector<ModulePlan> plan_modules(const Design& d) {
  std::vector<ModulePlan> plans(d.hier_count());
  std::vector<int> depth(d.hier_count(), 0);  // a parent's id is below its children's
  for (std::size_t h = 1; h < d.hier_count(); ++h) {
    depth[h] = depth[static_cast<std::size_t>(d.hier(static_cast<HierId>(h)).parent)] + 1;
  }
  for (std::size_t i = 0; i < d.net_count(); ++i) {
    const auto net = static_cast<NetId>(i);
    const std::span<const NetPin> pins = d.pins(net);
    if (pins.empty()) continue;
    // LCA of all pin hier nodes.
    HierId anchor = d.cell(pins.front().cell).hier;
    for (const NetPin& p : pins.subspan(1)) anchor = lca(d, anchor, d.cell(p.cell).hier, depth);
    plans[static_cast<std::size_t>(anchor)].wires.push_back(net);
    // Every node on each pin's hier chain below the LCA needs a port for
    // this net. Nets are planned in order, so a node that already has
    // one holds it last.
    for (std::size_t k = 0; k < pins.size(); ++k) {
      for (HierId h = d.cell(pins[k].cell).hier; h != anchor; h = d.hier(h).parent) {
        auto& ports = plans[static_cast<std::size_t>(h)].ports;
        if (ports.empty() || ports.back().first != net) ports.emplace_back(net, PortDir::In);
        if (k == 0 && d.has_driver(net)) ports.back().second = PortDir::Out;
      }
    }
  }
  return plans;
}

// Pin name of a macro connection recovered from its geometric offset.
// NetPin stores offsets as float, MacroDef as double: match the nearest
// pin within a loose micron tolerance (pin pitches are far larger).
std::string macro_pin_name(const MacroDef& def, float dx, float dy) {
  const MacroPin* best = nullptr;
  double best_d2 = 1e-2;  // 0.1 um in each axis, squared
  for (const MacroPin& p : def.pins) {
    const double ex = p.offset.x - dx;
    const double ey = p.offset.y - dy;
    const double d2 = ex * ex + ey * ey;
    if (d2 < best_d2) {
      best_d2 = d2;
      best = &p;
    }
  }
  return best ? best->name : "PIN";
}

void write_macro_header(const Design& d, std::ostream& out) {
  // Macro definitions ride along as structured comments the parser reads
  // back, keeping a netlist file self-contained.
  for (const MacroDef& def : d.library().defs()) {
    out << "//HIDAP_MACRO " << def.name << ' ' << def.w << ' ' << def.h << '\n';
    for (const MacroPin& p : def.pins) {
      out << "//HIDAP_PIN " << def.name << ' ' << p.name << ' ' << p.offset.x << ' '
          << p.offset.y << ' ' << p.bits << ' ' << (p.is_output ? 1 : 0) << '\n';
    }
  }
  out << "//HIDAP_DIE " << d.die().w << ' ' << d.die().h << "\n\n";
}

}  // namespace

void write_verilog(const Design& design, std::ostream& out) {
  out << std::setprecision(12);  // geometry must survive the round trip
  const std::vector<ModulePlan> plans = plan_modules(design);

  // Per-cell connection lists (pin label + net), built in one sweep.
  struct CellConn {
    std::string pin;
    NetId net;
  };
  std::vector<std::vector<CellConn>> conns(design.cell_count());
  std::vector<int> in_count(design.cell_count(), 0), out_count(design.cell_count(), 0);
  for (std::size_t n = 0; n < design.net_count(); ++n) {
    auto label = [&](const NetPin& p, bool driver) {
      const CellKind kind = design.cell(p.cell).kind;
      if (kind == CellKind::Macro) return macro_pin_name(design.macro_def_of(p.cell), p.dx, p.dy);
      const char* prefix = kind == CellKind::Flop ? (driver ? "Q" : "D") : (driver ? "O" : "I");
      int& count = (driver ? out_count : in_count)[static_cast<std::size_t>(p.cell)];
      return prefix + std::to_string(count++);
    };
    const std::span<const NetPin> pins = design.pins(static_cast<NetId>(n));
    const bool driven = design.has_driver(static_cast<NetId>(n));
    for (std::size_t i = 0; i < pins.size(); ++i) {
      conns[static_cast<std::size_t>(pins[i].cell)].push_back(
          {label(pins[i], driven && i == 0), static_cast<NetId>(n)});
    }
  }

  write_macro_header(design, out);

  // Emit child modules before parents (post-order) so the file parses in
  // one pass even though our parser does not require it.
  std::vector<HierId> order;
  std::vector<HierId> stack = {design.root()};
  while (!stack.empty()) {
    const HierId h = stack.back();
    stack.pop_back();
    order.push_back(h);
    for (const HierId c : design.hier(h).children) stack.push_back(c);
  }
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    const HierId h = *it;
    const ModulePlan& plan = plans[static_cast<std::size_t>(h)];
    out << "module " << module_name(design, h) << " (";
    for (std::size_t i = 0; i < plan.ports.size(); ++i) {
      out << (i ? ", " : "") << net_token(plan.ports[i].first);
    }
    out << ");\n";
    for (const auto& [net, dir] : plan.ports) {
      out << "  " << (dir == PortDir::Out ? "output" : "input") << ' '
          << net_token(net) << ";\n";
    }
    for (const NetId net : plan.wires) out << "  wire " << net_token(net) << ";\n";

    // Leaf cells.
    for (const CellId cid : design.cells_of(h)) {
      const Cell& c = design.cell(cid);
      switch (c.kind) {
        case CellKind::Macro:
          out << "  " << sanitize(design.macro_def_of(cid).name);
          break;
        case CellKind::Flop:
          out << "  HIDAP_DFF #(.AREA(" << c.area << "))";
          break;
        case CellKind::Comb:
          out << "  HIDAP_COMB #(.AREA(" << c.area << "))";
          break;
        case CellKind::PortIn:
          out << "  HIDAP_PIN_IN #(.X(" << (c.fixed_pos ? c.fixed_pos->x : 0.0) << "), .Y("
              << (c.fixed_pos ? c.fixed_pos->y : 0.0) << "))";
          break;
        case CellKind::PortOut:
          out << "  HIDAP_PIN_OUT #(.X(" << (c.fixed_pos ? c.fixed_pos->x : 0.0)
              << "), .Y(" << (c.fixed_pos ? c.fixed_pos->y : 0.0) << "))";
          break;
      }
      out << ' ' << sanitize(design.cell_name(cid)) << " (";
      const auto& cc = conns[static_cast<std::size_t>(cid)];
      for (std::size_t i = 0; i < cc.size(); ++i) {
        out << (i ? ", " : "") << '.' << cc[i].pin << '(' << net_token(cc[i].net) << ')';
      }
      out << ");\n";
    }

    // Child instances.
    for (const HierId child : design.hier(h).children) {
      const ModulePlan& cplan = plans[static_cast<std::size_t>(child)];
      out << "  " << module_name(design, child) << ' '
          << sanitize(design.hier(child).name) << " (";
      for (std::size_t i = 0; i < cplan.ports.size(); ++i) {
        out << (i ? ", " : "") << '.' << net_token(cplan.ports[i].first) << '('
            << net_token(cplan.ports[i].first) << ')';
      }
      out << ");\n";
    }
    out << "endmodule\n\n";
  }
}

void write_verilog_file(const Design& design, const std::string& path) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot open for write: " + path);
  write_verilog(design, out);
}

}  // namespace hidap
