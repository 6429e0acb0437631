// Verilog writer byte identity against the ostream writer the block
// writer replaced (kept below as the oracle), on the suite, seeded
// random circuits and a hand-built design of naming and number corners.
// The writer's suite bytes are also pinned by digest in place_digests.

#include <gtest/gtest.h>

#include <cctype>
#include <cstdint>
#include <iomanip>
#include <locale>
#include <ostream>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "gen/circuit_gen.hpp"
#include "gen/suite.hpp"
#include "netlist/verilog_writer.hpp"
#include "util/rng.hpp"

namespace hidap {
namespace {

// The ostream writer, as it was before the block writer: every token
// through operator<< under setprecision(12), names and labels as
// temporary strings. Only the bytes it prints matter here.
namespace ostream_oracle {

enum class PortDir { In, Out };

struct ModulePlan {
  std::vector<std::pair<NetId, PortDir>> ports;
  std::vector<NetId> wires;
};

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

std::vector<ModulePlan> plan_modules(const Design& d) {
  std::vector<ModulePlan> plans(d.hier_count());
  std::vector<int> depth(d.hier_count(), 0);
  for (std::size_t h = 1; h < d.hier_count(); ++h) {
    depth[h] = depth[static_cast<std::size_t>(d.hier(static_cast<HierId>(h)).parent)] + 1;
  }
  for (std::size_t i = 0; i < d.net_count(); ++i) {
    const auto net = static_cast<NetId>(i);
    const std::span<const NetPin> pins = d.pins(net);
    if (pins.empty()) continue;
    HierId anchor = d.cell(pins.front().cell).hier;
    for (const NetPin& p : pins.subspan(1)) anchor = lca(d, anchor, d.cell(p.cell).hier, depth);
    plans[static_cast<std::size_t>(anchor)].wires.push_back(net);
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

std::string macro_pin_name(const MacroDef& def, float dx, float dy) {
  const MacroPin* best = nullptr;
  double best_d2 = 1e-2;
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
  for (const MacroDef& def : d.library().defs()) {
    out << "//HIDAP_MACRO " << def.name << ' ' << def.w << ' ' << def.h << '\n';
    for (const MacroPin& p : def.pins) {
      out << "//HIDAP_PIN " << def.name << ' ' << p.name << ' ' << p.offset.x << ' '
          << p.offset.y << ' ' << p.bits << ' ' << (p.is_output ? 1 : 0) << '\n';
    }
  }
  out << "//HIDAP_DIE " << d.die().w << ' ' << d.die().h << "\n\n";
}

void write_verilog(const Design& design, std::ostream& out) {
  out << std::setprecision(12);
  const std::vector<ModulePlan> plans = plan_modules(design);
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
      out << "  " << (dir == PortDir::Out ? "output" : "input") << ' ' << net_token(net) << ";\n";
    }
    for (const NetId net : plan.wires) out << "  wire " << net_token(net) << ";\n";

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
          out << "  HIDAP_PIN_OUT #(.X(" << (c.fixed_pos ? c.fixed_pos->x : 0.0) << "), .Y("
              << (c.fixed_pos ? c.fixed_pos->y : 0.0) << "))";
          break;
      }
      out << ' ' << sanitize(design.cell_name(cid)) << " (";
      const auto& cc = conns[static_cast<std::size_t>(cid)];
      for (std::size_t i = 0; i < cc.size(); ++i) {
        out << (i ? ", " : "") << '.' << cc[i].pin << '(' << net_token(cc[i].net) << ')';
      }
      out << ");\n";
    }

    for (const HierId child : design.hier(h).children) {
      const ModulePlan& cplan = plans[static_cast<std::size_t>(child)];
      out << "  " << module_name(design, child) << ' ' << sanitize(design.hier(child).name)
          << " (";
      for (std::size_t i = 0; i < cplan.ports.size(); ++i) {
        out << (i ? ", " : "") << '.' << net_token(cplan.ports[i].first) << '('
            << net_token(cplan.ports[i].first) << ')';
      }
      out << ");\n";
    }
    out << "endmodule\n\n";
  }
}

}  // namespace ostream_oracle

std::string written(const Design& design) {
  std::ostringstream out;
  write_verilog(design, out);
  return out.str();
}

std::string oracle(const Design& design) {
  std::ostringstream out;
  ostream_oracle::write_verilog(design, out);
  return out.str();
}

// Index of the first differing byte, for a readable failure.
std::size_t first_difference(std::string_view a, std::string_view b) {
  std::size_t i = 0;
  while (i < a.size() && i < b.size() && a[i] == b[i]) ++i;
  return i;
}

void expect_same_bytes(const Design& design, const std::string& label) {
  const std::string got = written(design);
  const std::string want = oracle(design);
  if (got == want) return;
  const std::size_t at = first_difference(got, want);
  ADD_FAILURE() << label << ": sizes " << got.size() << " vs " << want.size()
                << ", first difference at byte " << at << ":\n  got  "
                << got.substr(at, 80) << "\n  want " << want.substr(at, 80);
}

// Every naming and number corner the writer formats: names that start
// with a digit, are empty, or hold '[', '/', '.' and bytes >= 0x80; a
// cell name and a macro name longer than the writer's block; a macro
// connection at an offset no pin has (written "PIN"); ports without a
// fixed position; doubles that need the exponent form or all 12
// significant digits, and -0.0; a cell on one net twice, a floating
// net, an empty net and cells with no connections.
Design corner_case_design() {
  Design d("9top/x");
  MacroDef ram;
  ram.name = "ram/\x80x.y";
  ram.w = 1.0 / 3.0;
  ram.h = 1e21;
  ram.pins = {{"A[0]", {0.0, 0.5}, 1, false}, {"Q.1", {1.0 / 3.0, 0.5}, 7, true}};
  const MacroDefId ram_id = d.library().add(ram);
  MacroDef wide;
  wide.name = std::string(70000, 'm') + "/\x90";
  wide.w = 123456789012.5;
  wide.h = -0.0;
  const MacroDefId wide_id = d.library().add(wide);

  const HierId unnamed = d.add_hier(d.root(), "");
  const HierId bracket = d.add_hier(unnamed, "u[3]/x.y\xff");
  const HierId digit = d.add_hier(d.root(), "0lead");

  const CellId mem = d.add_cell(bracket, "mem.0", CellKind::Macro, 0.0, ram_id);
  const CellId flop = d.add_cell(unnamed, "", CellKind::Flop, 1.23456789012345);
  const CellId tiny = d.add_cell(digit, "7g[2]", CellKind::Comb, 1e-7);
  const CellId utf8 = d.add_cell(d.root(), "\xc3\xa9t\xe9", CellKind::Comb, -0.0);
  const CellId big = d.add_cell(bracket, "big", CellKind::Comb, 123456789012345.0);
  const CellId pad_in = d.add_cell(d.root(), "pi/n", CellKind::PortIn, 0.0);
  const CellId pad_out = d.add_cell(d.root(), "po", CellKind::PortOut, 0.0);
  const CellId pad_far = d.add_cell(d.root(), "pf", CellKind::PortIn, 0.0);
  const CellId pad_bare = d.add_cell(d.root(), "pb", CellKind::PortOut, 0.0);
  const CellId long_name =
      d.add_cell(digit, std::string(70000, 'x') + "[1]", CellKind::Comb, 2.0);
  d.add_cell(unnamed, "wide0", CellKind::Macro, 0.0, wide_id);
  d.add_cell(digit, "alone", CellKind::Comb, 0.1 + 0.2);

  const NetId n0 = d.add_net("n0");
  d.set_driver(n0, pad_in);
  d.add_sink(n0, mem, 0.0f, 0.5f);
  d.add_sink(n0, flop);
  d.add_sink(n0, tiny);
  const NetId n1 = d.add_net("n1");
  d.set_driver(n1, mem, static_cast<float>(1.0 / 3.0), 0.5f);
  d.add_sink(n1, utf8);
  d.add_sink(n1, pad_out);
  const NetId n2 = d.add_net("n2");
  d.set_driver(n2, flop);
  d.add_sink(n2, mem, 5.0f, 5.0f);
  d.add_sink(n2, big);
  d.add_sink(n2, long_name);
  const NetId floating = d.add_net("floating");
  d.add_sink(floating, tiny);
  d.add_sink(floating, big);
  d.add_net("empty");
  const NetId n5 = d.add_net("n5");
  d.set_driver(n5, tiny);
  d.add_sink(n5, flop);
  d.add_sink(n5, flop);
  d.add_sink(n5, utf8);
  d.add_sink(n5, pad_bare);
  const NetId n6 = d.add_net("n6");
  d.set_driver(n6, long_name);
  d.add_sink(n6, pad_out);
  d.add_sink(n6, mem, 0.0f, 0.5f);
  const NetId n7 = d.add_net("n7");
  d.set_driver(n7, pad_far);
  d.add_sink(n7, big);

  d.set_die(Die{1234.5678901234, 0.000123});
  d.freeze();
  d.set_fixed_pos(pad_out, Point{-0.0, 2.5e-5});
  d.set_fixed_pos(pad_far, Point{0.1 + 0.2, 1e300});
  return d;
}

TEST(VerilogWriter, MatchesOstreamWriterOnSuite) {
  for (int i = 1; i <= 8; ++i) {
    const std::string name = "c" + std::to_string(i);
    expect_same_bytes(generate_circuit(suite_circuit(name, 0.002).spec), name);
  }
}

TEST(VerilogWriter, MatchesOstreamWriterOnRandomCircuits) {
  Rng rng(20261019);
  for (int k = 0; k < 20; ++k) {
    CircuitSpec spec;
    spec.name = "rand" + std::to_string(k);
    spec.target_cells = rng.next_int(200, 3000);
    spec.macro_count = rng.next_int(1, 8);
    spec.subsystems = rng.next_int(1, 4);
    spec.pipeline_depth = rng.next_int(1, 4);
    spec.bus_width = rng.next_int(4, 32);
    spec.comb_depth = rng.next_int(1, 4);
    spec.macro_w = rng.next_double(20.0, 200.0);
    spec.macro_h = rng.next_double(20.0, 200.0);
    spec.avg_cell_area = rng.next_double(0.3, 3.0);
    spec.utilization = rng.next_double(0.4, 0.8);
    spec.seed = rng.next_u64();
    expect_same_bytes(generate_circuit(spec), spec.name);
  }
}

TEST(VerilogWriter, MatchesOstreamWriterOnCornerCases) {
  const Design design = corner_case_design();
  ASSERT_TRUE(design.validate().empty()) << design.validate();
  expect_same_bytes(design, "corner cases");
  const std::string text = written(design);
  EXPECT_NE(text.find(".PIN(n2)"), std::string::npos);
  EXPECT_NE(text.find("module _9top_x ("), std::string::npos);
  EXPECT_NE(text.find("HIDAP_PIN_OUT #(.X(-0), .Y(2.5e-05)) po"), std::string::npos);
  EXPECT_NE(text.find("HIDAP_COMB #(.AREA(1e-07)) _7g_2_"), std::string::npos);
  EXPECT_NE(text.find("HIDAP_DFF #(.AREA(1.23456789012)) _ ("), std::string::npos);
}

// A numeric format that differs from the default in every way it can:
// showpos, fixed, hex integers, three digits, ',' as the decimal point
// and a thousands separator.
struct CommaDecimal : std::numpunct<char> {
  char do_decimal_point() const override { return ','; }
  char do_thousands_sep() const override { return '\''; }
  std::string do_grouping() const override { return "\3"; }
};

TEST(VerilogWriter, OutputIgnoresAndKeepsStreamFormat) {
  const Design design = generate_circuit(suite_circuit("c1", 0.002).spec);
  std::ostringstream out;
  out.imbue(std::locale(std::locale::classic(), new CommaDecimal));
  out << std::showpos << std::fixed << std::hex << std::setprecision(3);
  const std::ios_base::fmtflags flags = out.flags();
  write_verilog(design, out);
  EXPECT_TRUE(out.str() == oracle(design)) << "the output depends on the stream's format";
  EXPECT_EQ(out.flags(), flags);
  EXPECT_EQ(out.precision(), 3);
  EXPECT_EQ(std::use_facet<std::numpunct<char>>(out.getloc()).decimal_point(), ',');
}

}  // namespace
}  // namespace hidap
