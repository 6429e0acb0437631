// Netlist data-model tests: design building, validation, macro library,
// CSR adjacency, and the frozen pin and cell ranges against a per-net
// reference.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "netlist/netlist.hpp"
#include "util/rng.hpp"

namespace hidap {
namespace {

Design tiny_design() {
  Design d("top");
  const HierId u0 = d.add_hier(d.root(), "u0");
  const MacroDefId m = d.library().add(MacroLibrary::make_sram("M", 10, 8, 16));
  const CellId mac = d.add_cell(u0, "mem", CellKind::Macro, 0.0, m);
  const CellId f0 = d.add_cell(u0, "q[0]", CellKind::Flop, 1.0);
  const CellId c0 = d.add_cell(u0, "g0", CellKind::Comb, 0.8);
  const CellId pi = d.add_cell(d.root(), "in[0]", CellKind::PortIn, 0.0);
  const NetId n0 = d.add_net("n0");
  d.set_driver(n0, pi);
  d.add_sink(n0, c0);
  const NetId n1 = d.add_net("n1");
  d.set_driver(n1, c0);
  d.add_sink(n1, f0);
  const NetId n2 = d.add_net("n2");
  d.set_driver(n2, f0);
  d.add_sink(n2, mac, 0.0f, 2.0f);
  d.freeze();
  return d;
}

TEST(Design, BasicCounts) {
  const Design d = tiny_design();
  EXPECT_EQ(d.cell_count(), 4u);
  EXPECT_EQ(d.net_count(), 3u);
  EXPECT_EQ(d.hier_count(), 2u);
  EXPECT_EQ(d.macro_count(), 1u);
  EXPECT_EQ(d.macros().size(), 1u);
  EXPECT_EQ(d.ports().size(), 1u);
  EXPECT_TRUE(d.validate().empty()) << d.validate();
}

TEST(Design, MacroAreaComesFromLibrary) {
  const Design d = tiny_design();
  const CellId mac = d.macros()[0];
  EXPECT_DOUBLE_EQ(d.cell(mac).area, 80.0);
  EXPECT_DOUBLE_EQ(d.macro_def_of(mac).w, 10.0);
}

TEST(Design, Paths) {
  const Design d = tiny_design();
  EXPECT_EQ(d.hier_path(d.root()), "top");
  EXPECT_EQ(d.hier_path(1), "top/u0");
  EXPECT_EQ(d.cell_path(0), "top/u0/mem");
}

TEST(Design, TotalAreaSumsMacrosAndCells) {
  const Design d = tiny_design();
  EXPECT_DOUBLE_EQ(d.total_cell_area(), 80.0 + 1.0 + 0.8);
}

TEST(Design, MacroWithoutDefThrows) {
  Design d("x");
  EXPECT_THROW(d.add_cell(d.root(), "m", CellKind::Macro, 0.0), std::invalid_argument);
}

TEST(Design, BadHierThrows) {
  Design d("x");
  EXPECT_THROW(d.add_hier(42, "child"), std::out_of_range);
  EXPECT_THROW(d.add_cell(42, "c", CellKind::Comb, 1.0), std::out_of_range);
}

TEST(MacroLibrary, DuplicateNameRejected) {
  MacroLibrary lib;
  lib.add(MacroLibrary::make_sram("A", 4, 4, 8));
  EXPECT_THROW(lib.add(MacroLibrary::make_sram("A", 5, 5, 8)), std::invalid_argument);
  EXPECT_TRUE(lib.contains("A"));
  EXPECT_EQ(lib.id_of("B"), kNoMacroDef);
}

TEST(MacroLibrary, SramPinGeometry) {
  const MacroDef def = MacroLibrary::make_sram("S", 12, 8, 32);
  EXPECT_GE(def.pins.size(), 9u);  // 4 D + 4 Q + ADDR (+ CEN)
  const int q0 = def.pin_index("Q0");
  ASSERT_GE(q0, 0);
  EXPECT_TRUE(def.pins[q0].is_output);
  EXPECT_DOUBLE_EQ(def.pins[q0].offset.x, 12.0);  // right edge
  const int d0 = def.pin_index("D0");
  ASSERT_GE(d0, 0);
  EXPECT_DOUBLE_EQ(def.pins[d0].offset.x, 0.0);  // left edge
  EXPECT_EQ(def.pin_index("NOPE"), -1);
}

TEST(CellAdjacency, ForwardAndReverseEdges) {
  const Design d = tiny_design();
  const CellAdjacency adj(d);
  // Port (cell 3) drives comb (cell 2).
  ASSERT_EQ(adj.out(3).size(), 1u);
  EXPECT_EQ(adj.out(3)[0], 2);
  ASSERT_EQ(adj.in(2).size(), 1u);
  EXPECT_EQ(adj.in(2)[0], 3);
  // Macro (cell 0) has no outgoing edge here, one incoming from flop.
  EXPECT_TRUE(adj.out(0).empty());
  ASSERT_EQ(adj.in(0).size(), 1u);
  EXPECT_EQ(adj.in(0)[0], 1);
}

TEST(CellAdjacency, NeighborIterationCoversBothDirections) {
  const Design d = tiny_design();
  const CellAdjacency adj(d);
  int count = 0;
  adj.for_each_neighbor(1, [&](CellId) { ++count; });  // flop: in comb, out macro
  EXPECT_EQ(count, 2);
}

TEST(Net, DegreeCountsDriverAndSinks) {
  Design d("top");
  const CellId a = d.add_cell(d.root(), "a", CellKind::Comb, 1.0);
  const NetId driven = d.add_net("driven");
  const NetId floating = d.add_net("floating");
  d.add_sink(driven, a);
  d.set_driver(driven, a);
  d.freeze();
  EXPECT_EQ(d.degree(driven), 2);
  EXPECT_EQ(d.degree(floating), 0);
  EXPECT_EQ(d.driver(floating).cell, kInvalidId);
}

TEST(Design, SecondDriverReportedByValidate) {
  Design d("top");
  const CellId a = d.add_cell(d.root(), "a", CellKind::Comb, 1.0);
  const CellId b = d.add_cell(d.root(), "b", CellKind::Comb, 1.0);
  const NetId n = d.add_net("n");
  d.set_driver(n, a);
  EXPECT_TRUE(d.has_driver(n));
  d.set_driver(n, b);
  d.freeze();
  EXPECT_EQ(d.validate(), "net 0 has two drivers");
  EXPECT_EQ(d.driver(n).cell, b);  // the later driver is the one kept
  EXPECT_EQ(d.degree(n), 1);
}

bool same_pin(const NetPin& a, const NetPin& b) {
  return a.cell == b.cell && a.dx == b.dx && a.dy == b.dy;
}

bool same_pins(std::span<const NetPin> got, const std::vector<NetPin>& want) {
  if (got.size() != want.size()) return false;
  for (std::size_t i = 0; i < want.size(); ++i) {
    if (!same_pin(got[i], want[i])) return false;
  }
  return true;
}

// Random builder call sequences replayed into a Design and into a plain
// per-net reference (a driver and a sink vector per net). The sequences mix floating, driver-only and empty nets,
// drivers set after their sinks, a cell sinking one net twice, and
// interleaved nets; even seeds also give some nets a second driver.
class FrozenDesign : public ::testing::TestWithParam<int> {};

TEST_P(FrozenDesign, MatchesPerNetReference) {
  struct RefNet {
    NetPin driver;
    std::vector<NetPin> sinks;
  };
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 104729ULL + 7);
  const bool redrive = GetParam() % 2 == 0;
  Design d("top");
  const MacroDefId ram = d.library().add(MacroLibrary::make_sram("RAM", 4, 4, 8));
  std::vector<HierId> hiers = {d.root()};
  for (int h = 0; h < 5; ++h) {
    hiers.push_back(d.add_hier(hiers[rng.next_below(hiers.size())], "h" + std::to_string(h)));
  }
  std::vector<HierId> cell_hier;
  std::vector<std::string> cell_names;
  std::vector<RefNet> nets;
  bool redriven = false;
  const CellKind kinds[] = {CellKind::Macro, CellKind::Flop, CellKind::Comb, CellKind::PortIn,
                            CellKind::PortOut};
  const auto add_cell = [&] {
    const CellKind kind = kinds[rng.next_below(5)];
    const HierId h = hiers[rng.next_below(hiers.size())];
    cell_names.push_back("c" + std::to_string(cell_names.size()));
    cell_hier.push_back(h);
    d.add_cell(h, cell_names.back(), kind, 1.0, kind == CellKind::Macro ? ram : kNoMacroDef);
  };
  const auto random_pin = [&] {
    const auto cell = static_cast<CellId>(rng.next_below(cell_hier.size()));
    const auto dx = static_cast<float>(rng.next_below(8));
    return NetPin{cell, dx, static_cast<float>(rng.next_below(8))};
  };
  for (int i = 0; i < 4; ++i) add_cell();
  for (int op = 0; op < 3000; ++op) {
    const int pick = static_cast<int>(rng.next_below(100));
    if (pick < 10) {
      add_cell();
    } else if (pick < 25 || nets.empty()) {
      d.add_net("n" + std::to_string(nets.size()));
      nets.emplace_back();
    } else {
      // Recent nets are the busy ones, so pins of several nets interleave.
      const std::size_t span = std::min<std::size_t>(nets.size(), 6);
      const auto n = static_cast<NetId>(nets.size() - 1 - rng.next_below(span));
      RefNet& ref = nets[static_cast<std::size_t>(n)];
      const NetPin p = random_pin();
      if (pick < 40) {
        if (ref.driver.cell != kInvalidId && !redrive) continue;
        redriven = redriven || ref.driver.cell != kInvalidId;
        d.set_driver(n, p.cell, p.dx, p.dy);
        ref.driver = p;
      } else {
        const int times = pick < 45 ? 2 : 1;  // the same cell sinks the net twice
        for (int t = 0; t < times; ++t) {
          d.add_sink(n, p.cell, p.dx, p.dy);
          ref.sinks.push_back(p);
        }
      }
    }
  }
  d.freeze();
  d.freeze();  // idempotent

  ASSERT_EQ(d.net_count(), nets.size());
  std::size_t pins = 0, floating = 0, empty = 0, driver_only = 0;
  for (std::size_t i = 0; i < nets.size(); ++i) {
    SCOPED_TRACE(i);
    const auto n = static_cast<NetId>(i);
    const RefNet& ref = nets[i];
    std::vector<NetPin> all;
    if (ref.driver.cell != kInvalidId) all.push_back(ref.driver);
    all.insert(all.end(), ref.sinks.begin(), ref.sinks.end());
    EXPECT_EQ(d.net_name(n), "n" + std::to_string(i));
    EXPECT_EQ(d.has_driver(n), ref.driver.cell != kInvalidId);
    EXPECT_TRUE(same_pin(d.driver(n), ref.driver));
    EXPECT_TRUE(same_pins(d.sinks(n), ref.sinks));
    EXPECT_TRUE(same_pins(d.pins(n), all));
    EXPECT_EQ(d.degree(n), static_cast<int>(all.size()));
    pins += all.size();
    floating += ref.driver.cell == kInvalidId && !ref.sinks.empty();
    empty += all.empty();
    driver_only += ref.driver.cell != kInvalidId && ref.sinks.empty();
  }
  EXPECT_EQ(d.pin_count(), pins);
  EXPECT_GT(floating, 0u);
  EXPECT_GT(empty, 0u);
  EXPECT_GT(driver_only, 0u);
  EXPECT_EQ(d.validate().find("two drivers") != std::string::npos, redriven);
  if (!redrive) {
    EXPECT_TRUE(d.validate().empty()) << d.validate();
  }

  ASSERT_EQ(d.cell_count(), cell_hier.size());
  for (std::size_t c = 0; c < cell_names.size(); ++c) {
    EXPECT_EQ(d.cell_name(static_cast<CellId>(c)), cell_names[c]);
  }
  for (std::size_t h = 0; h < d.hier_count(); ++h) {
    std::vector<CellId> want;
    for (std::size_t c = 0; c < cell_hier.size(); ++c) {
      if (cell_hier[c] == static_cast<HierId>(h)) want.push_back(static_cast<CellId>(c));
    }
    const std::span<const CellId> got = d.cells_of(static_cast<HierId>(h));
    EXPECT_EQ(std::vector<CellId>(got.begin(), got.end()), want) << "hier " << h;
  }
  std::vector<CellId> macros, ports;
  for (std::size_t c = 0; c < d.cell_count(); ++c) {
    const CellKind kind = d.cell(static_cast<CellId>(c)).kind;
    if (kind == CellKind::Macro) macros.push_back(static_cast<CellId>(c));
    if (is_port(kind)) ports.push_back(static_cast<CellId>(c));
  }
  EXPECT_EQ(d.macros(), macros);
  EXPECT_EQ(d.ports(), ports);
  EXPECT_EQ(d.macro_count(), macros.size());
}

INSTANTIATE_TEST_SUITE_P(Seeds, FrozenDesign, ::testing::Range(1, 9));

}  // namespace
}  // namespace hidap
