// Steady-state allocation tests for both slicing annealers' move
// engines: after warm-up, propose/commit/rollback cycles of
// IncrementalLayoutEval (layout SA) and IncrementalCurveEval (shape-curve
// SA), including the Polish perturbation that generates each move, must
// not touch the heap, and neither may the shape-curve SA's new-best
// records once its best set is full. The Verilog parse is held to fewer
// allocations than the nets it creates, parsing or generating suite c4
// to a fixed bound far below that, and a spreading pass of the
// evaluation placer to a fixed handful. A counting global operator new,
// private to this test binary (counting_new.cpp), observes every
// allocation.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "floorplan/area_floorplanner.hpp"
#include "floorplan/incremental_eval.hpp"
#include "gen/suite.hpp"
#include "netlist/verilog_parser.hpp"
#include "netlist/verilog_writer.hpp"
#include "place/hpwl.hpp"
#include "place/quadratic_placer.hpp"
#include "util/rng.hpp"

// Counts every global operator new; defined in counting_new.cpp.
extern std::atomic<std::uint64_t> g_allocations;

namespace hidap {
namespace {

constexpr int kWarmupCycles = 2000;
constexpr int kMeasuredCycles = 5000;

// A macro curve like the ones pack_shape_curve hands the layout SA: the
// rect orientations merged with a soft-area sweep.
ShapeCurve macro_curve(Rng& rng, double area) {
  ShapeCurve c = ShapeCurve::for_rect(rng.next_double(10, 60), rng.next_double(10, 60));
  c.merge(ShapeCurve::soft_area(area, 0.4, 2.5, rng.next_int(1, 20)));
  return c;
}

// Runs warm-up cycles, then counts the allocations of the measured ones.
// `propose` must evaluate one perturbed proposal; about nine in ten are
// committed, the rest rolled back, like the annealers' walks.
std::uint64_t measured_allocations(Rng& rng, const std::function<void()>& propose,
                                   const std::function<void()>& commit,
                                   const std::function<void()>& rollback) {
  const auto cycle = [&]() {
    propose();
    if (rng.next_bool(0.9)) {
      commit();
    } else {
      rollback();
    }
  };
  for (int i = 0; i < kWarmupCycles; ++i) cycle();
  const std::uint64_t before = g_allocations.load(std::memory_order_relaxed);
  for (int i = 0; i < kMeasuredCycles; ++i) cycle();
  return g_allocations.load(std::memory_order_relaxed) - before;
}

TEST(SteadyStateAllocation, CountingOperatorNewSeesAllocations) {
  const std::uint64_t before = g_allocations.load(std::memory_order_relaxed);
  void* p = ::operator new(64);
  ::operator delete(p);
  EXPECT_GT(g_allocations.load(std::memory_order_relaxed), before);
}

TEST(SteadyStateAllocation, LayoutEngineMovesDoNotAllocate) {
  for (const int n : {2, 7, 16}) {
    Rng rng(static_cast<std::uint64_t>(n) * 31 + 1);
    std::vector<BudgetBlock> blocks;
    for (int i = 0; i < n; ++i) {
      BudgetBlock b;
      b.at = rng.next_double(2000, 12000);
      b.am = b.at * 0.7;
      if (i % 3 != 2) b.gamma = macro_curve(rng, b.am);  // some pure-soft blocks
      blocks.push_back(b);
    }
    const std::vector<Point> terminals = {{0, 50}, {400, 320}};
    const std::size_t nodes = static_cast<std::size_t>(n) + terminals.size();
    AffinityMatrix affinity(nodes, nodes);
    for (std::size_t i = 0; i < affinity.size(); ++i) {
      for (std::size_t j = i + 1; j < affinity.size(); ++j) {
        if (rng.next_bool(0.4)) affinity.set(i, j, rng.next_double(0.05, 1.0));
      }
    }
    IncrementalLayoutEval eval(blocks, Rect{0, 0, 400, 400}, terminals, affinity,
                               PolishExpression::initial(n));
    Rng move_rng(99);
    const std::function<void(PolishExpression&)> mutate = [&move_rng](PolishExpression& e) {
      for (int tries = 0; tries < 8; ++tries) {
        if (e.perturb(move_rng)) break;
      }
    };
    const std::uint64_t allocations = measured_allocations(
        rng, [&]() { eval.propose(mutate); }, [&]() { eval.commit(); },
        [&]() { eval.rollback(); });
    EXPECT_EQ(allocations, 0u) << "n=" << n;
  }
}

TEST(SteadyStateAllocation, ShapeCurveEngineMovesDoNotAllocate) {
  for (const int n : {2, 6, 16}) {
    Rng rng(static_cast<std::uint64_t>(n) * 17 + 3);
    std::vector<ShapeCurve> leaves;
    for (int i = 0; i < n; ++i) {
      leaves.push_back(i % 2 == 0 ? macro_curve(rng, rng.next_double(500, 4000))
                                  : ShapeCurve::for_rect(rng.next_double(5, 40),
                                                         rng.next_double(5, 40)));
    }
    IncrementalCurveEval eval(leaves, 32, PolishExpression::initial(n));
    Rng move_rng(7);
    const std::function<void(PolishExpression&)> mutate = [&move_rng](PolishExpression& e) {
      for (int tries = 0; tries < 8; ++tries) {
        if (e.perturb(move_rng)) break;
      }
    };
    const std::uint64_t allocations = measured_allocations(
        rng, [&]() { eval.propose(mutate); }, [&]() { eval.commit(); },
        [&]() { eval.rollback(); });
    EXPECT_EQ(allocations, 0u) << "n=" << n;
  }
}

// The shape-curve SA records every new best; the annealer reports one
// only below all earlier ones, so costs fall strictly here too.
TEST(SteadyStateAllocation, NewBestRecordsDoNotAllocateOnceFull) {
  constexpr std::size_t kKeep = 4;
  BestExpressions best(kKeep);
  PolishExpression expr = PolishExpression::initial(12);
  Rng rng(5);
  double cost = 1e6;
  const auto next_best = [&]() {
    while (!expr.perturb(rng)) {
    }
    best.record(cost, expr);
    cost -= 1.0;
  };
  for (std::size_t i = 0; i < kKeep; ++i) next_best();  // warm-up: the set fills
  const std::uint64_t before = g_allocations.load(std::memory_order_relaxed);
  for (int i = 0; i < kMeasuredCycles; ++i) next_best();
  EXPECT_EQ(g_allocations.load(std::memory_order_relaxed) - before, 0u);
  ASSERT_EQ(best.entries().size(), kKeep);
  for (std::size_t i = 0; i < kKeep; ++i) {
    EXPECT_EQ(best.entries()[i].first, cost + 1.0 + static_cast<double>(i));  // lowest first
  }
  EXPECT_EQ(best.entries().front().second.elements(), expr.elements());
}

// Net names live in one design-owned buffer and every store is sized
// from a count before the elaboration fills it, so a parse allocates
// less than once per net (a heap string per net name alone would not).
TEST(SteadyStateAllocation, VerilogParseAllocatesLessThanOncePerNet) {
  std::ostringstream out;
  write_verilog(generate_circuit(suite_circuit("c4", 0.002).spec), out);
  const std::string text = out.str();
  const std::uint64_t before = g_allocations.load(std::memory_order_relaxed);
  const Design design = parse_verilog_string(text);
  const std::uint64_t allocations = g_allocations.load(std::memory_order_relaxed) - before;
  EXPECT_GT(design.net_count(), 40000u);
  EXPECT_LE(allocations, design.net_count());
}

// The frozen Design keeps every net's pins in one array and every cell
// name in one buffer, so building suite c4 allocates per hierarchy node
// and per store, not per net or per pin: about 2.4k allocations to parse
// it and 1.3k to generate it (51k nets). With one sink vector per net
// each took about 47k.
TEST(SteadyStateAllocation, VerilogParseOfSuiteC4AllocatesPerModuleNotPerNet) {
  std::ostringstream out;
  write_verilog(generate_circuit(suite_circuit("c4", 0.002).spec), out);
  const std::string text = out.str();
  const std::uint64_t before = g_allocations.load(std::memory_order_relaxed);
  const Design design = parse_verilog_string(text);
  const std::uint64_t allocations = g_allocations.load(std::memory_order_relaxed) - before;
  EXPECT_GT(design.net_count(), 40000u);
  EXPECT_LE(allocations, 4000u);
}

// Spreading keeps its bins' stacks in flat arrays (a head per bin, a
// link per cluster) and its snapshot in three more, so a call allocates
// a fixed handful of buffers (eight); one vector per bin made this call
// allocate 787 times.
TEST(SteadyStateAllocation, SpreadClustersAllocatesAFixedHandful) {
  const Design design = generate_circuit(suite_circuit("c1", 0.002).spec);
  const HierTree ht(design);
  const auto model = std::make_shared<const CellPlacementModel>(design, ht);
  const PlacementResult unplaced;
  const PlacedDesign placed(model, unplaced);
  const std::vector<double> capacity = bin_capacity(placed, model->options());
  const std::vector<Point> solved = initial_solve(model, unplaced);
  std::vector<Point> pos = solved;
  spread_clusters(model->die(), model->clustering().clusters, capacity, pos, model->options());
  pos = solved;
  const std::uint64_t before = g_allocations.load(std::memory_order_relaxed);
  spread_clusters(model->die(), model->clustering().clusters, capacity, pos, model->options());
  EXPECT_LE(g_allocations.load(std::memory_order_relaxed) - before, 12u);
}

// A placement resolves its fixed sources once, when it is built, so
// measuring HPWL walks the net template without a buffer of its own; a
// per-call position vector fails this.
TEST(SteadyStateAllocation, TotalHpwlAllocatesNothing) {
  const Design design = generate_circuit(suite_circuit("c1", 0.002).spec);
  const HierTree ht(design);
  const auto model = std::make_shared<const CellPlacementModel>(design, ht);
  PlacementResult macros;
  for (const CellId m : design.macros()) {
    const MacroDef& def = design.macro_def_of(m);
    macros.macros.push_back({m, Rect{0.0, 0.0, def.w, def.h}, Orientation::R0});
  }
  const PlacedDesign placed = place_cells(model, macros);
  ASSERT_GT(model->fixed_sources().size(), 0u);
  const double first = total_hpwl(placed).total_um;
  const std::uint64_t before = g_allocations.load(std::memory_order_relaxed);
  const double again = total_hpwl(placed).total_um;
  EXPECT_EQ(g_allocations.load(std::memory_order_relaxed) - before, 0u);
  EXPECT_EQ(again, first);
}

// The writer formats into one buffer per task of a bounded round and
// keeps every cell's connections in one array, so writing suite c4
// allocates per hierarchy node (its module plan), per store and per
// pool dispatch, not per cell or connection; a heap string per token
// and a vector per cell made it 83k allocations.
TEST(SteadyStateAllocation, WriteVerilogAllocatesPerModule) {
  const Design design = generate_circuit(suite_circuit("c4", 0.002).spec);
  std::ostringstream out;
  const std::uint64_t before = g_allocations.load(std::memory_order_relaxed);
  write_verilog(design, out);
  const std::uint64_t allocations = g_allocations.load(std::memory_order_relaxed) - before;
  EXPECT_GT(design.cell_count(), 30000u);
  EXPECT_LT(allocations, 64 * design.hier_count());
}

// The generator counts the design, reserves every store once and keeps
// each bus as an id range, so generating suite c4 allocates per
// hierarchy node and first-use metric handle: 152-158, where a vector per
// register array made it about 1.3k.
TEST(SteadyStateAllocation, GenerateOfSuiteC4AllocatesPerModuleNotPerNet) {
  const CircuitSpec spec = suite_circuit("c4", 0.002).spec;
  const std::uint64_t before = g_allocations.load(std::memory_order_relaxed);
  const Design design = generate_circuit(spec);
  const std::uint64_t allocations = g_allocations.load(std::memory_order_relaxed) - before;
  EXPECT_GT(design.net_count(), 40000u);
  EXPECT_LE(allocations, 175u);
}

}  // namespace
}  // namespace hidap
