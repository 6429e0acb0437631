// Google-benchmark kernel timings for the library's hot paths: Verilog
// parsing and writing, circuit generation, array clustering, shape
// curve composition, budget layout, Polish-expression moves, Gseq extraction, multi-source BFS
// (target-area assignment), affinity inference, full per-level layout
// annealing, one node's shape-curve packing, macro flipping, the
// evaluation placer (solve, spreading, wirelength), and the parallel
// runtime (fork-join overhead, parallel_for scaling).

#include <benchmark/benchmark.h>

#include <chrono>
#include <memory>
#include <numeric>
#include <sstream>
#include <utility>

#include "bench_common.hpp"
#include "core/dataflow_inference.hpp"
#include "core/decluster.hpp"
#include "core/hidap.hpp"
#include "core/layout_optimizer.hpp"
#include "core/macro_flipping.hpp"
#include "core/recursive_floorplan.hpp"
#include "core/target_area.hpp"
#include "dataflow/seq_extract.hpp"
#include "floorplan/area_floorplanner.hpp"
#include "floorplan/budget_layout.hpp"
#include "floorplan/incremental_eval.hpp"
#include "gen/suite.hpp"
#include "netlist/array_naming.hpp"
#include "netlist/verilog_parser.hpp"
#include "netlist/verilog_writer.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "place/hpwl.hpp"
#include "place/quadratic_placer.hpp"
#include "runtime/thread_pool.hpp"
#include "util/failpoint.hpp"
#include "util/log.hpp"
#include "util/rng.hpp"

namespace {

using namespace hidap;

const Design& medium_design() {
  static Design* d = [] {
    set_log_level(LogLevel::Warn);
    CircuitSpec spec = fig1_spec();
    spec.target_cells = 20000;
    spec.macro_count = 24;
    spec.subsystems = 3;
    return new Design(generate_circuit(spec));
  }();
  return *d;
}

// c4 of the suite at scale 0.002 (the benchmark workloads' size), as
// generated and as its Verilog text.
const Design& c4_design() {
  static const Design d = [] {
    set_log_level(LogLevel::Warn);
    return generate_circuit(suite_circuit("c4", 0.002).spec);
  }();
  return d;
}

const std::string& c4_verilog() {
  static const std::string text = [] {
    std::ostringstream out;
    write_verilog(c4_design(), out);
    return out.str();
  }();
  return text;
}

// The cold-path netlist read, bytes/s over the Verilog text.
void BM_ParseVerilog(benchmark::State& state) {
  const std::string& text = c4_verilog();
  for (auto _ : state) {
    benchmark::DoNotOptimize(parse_verilog_string(text));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(text.size()));
}
BENCHMARK(BM_ParseVerilog)->Unit(benchmark::kMillisecond);

// The netlist write of the same design, bytes/s over the text it writes.
// The argument is the lanes of the pool the writer formats on.
void BM_WriteVerilog(benchmark::State& state) {
  const Design& design = c4_design();
  ThreadPool pool(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    std::ostringstream out;
    write_verilog(design, out, pool);
    benchmark::DoNotOptimize(out);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(c4_verilog().size()));
}
BENCHMARK(BM_WriteVerilog)->Arg(1)->Arg(2)->Arg(4)->UseRealTime()->Unit(benchmark::kMillisecond);

// Circuit generation: suite c4 at scale 0.002 (the benchmark workloads'
// size, no filler) and c1 at 0.1 (mostly filler modules). Reports
// cells/s.
void BM_GenerateCircuit(benchmark::State& state, const char* circuit, double scale) {
  const CircuitSpec spec = suite_circuit(circuit, scale).spec;
  std::size_t cells = 0;
  for (auto _ : state) {
    const Design design = generate_circuit(spec);
    cells = design.cell_count();
    benchmark::DoNotOptimize(cells);
  }
  state.counters["cells_per_s"] = benchmark::Counter(
      static_cast<double>(cells) * static_cast<double>(state.iterations()),
      benchmark::Counter::kIsRate);
}
BENCHMARK_CAPTURE(BM_GenerateCircuit, c4_0_002, "c4", 0.002)->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_GenerateCircuit, c1_0_1, "c1", 0.1)->Unit(benchmark::kMillisecond);

// Array clustering (Gseq step 2) of c4: generated names ("q[3]") group
// into arrays; names read back from Verilog are sanitized ("q_3_") and
// stay singletons.
void BM_ClusterArrays(benchmark::State& state, bool from_verilog) {
  static const Design parsed = parse_verilog_string(c4_verilog());
  const Design& design = from_verilog ? parsed : c4_design();
  for (auto _ : state) {
    benchmark::DoNotOptimize(cluster_arrays(design));
  }
}
BENCHMARK_CAPTURE(BM_ClusterArrays, memory, false)->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_ClusterArrays, verilog, true)->Unit(benchmark::kMillisecond);

void BM_ShapeCurveCompose(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Rng rng(7);
  std::vector<ShapeCurve> leaves;
  for (int i = 0; i < n; ++i) {
    leaves.push_back(ShapeCurve::for_rect(rng.next_double(5, 50), rng.next_double(5, 50)));
  }
  const PolishExpression expr = PolishExpression::initial(n);
  for (auto _ : state) {
    benchmark::DoNotOptimize(compose_curve(leaves, expr, 24));
  }
}
BENCHMARK(BM_ShapeCurveCompose)->Arg(8)->Arg(32)->Arg(128);

// Sweep shape-curve composition at realistic frontier sizes
// (aspect-swept staircases like the ones pack_shape_curve and
// budget_compose_info shuttle around; exactly p points each).
ShapeCurve compose_bench_curve(int p, std::uint64_t seed) {
  Rng rng(seed);
  return ShapeCurve::soft_area(rng.next_double(800, 3000), 0.25, 4.0, p);
}

void BM_ComposeSweep(benchmark::State& state) {
  const int p = static_cast<int>(state.range(0));
  const ShapeCurve a = compose_bench_curve(p, 21);
  const ShapeCurve b = compose_bench_curve(p, 22);
  ShapeCurve out;
  for (auto _ : state) {
    ShapeCurve::compose_horizontal(a, b, out);
    benchmark::DoNotOptimize(out.points().data());
    ShapeCurve::compose_vertical(a, b, out);
    benchmark::DoNotOptimize(out.points().data());
  }
}
BENCHMARK(BM_ComposeSweep)->Arg(16)->Arg(32)->Arg(64);

void BM_BudgetLayout(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Rng rng(11);
  std::vector<BudgetBlock> blocks;
  for (int i = 0; i < n; ++i) {
    BudgetBlock b;
    b.at = rng.next_double(50, 200);
    b.am = b.at * 0.8;
    if (i % 2 == 0) b.gamma = ShapeCurve::for_rect(rng.next_double(3, 10), rng.next_double(3, 10));
    blocks.push_back(b);
  }
  PolishExpression expr = PolishExpression::initial(n);
  for (int i = 0; i < 50; ++i) expr.perturb(rng);
  const Rect budget{0, 0, 100, 100};
  for (auto _ : state) {
    benchmark::DoNotOptimize(budget_layout(expr, blocks, budget));
  }
}
BENCHMARK(BM_BudgetLayout)->Arg(8)->Arg(16)->Arg(32);

void BM_PolishPerturb(benchmark::State& state) {
  Rng rng(3);
  PolishExpression expr = PolishExpression::initial(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    expr.perturb(rng);
    benchmark::DoNotOptimize(expr);
  }
}
BENCHMARK(BM_PolishPerturb)->Arg(16)->Arg(64);

void BM_CellAdjacencyBuild(benchmark::State& state) {
  const Design& d = medium_design();
  for (auto _ : state) {
    CellAdjacency adj(d);
    benchmark::DoNotOptimize(adj);
  }
}
BENCHMARK(BM_CellAdjacencyBuild);

void BM_SeqExtraction(benchmark::State& state) {
  const Design& d = medium_design();
  const CellAdjacency adj(d);
  for (auto _ : state) {
    benchmark::DoNotOptimize(extract_seq_graph(d, adj));
  }
}
BENCHMARK(BM_SeqExtraction);

void BM_TargetAreaBfs(benchmark::State& state) {
  const Design& d = medium_design();
  const CellAdjacency adj(d);
  const HierTree ht(d);
  const double area = ht.area(ht.root());
  const Declustering dec =
      hierarchical_declustering(ht, ht.root(), 0.01 * area, 0.4 * area);
  TargetAreaScratch scratch(d.cell_count());
  for (auto _ : state) {
    benchmark::DoNotOptimize(assign_target_areas(d, adj, ht, ht.root(), dec.hcb, scratch));
  }
}
BENCHMARK(BM_TargetAreaBfs);

void BM_DataflowInference(benchmark::State& state) {
  const Design& d = medium_design();
  const CellAdjacency adj(d);
  const HierTree ht(d);
  const SeqGraph seq = extract_seq_graph(d, adj);
  const double area = ht.area(ht.root());
  const Declustering dec =
      hierarchical_declustering(ht, ht.root(), 0.01 * area, 0.4 * area);
  const HiDaPOptions opts;
  const EstimateSnapshot est(ht);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        infer_level_dataflow(d, ht, seq, ht.root(), dec.hcb, est, opts));
  }
}
BENCHMARK(BM_DataflowInference);

// Shared setup for the layout SA kernels: n blocks shaped like the ones
// recursive_floorplan hands to optimize_layout at the default bench
// scale -- multi-point Pareto shape curves from the bottom-up area
// floorplanner (not bare rectangles) and a moderately dense inferred
// affinity. The caller owns the returned matrix.
struct LayoutBenchProblem {
  LayoutProblem problem;
  AffinityMatrix affinity{0, 0};
};

LayoutBenchProblem make_layout_problem(int n) {
  Rng rng(5);
  LayoutBenchProblem lp;
  lp.problem.region = {0, 0, 400, 400};
  const auto nodes = static_cast<std::size_t>(n);
  lp.affinity = AffinityMatrix(nodes, nodes);
  for (int i = 0; i < n; ++i) {
    BudgetBlock b;
    b.at = rng.next_double(2000, 12000);
    b.am = b.at * 0.7;
    // A composed macro curve: the rect orientations plus the soft-area
    // sweep, like pack_shape_curve produces for a cluster.
    b.gamma = ShapeCurve::for_rect(rng.next_double(20, 60), rng.next_double(20, 60));
    b.gamma.merge(ShapeCurve::soft_area(b.am, 0.4, 2.5, 16));
    lp.problem.blocks.push_back(b);
    for (int j = 0; j < i; ++j) {
      if (j == i - 1 || rng.next_bool(0.25)) {
        lp.affinity.set(static_cast<std::size_t>(j), static_cast<std::size_t>(i),
                        rng.next_double(0.05, 1.0));
      }
    }
  }
  return lp;
}

void BM_LayoutAnneal(benchmark::State& state) {
  LayoutBenchProblem lp = make_layout_problem(static_cast<int>(state.range(0)));
  lp.problem.affinity = &lp.affinity;
  AnnealOptions a;
  a.moves_per_temperature = 50;
  a.cooling = 0.8;
  a.max_stagnant_temperatures = 3;
  for (auto _ : state) {
    benchmark::DoNotOptimize(optimize_layout(lp.problem, a));
  }
}
// Args 2 and 3 end early once every expression has been proposed (the
// annealers' exhaustion exit); 6 and 12 run the whole schedule.
BENCHMARK(BM_LayoutAnneal)->Arg(2)->Arg(3)->Arg(6)->Arg(12)->Unit(benchmark::kMillisecond);

// One hierarchy node's shape-curve SA at the benches' calibrated effort
// (bench_flow_options): n child curves like the ones
// generate_shape_curves packs -- two-orientation macro rects and pruned
// cluster curves that merge a rect with a soft-area sweep.
void BM_PackShapeCurve(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Rng rng(9);
  std::vector<ShapeCurve> leaves;
  for (int i = 0; i < n; ++i) {
    ShapeCurve c = ShapeCurve::for_rect(rng.next_double(20, 60), rng.next_double(20, 60));
    if (i % 2 == 1) {
      c.merge(ShapeCurve::soft_area(rng.next_double(2000, 9000), 0.4, 2.5, 16));
      c.prune(32);
    }
    leaves.push_back(std::move(c));
  }
  AreaFloorplanOptions fp = benchutil::bench_flow_options().hidap.shape_fp;
  fp.anneal.seed = 3;
  for (auto _ : state) {
    benchmark::DoNotOptimize(pack_shape_curve(leaves, fp));
  }
}
BENCHMARK(BM_PackShapeCurve)->Arg(4)->Arg(8)->Arg(16)->Unit(benchmark::kMillisecond);

// Macro flipping over the eight Table III topologies at the benchmark
// workloads' size (scale 0.002): each design's MacroNets index, region
// tables and macros come from a real HiDaP recursion run, so one call
// is exactly the post-pass place_macros runs. ms_per_call is per design.
void BM_FlipMacros(benchmark::State& state) {
  struct Case {
    Design design;
    std::unique_ptr<PlacementContext> context;
    std::vector<Rect> region;
    std::vector<std::uint8_t> region_valid;
    std::vector<MacroPlacement> macros;
  };
  static const std::vector<Case>* cases = [] {
    set_log_level(LogLevel::Warn);
    auto* out = new std::vector<Case>;
    for (const char* name : {"c1", "c2", "c3", "c4", "c5", "c6", "c7", "c8"}) {
      Case c{generate_circuit(suite_circuit(name, 0.002).spec), nullptr, {}, {}, {}};
      c.context = std::make_unique<PlacementContext>(c.design);
      const HiDaPOptions options;
      RecursiveFloorplanner floorplanner(c.design, c.context->adjacency, c.context->ht,
                                         c.context->seq, options);
      c.macros = floorplanner.run(Rect{0, 0, c.design.die().w, c.design.die().h}).macros;
      c.region = floorplanner.region_of_node();
      c.region_valid = floorplanner.region_valid();
      out->push_back(std::move(c));
    }
    return out;
  }();
  double seconds = 0.0;
  for (auto _ : state) {
    for (const Case& c : *cases) {
      std::vector<MacroPlacement> macros = c.macros;
      const auto start = std::chrono::steady_clock::now();
      benchmark::DoNotOptimize(flip_macros(c.design, c.context->ht, c.context->macro_nets,
                                           c.region, c.region_valid, macros));
      seconds += std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
    }
  }
  const double calls =
      static_cast<double>(state.iterations()) * static_cast<double>(cases->size());
  state.counters["ms_per_call"] = seconds * 1e3 / calls;
}
BENCHMARK(BM_FlipMacros)->Unit(benchmark::kMillisecond);

// --- incremental move evaluation -------------------------------------

// The evaluation kernels cost the same stream of proposals: a walk of
// single-move perturbations in which 19 of every 20 proposals are kept.
// That is the ~95% acceptance the shipped anneal schedules run at; a
// pure rejection ring around a frozen base would flatter caches the real
// walk never warms. Move generation is outside both timed regions, so
// the numbers compare pure move evaluation: full recompute vs the warm
// incremental engine.
bool walk_commits(std::size_t k) { return k % 20 != 19; }

std::vector<PolishExpression> make_move_walk(int n, Rng& rng, PolishExpression& base) {
  base = PolishExpression::initial(n);
  for (int k = 0; k < 50; ++k) base.perturb(rng);  // settle into a random base
  std::vector<PolishExpression> walk;
  PolishExpression current = base;
  for (std::size_t k = 0; k < 640; ++k) {
    PolishExpression e = current;
    for (int tries = 0; tries < 8; ++tries) {
      if (e.perturb(rng)) break;
    }
    if (walk_commits(k)) current = e;
    walk.push_back(std::move(e));
  }
  return walk;
}

// One SA move costed by full recompute: budget_layout from scratch plus
// the O(n^2) affinity scan. The reference the incremental engine must
// beat (and match bit for bit).
void BM_FullEvaluate(benchmark::State& state) {
  LayoutBenchProblem lp = make_layout_problem(static_cast<int>(state.range(0)));
  lp.problem.affinity = &lp.affinity;
  Rng rng(17);
  PolishExpression base;
  const std::vector<PolishExpression> walk =
      make_move_walk(static_cast<int>(lp.problem.blocks.size()), rng, base);
  std::size_t k = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(evaluate_layout_full(lp.problem, walk[k]));
    k = (k + 1) % walk.size();
  }
}
BENCHMARK(BM_FullEvaluate)->Arg(8)->Arg(16)->Arg(32);

// The same proposal stream through IncrementalLayoutEval: only the
// mutated slicing-tree paths recompose their shape curves and only
// relocated blocks refresh their connectivity terms. Kept proposals are
// committed, rejected ones rolled back, as the annealer does.
void BM_IncrementalEvaluate(benchmark::State& state) {
  LayoutBenchProblem lp = make_layout_problem(static_cast<int>(state.range(0)));
  lp.problem.affinity = &lp.affinity;
  Rng rng(17);
  PolishExpression base;
  const std::vector<PolishExpression> walk =
      make_move_walk(static_cast<int>(lp.problem.blocks.size()), rng, base);
  IncrementalLayoutEval eval(lp.problem.blocks, lp.problem.region, lp.problem.terminals,
                             lp.affinity, base);
  std::size_t k = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        eval.propose([&](PolishExpression& expr) { expr = walk[k]; }));
    if (walk_commits(k)) {
      eval.commit();
    } else {
      eval.rollback();
    }
    k = (k + 1) % walk.size();
  }
}
BENCHMARK(BM_IncrementalEvaluate)->Arg(8)->Arg(16)->Arg(32);

// Evaluation placer through a shared per-design model, as compare_flows
// runs it once per sweep: c1 at scale 0.002, with a batch of Arg(0)
// placements (HiDaP placements at seeds 1..Arg(0)) solved together.
// ns_per_link_sweep divides the whole place_cells time (fixed-pin
// resolve, Gauss-Seidel sweeps, spreading) by links x sweeps x
// placements, so it reads per placement at any batch width.
void BM_PlaceCells(benchmark::State& state) {
  static const Design* design = [] {
    set_log_level(LogLevel::Warn);
    return new Design(generate_circuit(suite_circuit("c1", 0.002).spec));
  }();
  static const PlacementContext* context = new PlacementContext(*design);
  static const std::vector<PlacementResult>* sweep = [] {
    auto* out = new std::vector<PlacementResult>;
    for (std::uint64_t seed = 1; seed <= 6; ++seed) {
      HiDaPOptions options;
      options.job.seed = seed;
      out->push_back(place_macros(*design, *context, options));
    }
    return out;
  }();
  const auto width = static_cast<std::size_t>(state.range(0));
  std::vector<const PlacementResult*> batch;
  for (std::size_t k = 0; k < width; ++k) batch.push_back(&(*sweep)[k]);
  const auto model = std::make_shared<const CellPlacementModel>(*design, context->ht);
  double seconds = 0.0;
  for (auto _ : state) {
    const auto start = std::chrono::steady_clock::now();
    const std::vector<PlacedDesign> placed = place_cells(model, batch);
    benchmark::DoNotOptimize(placed.back().cluster_positions().data());
    seconds += std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  }
  const double link_sweeps = static_cast<double>(model->link_count()) * model->sweeps() *
                             static_cast<double>(width);
  state.counters["links"] = static_cast<double>(model->link_count());
  state.counters["ns_per_link_sweep"] =
      seconds * 1e9 / (link_sweeps * static_cast<double>(state.iterations()));
}
BENCHMARK(BM_PlaceCells)->Arg(1)->Arg(3)->Arg(6)->Unit(benchmark::kMillisecond);

// One spreading pass of the evaluation placer on its real input: c1 at
// scale 0.002, the initial solve under a HiDaP placement, the default
// 32 x 32 grid and 200 rounds. rounds_per_call reads the rounds the
// cycle exit leaves to run.
void BM_SpreadClusters(benchmark::State& state) {
  static const Design* design = [] {
    set_log_level(LogLevel::Warn);
    return new Design(generate_circuit(suite_circuit("c1", 0.002).spec));
  }();
  static const PlacementContext* context = new PlacementContext(*design);
  static const PlacementResult* placement =
      new PlacementResult(place_macros(*design, *context, HiDaPOptions{}));
  const auto model = std::make_shared<const CellPlacementModel>(*design, context->ht);
  const PlacedDesign placed(model, *placement);
  const std::vector<double> capacity = bin_capacity(placed, model->options());
  const std::vector<Point> solved = initial_solve(model, *placement);
  obs::Counter& rounds = obs::default_registry().counter("eval.spread_rounds");
  const std::uint64_t before = rounds.value();
  std::vector<Point> pos;
  for (auto _ : state) {
    pos = solved;
    spread_clusters(model->die(), model->clustering().clusters, capacity, pos, model->options());
    benchmark::DoNotOptimize(pos.data());
    benchmark::ClobberMemory();
  }
  state.counters["rounds_per_call"] = static_cast<double>(rounds.value() - before) /
                                      static_cast<double>(state.iterations());
}
BENCHMARK(BM_SpreadClusters)->Unit(benchmark::kMicrosecond);

// Wirelength of one placement of c2 at scale 0.1 (a HiDaP placement)
// over the model's net template (total_hpwl).
void BM_TotalHpwl(benchmark::State& state) {
  static const Design* design = [] {
    set_log_level(LogLevel::Warn);
    return new Design(generate_circuit(suite_circuit("c2", 0.1).spec));
  }();
  static const PlacementContext* context = new PlacementContext(*design);
  static const PlacedDesign* placed = [] {
    const auto model = std::make_shared<const CellPlacementModel>(*design, context->ht);
    return new PlacedDesign(
        place_cells(model, place_macros(*design, *context, HiDaPOptions{})));
  }();
  for (auto _ : state) benchmark::DoNotOptimize(total_hpwl(*placed).total_um);
  state.counters["template_nets"] = static_cast<double>(placed->model().template_nets());
  state.counters["nets"] = static_cast<double>(placed->model().multi_pin_nets());
}
BENCHMARK(BM_TotalHpwl)->Unit(benchmark::kMillisecond);

// --- parallel runtime ------------------------------------------------

// Fork-join cost of an empty parallel_for (pure runtime overhead).
void BM_ParallelForDispatch(benchmark::State& state) {
  ThreadPool pool(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    pool.parallel_for(64, [](std::size_t i) { benchmark::DoNotOptimize(i); });
  }
}
BENCHMARK(BM_ParallelForDispatch)->Arg(1)->Arg(2)->Arg(4);

// parallel_for scaling on a synthetic HPWL-like kernel: per-net
// bounding-box perimeter over random pin clouds, one shard per lane
// writing its own partial sum (the runtime's determinism contract).
void BM_ParallelForHpwlKernel(benchmark::State& state) {
  const int lanes = static_cast<int>(state.range(0));
  constexpr std::size_t kNets = 20000;
  constexpr int kPins = 8;
  static const std::vector<Point>* pins = [] {
    Rng rng(13);
    auto* p = new std::vector<Point>(kNets * kPins);
    for (Point& pt : *p) pt = {rng.next_double(0, 1000), rng.next_double(0, 1000)};
    return p;
  }();
  ThreadPool pool(lanes);
  const std::size_t shards = static_cast<std::size_t>(lanes) * 4;
  const std::size_t per_shard = (kNets + shards - 1) / shards;
  std::vector<double> partial(shards);
  for (auto _ : state) {
    pool.parallel_for(shards, [&](std::size_t s) {
      double sum = 0.0;
      const std::size_t end = std::min(kNets, (s + 1) * per_shard);
      for (std::size_t net = s * per_shard; net < end; ++net) {
        double xmin = 1e30, xmax = -1e30, ymin = 1e30, ymax = -1e30;
        for (int p = 0; p < kPins; ++p) {
          const Point& pt = (*pins)[net * kPins + static_cast<std::size_t>(p)];
          xmin = std::min(xmin, pt.x);
          xmax = std::max(xmax, pt.x);
          ymin = std::min(ymin, pt.y);
          ymax = std::max(ymax, pt.y);
        }
        sum += (xmax - xmin) + (ymax - ymin);
      }
      partial[s] = sum;
    });
    benchmark::DoNotOptimize(
        std::accumulate(partial.begin(), partial.end(), 0.0));
  }
}
BENCHMARK(BM_ParallelForHpwlKernel)->Arg(1)->Arg(2)->Arg(4)->Arg(8);

// --- observability overhead kernels (ISSUE 7 gate: a span site with
// tracing disabled must cost one relaxed load + branch -- i.e. within
// noise of the PR 6 baseline for any instrumented loop).

void BM_ObsSpanDisabled(benchmark::State& state) {
  obs::set_tracing_enabled(false);
  for (auto _ : state) {
    obs::Span span("bench_span", "bench");
    benchmark::DoNotOptimize(&span);
  }
}
BENCHMARK(BM_ObsSpanDisabled);

void BM_ObsSpanEnabled(benchmark::State& state) {
  obs::set_tracing_enabled(true);
  for (auto _ : state) {
    obs::Span span("bench_span", "bench");
    benchmark::DoNotOptimize(&span);
  }
  obs::set_tracing_enabled(false);
  obs::Tracer::instance().clear();
}
BENCHMARK(BM_ObsSpanEnabled);

void BM_ObsCounterAdd(benchmark::State& state) {
  obs::Counter& counter = obs::default_registry().counter("bench.obs_counter");
  for (auto _ : state) {
    counter.add(1);
  }
}
BENCHMARK(BM_ObsCounterAdd)->Threads(1)->Threads(2)->Threads(4);

void BM_ObsHistogramRecord(benchmark::State& state) {
  obs::Histogram& hist = obs::default_registry().histogram(
      "bench.obs_hist", {1, 10, 100, 1000, 10000});
  double v = 0.5;
  for (auto _ : state) {
    hist.record(v);
    v = v < 20000 ? v * 3 : 0.5;
  }
}
BENCHMARK(BM_ObsHistogramRecord)->Threads(1)->Threads(2)->Threads(4);

// --- fail-point overhead kernel (ISSUE 9 gate: a disarmed site must
// cost one relaxed load + branch, same bar as BM_ObsSpanDisabled --
// production code paths carry the sites for free).

void BM_FailpointDisarmed(benchmark::State& state) {
  failpoints::disarm_all();
  for (auto _ : state) {
    HIDAP_FAILPOINT("bench.failpoint");
    benchmark::DoNotOptimize(&state);
  }
}
BENCHMARK(BM_FailpointDisarmed);

}  // namespace

BENCHMARK_MAIN();
