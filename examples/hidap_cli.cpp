// hidap_cli: command-line front end for the whole library.
//
//   hidap_cli place  -i netlist.v -o placed.def [--lambda L] [--k K]
//                    [--seed S] [--halo H] [--effort E] [--svg out.svg]
//                    [--fix preplaced.def]
//   hidap_cli eval   -i netlist.v -p placed.def          # metrics of a DEF
//   hidap_cli flows  -i netlist.v [--csv table.csv]      # 3-flow comparison
//   hidap_cli gen    -o netlist.v [--cells N] [--macros M] [--seed S]
//
// The netlist format is the hidap structural-Verilog subset (see
// verilog_writer.hpp); placements are exchanged as DEF.

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>

#include "core/hidap.hpp"
#include "eval/flows.hpp"
#include "eval/report.hpp"
#include "gen/circuit_gen.hpp"
#include "netlist/def_io.hpp"
#include "netlist/verilog_parser.hpp"
#include "netlist/verilog_writer.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "runtime/thread_pool.hpp"
#include "util/error.hpp"
#include "util/log.hpp"
#include "viz/svg.hpp"

using namespace hidap;

namespace {

// The library's defaults, which the flags below override.
const HiDaPOptions kDefaults;

struct Args {
  std::string command;
  std::string input, output, placement, svg, csv, fix;
  std::string cancel_file;
  std::string trace_json, metrics_json, log_level;
  double lambda = kDefaults.lambda, k = kDefaults.k, halo = kDefaults.macro_halo;
  double effort = 1.0;  ///< HiDaPOptions::scale_effort factor
  double timeout_s = 0.0;
  std::uint64_t seed = kDefaults.job.seed;
  int cells = 20000, macros = 24;
  int threads = kDefaults.num_threads;
  bool phase_summary = false;
};

[[noreturn]] void usage() {
  std::fprintf(stderr,
               "usage: hidap_cli <place|eval|flows|gen> -i <netlist.v> [options]\n"
               "  place: -o out.def [--lambda L] [--k K] [--seed S] [--halo H]\n"
               "         [--effort E] [--svg out.svg] [--fix preplaced.def]\n"
               "         [--timeout-s T] [--cancel-file PATH]\n"
               "         --timeout-s T    stop after T seconds (monotonic deadline);\n"
               "                          a valid partial placement is still written\n"
               "         --cancel-file P  stop when file P appears (polled ~20 ms)\n"
               "         exit status: 0 completed, 3 cancelled via --cancel-file,\n"
               "                      4 deadline expired via --timeout-s\n"
               "  exit status (any command): 5 = input failed to parse (the\n"
               "               message carries the offending file line),\n"
               "               1 = other error, 2 = bad usage\n"
               "  eval:  -p placed.def\n"
               "  flows: [--csv table.csv] [--seed S]\n"
               "  gen:   -o out.v [--cells N] [--macros M] [--seed S]\n"
               "  --threads N  worker lanes for Verilog parse and write,\n"
               "               shape curves, sibling levels and the flows' sweeps\n"
               "               (default: HIDAP_THREADS or hardware concurrency;\n"
               "               results are identical at any N, 1 = sequential)\n"
               "  --log-level {debug,info,warn,error}  console verbosity\n"
               "               (default warn; progress lines are always on)\n"
               "  observability (any command; placements are byte-identical\n"
               "  with tracing on or off):\n"
               "  --trace-json PATH    enable phase tracing, write a Chrome\n"
               "               trace_event JSON (load in Perfetto / about:tracing)\n"
               "  --phase-summary      enable tracing, print per-phase self-time\n"
               "  --metrics-json PATH  write the process metric registry as one\n"
               "               flat JSON object\n");
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  if (argc < 2) usage();
  Args args;
  args.command = argv[1];
  for (int i = 2; i < argc; ++i) {
    const std::string flag = argv[i];
    const auto next = [&]() -> std::string {
      if (++i >= argc) usage();
      return argv[i];
    };
    if (flag == "-i") args.input = next();
    else if (flag == "-o") args.output = next();
    else if (flag == "-p") args.placement = next();
    else if (flag == "--svg") args.svg = next();
    else if (flag == "--csv") args.csv = next();
    else if (flag == "--fix") args.fix = next();
    else if (flag == "--lambda") args.lambda = std::atof(next().c_str());
    else if (flag == "--k") args.k = std::atof(next().c_str());
    else if (flag == "--halo") args.halo = std::atof(next().c_str());
    else if (flag == "--effort") args.effort = std::atof(next().c_str());
    else if (flag == "--timeout-s") args.timeout_s = std::atof(next().c_str());
    else if (flag == "--cancel-file") args.cancel_file = next();
    else if (flag == "--seed") args.seed = std::strtoull(next().c_str(), nullptr, 10);
    else if (flag == "--cells") args.cells = std::atoi(next().c_str());
    else if (flag == "--macros") args.macros = std::atoi(next().c_str());
    else if (flag == "--threads") args.threads = std::atoi(next().c_str());
    else if (flag == "--trace-json") args.trace_json = next();
    else if (flag == "--metrics-json") args.metrics_json = next();
    else if (flag == "--phase-summary") args.phase_summary = true;
    else if (flag == "--log-level") args.log_level = next();
    else usage();
  }
  return args;
}

int cmd_place(const Args& args) {
  if (args.input.empty() || args.output.empty()) usage();
  const Design design = parse_verilog_file(args.input);
  HiDaPOptions options;
  options.lambda = args.lambda;
  options.k = args.k;
  options.macro_halo = args.halo;
  options.job.seed = args.seed;
  options.num_threads = args.threads;
  options.scale_effort(args.effort);
  if (!args.fix.empty()) {
    const DefContents fixed = parse_def_file(args.fix);
    PlacementResult pre;
    apply_def_placement(design, fixed, pre);
    options.job.preplaced = pre.macros;
    std::printf("honoring %zu preplaced macros from %s\n", pre.macros.size(),
                args.fix.c_str());
  }

  // Per-job control handle: deadline armed up front, cancel file polled
  // by a watcher thread. The SA loops check it between moves, so a stop
  // still yields a valid (coarser) placement, written out below.
  JobControl control;
  options.job.control = &control;
  if (args.timeout_s > 0.0) control.set_deadline(Deadline::after_seconds(args.timeout_s));
  std::atomic<bool> job_done{false};
  std::thread watcher;
  if (!args.cancel_file.empty()) {
    watcher = std::thread([&control, &job_done, path = args.cancel_file]() {
      while (!job_done.load(std::memory_order_acquire)) {
        if (std::ifstream(path).good()) {
          control.request_cancel();
          return;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
      }
    });
  }
  const PlacementResult result = place_macros(design, options);
  job_done.store(true, std::memory_order_release);
  if (watcher.joinable()) watcher.join();

  write_def_file(design, result, args.output);
  std::printf("placed %zu macros in %.2f s -> %s [%s]\n", result.macros.size(),
              result.runtime_seconds, args.output.c_str(), to_string(result.status));
  if (!args.svg.empty()) {
    write_placement_svg(design, result, args.svg);
    std::printf("wrote %s\n", args.svg.c_str());
  }
  // Distinct exit codes so scripts can tell a full-quality run from a
  // stopped one (the DEF is valid either way).
  if (result.status == JobStatus::Cancelled) return 3;
  if (result.status == JobStatus::DeadlineExpired) return 4;
  return 0;
}

int cmd_eval(const Args& args) {
  if (args.input.empty() || args.placement.empty()) usage();
  const Design design = parse_verilog_file(args.input);
  const DefContents def = parse_def_file(args.placement);
  PlacementResult placement;
  const std::size_t bound = apply_def_placement(design, def, placement);
  if (bound != design.macro_count()) {
    std::fprintf(stderr, "warning: %zu/%zu macros bound from DEF\n", bound,
                 design.macro_count());
  }
  const PlacementContext context(design);
  const Metrics m =
      evaluate_placement(design, context.ht, context.seq, placement, EvalOptions{});
  std::printf("WL       %.3f m\nGRC      %.2f %%\nWNS      %.1f %%\nTNS      %.0f ns\n",
              m.wl_m, m.grc_percent, m.wns_percent, m.tns_ns);
  return 0;
}

int cmd_flows(const Args& args) {
  if (args.input.empty()) usage();
  const Design design = parse_verilog_file(args.input);
  FlowOptions options;
  options.seed = args.seed;
  options.hidap.num_threads = args.threads;
  const FlowComparison cmp = compare_flows(design, options);
  ReportTable table({"flow", "WL(m)", "norm", "GRC%", "WNS%", "TNS(ns)", "time(s)"});
  for (const Metrics* m : {&cmp.indeda, &cmp.hidap, &cmp.handfp}) {
    table.add_row({m->flow, ReportTable::num(m->wl_m), ReportTable::num(m->wl_norm),
                   ReportTable::num(m->grc_percent, 2), ReportTable::num(m->wns_percent, 1),
                   ReportTable::num(m->tns_ns, 0), ReportTable::num(m->runtime_s, 1)});
  }
  table.print();
  if (!args.csv.empty()) {
    table.write_csv(args.csv);
    std::printf("wrote %s\n", args.csv.c_str());
  }
  return 0;
}

int cmd_gen(const Args& args) {
  if (args.output.empty()) usage();
  CircuitSpec spec;
  spec.name = "gen";
  spec.target_cells = args.cells;
  spec.macro_count = args.macros;
  spec.seed = args.seed;
  const Design design = generate_circuit(spec);
  write_verilog_file(design, args.output);
  std::printf("generated %s: %zu cells, %zu nets, %zu macros\n", args.output.c_str(),
              design.cell_count(), design.net_count(), design.macro_count());
  return 0;
}

}  // namespace

namespace {

// After the command: trace/metric exports requested by the flags. Never
// changes the exit code -- observability output must not fail a script
// whose placement succeeded -- but export errors go to stderr.
void export_observability(const Args& args) {
  if (!args.trace_json.empty()) {
    std::string error;
    if (obs::Tracer::instance().export_chrome_trace(args.trace_json, &error)) {
      std::printf("wrote %s\n", args.trace_json.c_str());
    } else {
      std::fprintf(stderr, "trace export failed: %s\n", error.c_str());
    }
  }
  if (args.phase_summary) {
    std::fputs(obs::phase_summary().c_str(), stdout);
  }
  if (!args.metrics_json.empty()) {
    std::ofstream out(args.metrics_json, std::ios::binary);
    out << obs::default_registry().to_json() << "\n";
    if (out.good()) {
      std::printf("wrote %s\n", args.metrics_json.c_str());
    } else {
      std::fprintf(stderr, "cannot write %s\n", args.metrics_json.c_str());
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  set_log_level(LogLevel::Warn);
  const Args args = parse_args(argc, argv);
  if (!args.log_level.empty()) {
    if (args.log_level == "debug") set_log_level(LogLevel::Debug);
    else if (args.log_level == "info") set_log_level(LogLevel::Info);
    else if (args.log_level == "warn") set_log_level(LogLevel::Warn);
    else if (args.log_level == "error") set_log_level(LogLevel::Error);
    else usage();
  }
  // Tracing must be live before the pool spins up / the command runs so
  // every span and pool task is captured. Placements are byte-identical
  // either way (observability never touches the RNG streams).
  if (!args.trace_json.empty() || args.phase_summary) obs::set_tracing_enabled(true);
  // Size the global pool before any parallel section runs.
  if (args.threads > 0) ThreadPool::set_default_thread_count(args.threads);
  int code = 2;
  try {
    if (args.command == "place") code = cmd_place(args);
    else if (args.command == "eval") code = cmd_eval(args);
    else if (args.command == "flows") code = cmd_flows(args);
    else if (args.command == "gen") code = cmd_gen(args);
    else usage();
  } catch (const HidapError& e) {
    // Typed failures map to documented exit codes: 5 = the input did
    // not parse (bad netlist/DEF, with file line in the message), 1 =
    // everything else (I/O, limits, internal).
    std::fprintf(stderr, "error [%s]: %s\n", to_string(e.code()), e.what());
    return e.code() == ErrorCode::ParseError ? 5 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  export_observability(args);
  return code;
}
