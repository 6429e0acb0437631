// File-based flow: generate a circuit, write it as structural Verilog,
// parse it back (as an external tool would), place macros and write the
// placement as DEF.
//
//   $ ./verilog_flow [netlist.v]     # uses a self-generated netlist when
//                                    # no file is given

#include <cstdio>
#include <string>

#include "core/hidap.hpp"
#include "gen/suite.hpp"
#include "netlist/def_io.hpp"
#include "netlist/verilog_parser.hpp"
#include "netlist/verilog_writer.hpp"
#include "util/log.hpp"

using namespace hidap;

int main(int argc, char** argv) {
  set_log_level(LogLevel::Warn);
  std::string path;
  if (argc > 1) {
    path = argv[1];
  } else {
    // Self-contained demo: emit a netlist file first.
    CircuitSpec spec = fig1_spec();
    spec.target_cells = 5000;
    const Design generated = generate_circuit(spec);
    path = "verilog_flow_input.v";
    write_verilog_file(generated, path);
    std::printf("generated %s (%zu cells)\n", path.c_str(), generated.cell_count());
  }

  std::printf("parsing %s ...\n", path.c_str());
  const Design design = parse_verilog_file(path);
  const std::string issue = design.validate();
  if (!issue.empty()) {
    std::fprintf(stderr, "invalid netlist: %s\n", issue.c_str());
    return 1;
  }
  std::printf("parsed: %zu cells, %zu nets, %zu macros, %zu hierarchy nodes\n",
              design.cell_count(), design.net_count(), design.macro_count(),
              design.hier_count());

  const PlacementResult result = place_macros(design);

  const std::string def_path = "verilog_flow_macros.def";
  write_def_file(design, result, def_path);
  std::printf("placed %zu macros in %.2f s -> %s\n", result.macros.size(),
              result.runtime_seconds, def_path.c_str());
  return 0;
}
