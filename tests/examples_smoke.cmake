# Smoke test for the example binaries: each runs with no arguments in a
# fresh working directory of its own, must exit 0 and must write the
# files it announces. verilog_flow's DEF is read back by `hidap_cli eval`.
# Run as `cmake -DEXAMPLES_DIR=... -DHIDAP_CLI=... -DWORK_DIR=...
# -P examples_smoke.cmake`.

foreach(var EXAMPLES_DIR HIDAP_CLI WORK_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "examples_smoke: -D${var}=... is required")
  endif()
endforeach()

file(REMOVE_RECURSE "${WORK_DIR}")

# Runs `command` in WORK_DIR/<dir> and fails on a non-zero exit. Its
# stdout is left in LAST_OUTPUT, its stderr in LAST_ERROR.
function(run_in dir)
  file(MAKE_DIRECTORY "${WORK_DIR}/${dir}")
  execute_process(
    COMMAND ${ARGN}
    WORKING_DIRECTORY "${WORK_DIR}/${dir}"
    RESULT_VARIABLE rv
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)
  message(STATUS "examples_smoke ${dir}: ${out}")
  if(NOT rv EQUAL 0)
    message(FATAL_ERROR "examples_smoke ${dir} failed (exit ${rv}):\n${out}\n${err}")
  endif()
  set(LAST_OUTPUT "${out}" PARENT_SCOPE)
  set(LAST_ERROR "${err}" PARENT_SCOPE)
endfunction()

function(require_file dir path)
  if(NOT EXISTS "${WORK_DIR}/${dir}/${path}")
    message(FATAL_ERROR "examples_smoke: ${dir} did not write ${path}")
  endif()
endfunction()

run_in(quickstart "${EXAMPLES_DIR}/quickstart")
require_file(quickstart quickstart_placement.svg)

run_in(soc_pipeline "${EXAMPLES_DIR}/soc_pipeline")

run_in(dataflow_explorer "${EXAMPLES_DIR}/dataflow_explorer")
require_file(dataflow_explorer dataflow_explorer.svg)

run_in(verilog_flow "${EXAMPLES_DIR}/verilog_flow")
require_file(verilog_flow verilog_flow_input.v)
require_file(verilog_flow verilog_flow_macros.def)
# The DEF must bind every macro of the netlist (hidap_cli eval warns on
# stderr when it does not) and yield metrics.
run_in(verilog_flow ${HIDAP_CLI} eval -i verilog_flow_input.v -p verilog_flow_macros.def)
if(LAST_ERROR MATCHES "warning")
  message(FATAL_ERROR "examples_smoke: eval of the DEF warned:\n${LAST_ERROR}")
endif()
if(NOT LAST_OUTPUT MATCHES "WL ")
  message(FATAL_ERROR "examples_smoke: eval printed no WL metric:\n${LAST_OUTPUT}")
endif()

message(STATUS "examples_smoke: every example ran and wrote its files")
