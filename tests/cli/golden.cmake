# CLI golden checks, run as
#   cmake -DCLI=<hetsched_cli> -DSOURCE_DIR=<repo> -DWORK_DIR=<scratch dir>
#         -DCASE=<case> -P golden.cmake
#
# Cases:
#   scenario_dag, scenario_portfolio
#       `scenario --report-deterministic --report-out --windows-out` on the
#       smoke scenario equals its checked-in goldens, with and without
#       --checkpoint-out
#   sweep_supervised
#       a supervised sweep (--cell-retries 2) writes the same windows JSONL
#       and deterministic report as the plain sweep
#   compare
#       `compare --arrivals 300 --scale 0.25` stdout equals the fixture
#       tests/cli/compare.stdout
#   metrics_dag
#       `scenario --metrics-out` on the DAG smoke scenario equals the
#       fixture tests/cli/dag_smoke.metrics.json
#   compare_observed
#       `compare --arrivals 300 --scale 0.25 --trace-out --metrics-out`
#       writes the same trace and metrics at --threads 1 and 4: the
#       metrics equal tests/cli/compare.metrics.json (as do those of a
#       --metrics-out run without a trace at --threads 4), the trace
#       hashes to kCompareTraceSha256
cmake_minimum_required(VERSION 3.20)

set(scenarios "${SOURCE_DIR}/examples/scenarios")
file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")

function(run_cli)
  execute_process(COMMAND "${CLI}" ${ARGN}
                  WORKING_DIRECTORY "${WORK_DIR}"
                  RESULT_VARIABLE status
                  OUTPUT_FILE "${WORK_DIR}/stdout.txt"
                  ERROR_VARIABLE errors)
  if(NOT status EQUAL 0)
    message(FATAL_ERROR "hetsched_cli ${ARGN} exited ${status}: ${errors}")
  endif()
endfunction()

function(expect_same actual expected)
  execute_process(COMMAND "${CMAKE_COMMAND}" -E compare_files
                          "${actual}" "${expected}"
                  RESULT_VARIABLE differs)
  if(differs)
    message(FATAL_ERROR "${actual} differs from ${expected}")
  endif()
endfunction()

if(CASE MATCHES "^scenario_(dag|portfolio)$")
  set(name "${CMAKE_MATCH_1}_smoke")
  set(scn "${scenarios}/${name}.scn")
  foreach(mode plain checkpointed)
    set(extra)
    if(mode STREQUAL "checkpointed")
      set(extra --checkpoint-out "${WORK_DIR}/run.ckpt")
    endif()
    run_cli(scenario --file "${scn}" --report-deterministic
            --report-out "${WORK_DIR}/${mode}.report.json"
            --windows-out "${WORK_DIR}/${mode}.windows.jsonl" ${extra})
    expect_same("${WORK_DIR}/${mode}.report.json"
                "${scenarios}/${name}.report.json")
    expect_same("${WORK_DIR}/${mode}.windows.jsonl"
                "${scenarios}/${name}.windows.jsonl")
  endforeach()
elseif(CASE STREQUAL "sweep_supervised")
  set(grid --file "${scenarios}/streaming_smoke.scn" --sweep-cores 4,6
           --sweep-policies base,optimal,portfolio:optimal+sjf
           --report-deterministic)
  foreach(mode plain supervised)
    set(extra)
    if(mode STREQUAL "supervised")
      set(extra --cell-retries 2)
    endif()
    run_cli(sweep ${grid} ${extra}
            --report-out "${WORK_DIR}/${mode}.report.json"
            --windows-out "${WORK_DIR}/${mode}.windows.jsonl")
  endforeach()
  expect_same("${WORK_DIR}/supervised.report.json"
              "${WORK_DIR}/plain.report.json")
  expect_same("${WORK_DIR}/supervised.windows.jsonl"
              "${WORK_DIR}/plain.windows.jsonl")
elseif(CASE STREQUAL "compare")
  run_cli(compare --arrivals 300 --scale 0.25)
  expect_same("${WORK_DIR}/stdout.txt"
              "${SOURCE_DIR}/tests/cli/compare.stdout")
elseif(CASE STREQUAL "metrics_dag")
  run_cli(scenario --file "${scenarios}/dag_smoke.scn"
          --metrics-out "${WORK_DIR}/metrics.json")
  expect_same("${WORK_DIR}/metrics.json"
              "${SOURCE_DIR}/tests/cli/dag_smoke.metrics.json")
elseif(CASE STREQUAL "compare_observed")
  # SHA-256 of the trace (about 0.5 MB, so not checked in).
  set(kCompareTraceSha256
      48928af4a700e28729ee0ba03535b8d34b5f676851b25e2e015204247729a206)
  foreach(threads 1 4)
    set(out "${WORK_DIR}/t${threads}")
    run_cli(compare --arrivals 300 --scale 0.25 --threads ${threads}
            --trace-out "${out}.trace.json" --metrics-out "${out}.metrics.json")
    file(SHA256 "${out}.trace.json" digest)
    if(NOT digest STREQUAL "${kCompareTraceSha256}")
      message(FATAL_ERROR "${out}.trace.json hashes to ${digest}")
    endif()
    expect_same("${out}.metrics.json"
                "${SOURCE_DIR}/tests/cli/compare.metrics.json")
  endforeach()
  # Counters only, fanned out over the pool with the four systems.
  run_cli(compare --arrivals 300 --scale 0.25 --threads 4
          --metrics-out "${WORK_DIR}/counters.json")
  expect_same("${WORK_DIR}/counters.json"
              "${SOURCE_DIR}/tests/cli/compare.metrics.json")
else()
  message(FATAL_ERROR "unknown CASE '${CASE}'")
endif()
