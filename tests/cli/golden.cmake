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
else()
  message(FATAL_ERROR "unknown CASE '${CASE}'")
endif()
