# Figure reproduction checks, run as
#   cmake -DBINARY=<bench or example> -DSOURCE_DIR=<repo>
#         -DWORK_DIR=<scratch dir> [-DCSV=<file name>] -P figures.cmake
#
# Runs BINARY with no arguments in WORK_DIR and requires exit status 0.
# With CSV set, the series BINARY writes there must match the committed
# <repo>/<CSV> once every number is rounded half up to 4 decimals (the
# committed series are rounded; the bench writes full precision).
cmake_minimum_required(VERSION 3.20)

file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")

execute_process(COMMAND "${BINARY}"
                WORKING_DIRECTORY "${WORK_DIR}"
                RESULT_VARIABLE status
                OUTPUT_FILE "${WORK_DIR}/stdout.txt"
                ERROR_VARIABLE errors)
if(NOT status EQUAL 0)
  message(FATAL_ERROR "${BINARY} exited ${status}: ${errors}")
endif()

if(NOT CSV)
  return()
endif()

# Rounds the plain decimal `value` half up to 4 places, as I.FFFF.
function(round4 value out)
  if(NOT value MATCHES "^([0-9]+)(\\.([0-9]*))?$")
    message(FATAL_ERROR "${CSV}: '${value}' is not a plain decimal")
  endif()
  set(whole "${CMAKE_MATCH_1}")
  set(digits "${CMAKE_MATCH_3}00000")
  string(SUBSTRING "${digits}" 0 4 kept)
  string(SUBSTRING "${digits}" 4 1 next)
  # The leading 1 keeps math(EXPR) from reading zero-padded digits.
  math(EXPR scaled "${whole} * 10000 + 1${kept} - 10000")
  if(next GREATER_EQUAL 5)
    math(EXPR scaled "${scaled} + 1")
  endif()
  math(EXPR whole "${scaled} / 10000")
  math(EXPR padded "${scaled} % 10000 + 10000")
  string(SUBSTRING "${padded}" 1 4 kept)
  set(${out} "${whole}.${kept}" PARENT_SCOPE)
endfunction()

file(STRINGS "${WORK_DIR}/${CSV}" produced)
file(STRINGS "${SOURCE_DIR}/${CSV}" committed)
list(LENGTH produced produced_rows)
list(LENGTH committed committed_rows)
if(NOT produced_rows EQUAL committed_rows)
  message(FATAL_ERROR "${CSV}: ${produced_rows} rows, committed "
                      "${committed_rows}")
endif()
list(GET produced 0 header)
list(GET committed 0 committed_header)
if(NOT header STREQUAL committed_header)
  message(FATAL_ERROR "${CSV}: header '${header}', committed "
                      "'${committed_header}'")
endif()
math(EXPR last "${produced_rows} - 1")
foreach(row RANGE 1 ${last})
  list(GET produced ${row} line)
  list(GET committed ${row} expected)
  string(REPLACE "," ";" fields "${line}")
  list(POP_FRONT fields rounded)
  foreach(field IN LISTS fields)
    round4("${field}" field)
    string(APPEND rounded ",${field}")
  endforeach()
  if(NOT rounded STREQUAL expected)
    message(FATAL_ERROR "${CSV} row ${row}: '${line}' rounds to "
                        "'${rounded}', committed '${expected}'")
  endif()
endforeach()
