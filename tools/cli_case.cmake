# Runs one command line and checks its exit code and output; the flintctl.*,
# bench_baseline.* and flint_report.* ctest cases in tools/CMakeLists.txt are
# built on it.
#
#   cmake -DPROGRAM=<binary> -DEXPECT_RC=<code> -DEXPECT_REGEX=<regex>
#         -P cli_case.cmake -- <arguments...>
#
# EXPECT_REGEX must match stdout + stderr.

set(args)
set(seen_separator FALSE)
math(EXPR last "${CMAKE_ARGC} - 1")
foreach(i RANGE 0 ${last})
  if(seen_separator)
    list(APPEND args "${CMAKE_ARGV${i}}")
  elseif("${CMAKE_ARGV${i}}" STREQUAL "--")
    set(seen_separator TRUE)
  endif()
endforeach()

execute_process(COMMAND "${PROGRAM}" ${args}
                RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL EXPECT_RC)
  message(FATAL_ERROR "${PROGRAM} ${args}: exit ${rc}, expected ${EXPECT_RC}\n${out}${err}")
endif()
if(NOT "${out}${err}" MATCHES "${EXPECT_REGEX}")
  message(FATAL_ERROR "${PROGRAM} ${args}: output does not match '${EXPECT_REGEX}'\n${out}${err}")
endif()
