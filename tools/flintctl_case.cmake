# Runs one flintctl command line and checks its exit code and output; the
# flintctl.* ctest cases in tools/CMakeLists.txt are built on it.
#
#   cmake -DFLINTCTL=<binary> -DEXPECT_RC=<code> -DEXPECT_REGEX=<regex>
#         -P flintctl_case.cmake -- <flintctl arguments...>
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

execute_process(COMMAND "${FLINTCTL}" ${args}
                RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL EXPECT_RC)
  message(FATAL_ERROR "flintctl ${args}: exit ${rc}, expected ${EXPECT_RC}\n${out}${err}")
endif()
if(NOT "${out}${err}" MATCHES "${EXPECT_REGEX}")
  message(FATAL_ERROR "flintctl ${args}: output does not match '${EXPECT_REGEX}'\n${out}${err}")
endif()
