# Runs one bench binary on bad input and requires what every bench
# promises for it: exit status 2 with a message on stderr, no abort, and
# no file at OUT (the path the case passes as its output file).
#
#   cmake -DOUT=<path> -P cli_reject.cmake -- <binary> <args>...
set(cmd)
set(after_dashes FALSE)
math(EXPR last "${CMAKE_ARGC} - 1")
foreach(i RANGE ${last})
  if(after_dashes)
    list(APPEND cmd "${CMAKE_ARGV${i}}")
  elseif(CMAKE_ARGV${i} STREQUAL "--")
    set(after_dashes TRUE)
  endif()
endforeach()
if(NOT cmd OR NOT OUT)
  message(FATAL_ERROR "usage: cmake -DOUT=<path> -P cli_reject.cmake -- <binary> <args>...")
endif()

file(REMOVE "${OUT}")
execute_process(COMMAND ${cmd} RESULT_VARIABLE status OUTPUT_QUIET ERROR_VARIABLE err)
if(NOT status STREQUAL "2")
  message(FATAL_ERROR "expected exit status 2, got '${status}'\nstderr: ${err}")
endif()
if(err STREQUAL "")
  message(FATAL_ERROR "exit status 2 without a message on stderr")
endif()
if(EXISTS "${OUT}")
  message(FATAL_ERROR "rejected input still wrote ${OUT}")
endif()
message(STATUS "rejected as expected: ${err}")
