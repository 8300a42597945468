# Runs one example program with the arguments README.md gives it and
# requires exit status 0 and a line of stdout matching EXPECT (a CMake
# regular expression).
#
#   cmake -DEXPECT=<regex> -P run_example.cmake -- <binary> <args>...
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
if(NOT cmd OR NOT EXPECT)
  message(FATAL_ERROR "usage: cmake -DEXPECT=<regex> -P run_example.cmake -- <binary> <args>...")
endif()

execute_process(COMMAND ${cmd} RESULT_VARIABLE status OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT status STREQUAL "0")
  message(FATAL_ERROR "expected exit status 0, got '${status}'\nstderr: ${err}")
endif()
string(REPLACE "\n" ";" lines "${out}")
set(matched FALSE)
foreach(line IN LISTS lines)
  if(line MATCHES "${EXPECT}")
    set(matched TRUE)
  endif()
endforeach()
if(NOT matched)
  message(FATAL_ERROR "no line of stdout matches '${EXPECT}'\nstdout:\n${out}")
endif()
message(STATUS "ran as expected")
