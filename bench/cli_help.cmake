# Runs one bench binary's --help and requires what every bench promises
# for it: exit status 0, exactly one usage line, and an entry for each
# flag the binary accepts (FLAGS, comma-separated), each listed once and
# no other.
#
#   cmake -DFLAGS=--a,--b -P cli_help.cmake -- <binary> --help
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
if(NOT cmd OR NOT FLAGS)
  message(FATAL_ERROR "usage: cmake -DFLAGS=--a,--b -P cli_help.cmake -- <binary> --help")
endif()

execute_process(COMMAND ${cmd} RESULT_VARIABLE status OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT status STREQUAL "0")
  message(FATAL_ERROR "expected exit status 0, got '${status}'\nstderr: ${err}")
endif()
string(REGEX MATCHALL "(^|\n)usage: " usages "${out}")
list(LENGTH usages n_usages)
if(NOT n_usages EQUAL 1)
  message(FATAL_ERROR "expected one usage line, got ${n_usages}:\n${out}")
endif()
# A flag's entry starts its line with two spaces and the flag.
string(REGEX MATCHALL "(^|\n)  --[a-z-]+" entries "${out}")
set(listed)
foreach(entry IN LISTS entries)
  string(REGEX REPLACE "^\n?  " "" entry "${entry}")
  list(APPEND listed "${entry}")
endforeach()
string(REPLACE "," ";" expected "${FLAGS}")
list(SORT listed)
list(SORT expected)
if(NOT listed STREQUAL expected)
  message(FATAL_ERROR "--help lists '${listed}', expected '${expected}':\n${out}")
endif()
message(STATUS "--help lists exactly: ${listed}")
