# Usage-error ctest entries. A binary that refuses its command line prints
# `<binary>: <reason>` and a usage line and exits 2; PASS_REGULAR_EXPRESSION
# alone ignores the exit status, so each entry runs this file as a script
# whose sixth argument (CMAKE_ARGV5) is the binary:
#   cmake -DEXPECT=<regex> -P usage_error.cmake -- <binary> <args>...
if(CMAKE_SCRIPT_MODE_FILE)
  math(EXPR last "${CMAKE_ARGC} - 1")
  foreach(i RANGE 5 ${last})
    list(APPEND command "${CMAKE_ARGV${i}}")
  endforeach()
  execute_process(COMMAND ${command} TIMEOUT 10 RESULT_VARIABLE status
                  OUTPUT_VARIABLE output ERROR_VARIABLE output)
  if(NOT status STREQUAL "2" OR NOT output MATCHES "${EXPECT}")
    message(FATAL_ERROR "exit status ${status} (want 2), output (want "
                        "/${EXPECT}/):\n${output}")
  endif()
  return()
endif()

# add_usage_error_test(<name> <regex> <target> <args>...)
function(add_usage_error_test name expect target)
  add_test(NAME ${name}
           COMMAND ${CMAKE_COMMAND} "-DEXPECT=${expect}"
                   -P ${PROJECT_SOURCE_DIR}/cmake/usage_error.cmake
                   -- $<TARGET_FILE:${target}> ${ARGN})
  set_tests_properties(${name} PROPERTIES TIMEOUT 15)
endfunction()
