# Compile-fail check behind the status_nodiscard_build ctest.
#
#   cmake -DCXX=<c++ compiler> -DSRC_DIR=<repo>/src -DTU=<dropped_result.cc>
#         -P check_dropped_result.cmake
#
# The seeded TU must fail with one unused-result diagnostic for the dropped
# Status and one for the dropped Result<T>; the consumed form must compile.

function(compile_tu out_var rc_var)
  execute_process(
    COMMAND ${CXX} -std=c++20 -fsyntax-only -Werror=unused-result
            -I${SRC_DIR} ${ARGN} ${TU}
    RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE out)
  set(${out_var} "${out}" PARENT_SCOPE)
  set(${rc_var} "${rc}" PARENT_SCOPE)
endfunction()

compile_tu(out rc -DHISTEST_CONSUME_RESULTS)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "the consumed form of ${TU} does not compile:\n${out}")
endif()

compile_tu(out rc)
if(rc EQUAL 0)
  message(FATAL_ERROR "${TU} drops a Status and a Result<T> and still "
                      "compiled under -Werror=unused-result")
endif()
string(REGEX MATCHALL "[^\n]*unused-result[^\n]*" diags "${out}")
set(status_hit FALSE)
set(result_hit FALSE)
foreach(line IN LISTS diags)
  if(line MATCHES "Status'")
    set(status_hit TRUE)
  elseif(line MATCHES "Result<")
    set(result_hit TRUE)
  endif()
endforeach()
if(NOT status_hit OR NOT result_hit)
  message(FATAL_ERROR "${TU} failed to compile, but not with an "
                      "unused-result diagnostic for both drops:\n${out}")
endif()
message(STATUS "dropped Status and Result<T> rejected")
