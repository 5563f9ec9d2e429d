# CLI test: cfsort must reject bad input as a usage error — exit status 2
# and a "cfsort: <message>" line on stderr — never abort.
#
#   cmake -DCFSORT=<path to cfsort> -P cfsort_usage_errors.cmake
if(NOT CFSORT)
  message(FATAL_ERROR "pass -DCFSORT=<path to the cfsort binary>")
endif()

# run_case(<expected stderr line> <cfsort args>...)
function(run_case expected)
  execute_process(COMMAND ${CFSORT} ${ARGN}
                  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  string(STRIP "${err}" err)
  string(JOIN " " args ${ARGN})
  if(NOT rc STREQUAL "2" OR NOT err STREQUAL expected)
    message(SEND_ERROR "cfsort ${args}: want exit 2 and '${expected}', "
                       "got exit '${rc}' and '${err}'")
  else()
    message(STATUS "cfsort ${args}: exit 2, '${err}'")
  endif()
endfunction()

# A block that does not fit on an SM: rejected before any kernel runs.
run_case("cfsort: MergeConfig: block does not fit on an SM"
         --device=tiny:8,2 --n=50001)
run_case("cfsort: MultiwayConfig: block does not fit on an SM" --k=4 --n=50000)
run_case("cfsort: generate: negative n" --n=-5)
run_case("cfsort: MergeConfig: E must be positive" --e=0)
