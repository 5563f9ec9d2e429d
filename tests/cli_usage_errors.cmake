# CLI test: a tool must reject bad input as a usage error — exit status 2
# and a "<tool>: <message>" first line on stderr — never abort.
#
#   cmake -DTOOL=<path to cfsort, cfverify or sim_hotpath> -P cli_usage_errors.cmake
if(NOT TOOL)
  message(FATAL_ERROR "pass -DTOOL=<path to the cfsort, cfverify or sim_hotpath binary>")
endif()
get_filename_component(tool_name "${TOOL}" NAME_WE)

# run_case(<expected first stderr line> <tool args>...)
function(run_case expected)
  execute_process(COMMAND ${TOOL} ${ARGN}
                  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  string(REGEX REPLACE "\n.*" "" first "${err}")
  string(STRIP "${first}" first)
  string(JOIN " " args ${ARGN})
  if(NOT rc STREQUAL "2" OR NOT first STREQUAL expected)
    message(SEND_ERROR "${tool_name} ${args}: want exit 2 and '${expected}', "
                       "got exit '${rc}' and '${first}'")
  else()
    message(STATUS "${tool_name} ${args}: exit 2, '${first}'")
  endif()
endfunction()

if(tool_name STREQUAL "cfsort")
  # A block that does not fit on an SM: rejected before any kernel runs.
  run_case("cfsort: MergeConfig: block does not fit on an SM"
           --device=tiny:8,2 --n=50001)
  # The k = 4 cascade's one buffer at E = 32: (512 + 32) * 32 ints = 68 KiB.
  run_case("cfsort: MultiwayConfig: block does not fit on an SM" --k=4 --e=32 --n=50000)
  run_case("cfsort: generate: negative n" --n=-5)
  run_case("cfsort: MergeConfig: E must be positive" --e=0)
  # The block sort halves the tile: a sort's u must be a power of two.
  run_case("cfsort: MergeConfig: u must be a power of two" --u=96 --n=1000)
  run_case("cfsort: MultiwayConfig: u must be a power of two" --k=4 --u=96 --n=1000)
  # Integer flags are parsed whole: a suffix is an error, not ignored.
  run_case("cfsort: --n: not an integer: '100k'" --n=100k)
  run_case("cfsort: --threads: not an integer: '4x'" --threads=4x)
  # Counts that must be positive: 0 is an error, not "off".
  run_case("cfsort: --segments: out of range: '0'" --segments=0)
  run_case("cfsort: --tune: out of range: '0'" --tune=0)
  run_case("cfsort: --tune: out of range: '-5'" --tune=-5)
  # The kernel graph has one execution policy; its switch is an unknown argument.
  run_case("cfsort: unknown argument: --serial-graph" --serial-graph)
  # Flags that only one pipeline reads are errors elsewhere, not ignored.
  run_case("cfsort: --cf-blocksort requires --op=sort with --algo=cf"
           --algo=baseline --cf-blocksort --n=1000)
  run_case("cfsort: --cf-blocksort requires --op=sort with --algo=cf"
           --algo=bitonic --cf-blocksort --n=1000)
  run_case("cfsort: --cf-blocksort requires --op=sort with --algo=cf"
           --op=permute --cf-blocksort --n=1000)
  run_case("cfsort: --multiway requires --k" --multiway=losertree --n=1000)
elseif(tool_name STREQUAL "cfverify")
  run_case("cfverify: --w: not an integer: 'abc'" --w=abc --e=4)
  run_case("cfverify: --w: not an integer: '8x'" --w=8x --e=4)
  run_case("cfverify: verify_family: need w > 0 and 1 < E <= w" --w=8 --e=1)
  run_case("cfverify: verify_family: need w > 0 and 1 < E <= w" --w=8 --e=9)
  run_case("cfverify: verify_bitonic: warp width must be a power of two"
           --widths=3 --quiet)
  run_case("cfverify: refute_multiway_direct: need w > 0 and 1 < E <= w"
           --widths=0 --quiet)
  run_case("cfverify: --widths: not an integer: 'x'" --widths=x)
  # Widths past the simulator's 64 lanes are rejected up front, before any
  # lane-indexed table is touched.
  run_case("cfverify: verify_family: w must be <= 64" --w=200 --e=4 --quiet)
  run_case("cfverify: verify_family: w must be <= 64" --widths=128 --quiet)
  run_case("cfverify: --ks: every arity must be a power of two in [2, 16]" --ks=32)
  # The legacy cf_gather-only fork is gone; its flag is an unknown argument.
  run_case("cfverify: unknown argument: --no-primitives" --no-primitives)
elseif(tool_name STREQUAL "sim_hotpath")
  # The bench harness parses its integer flags whole before any case runs.
  run_case("sim_hotpath: --threads: not an integer: 'abc'" --threads=abc)
  run_case("sim_hotpath: --threads: not an integer: '4x'" --threads=4x)
  run_case("sim_hotpath: --threads: out of range: '-1'" --threads=-1)
  run_case("sim_hotpath: --repeats: not an integer: 'x'" --repeats=x)
else()
  message(FATAL_ERROR "no usage-error cases for '${tool_name}'")
endif()
