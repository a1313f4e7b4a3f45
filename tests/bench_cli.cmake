# CLI contract of every bench built on bench/harness.hpp: --help exits 0
# and names the bench, an unknown option exits 2, and a malformed or
# out-of-range value exits 2 with a message naming the option (not an
# uncaught exception, and not a precondition deep in the model).
#
# Registered as the `bench.cli` ctest by bench/CMakeLists.txt:
#
#   cmake -DBENCH_DIR=<dir> -DBENCHES=<;-list> -P bench_cli.cmake

if(NOT DEFINED BENCH_DIR OR NOT DEFINED BENCHES)
  message(FATAL_ERROR
    "usage: cmake -DBENCH_DIR=... -DBENCHES=... -P bench_cli.cmake")
endif()

# expect(<bench> <exit code> <text> <args>...): the run exits with the
# code and prints the text (on stdout for exit 0, else on stderr).
function(expect bench want text)
  execute_process(COMMAND "${BENCH_DIR}/${bench}" ${ARGN}
    RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT want EQUAL 0)
    set(out "${err}")
  endif()
  string(FIND "${out}" "${text}" at)
  if(NOT rc STREQUAL want OR at EQUAL -1)
    list(JOIN ARGN " " args)
    message(SEND_ERROR "${bench} ${args}: exit ${rc} (want ${want}) or "
                       "output lacks '${text}':\n${out}")
  endif()
endfunction()

foreach(bench IN LISTS BENCHES)
  expect(${bench} 0 "${bench}" --help)
  expect(${bench} 2 "--no-such-option" --no-such-option)
endforeach()
expect(fig4_mesh_traffic 2 "--jobs" --jobs abc)
expect(fig2_scaling 2 "--n" --n 1000x)
expect(shared_platform 2 "--days" --days -5)
expect(shared_platform 2 "--njobs" --njobs 0)
expect(flit_throughput 2 "--threads" --threads 0)
expect(flit_throughput 2 "--shape" --shape 12)
expect(flit_throughput 2 "--messages" --messages 0)
expect(flit_throughput 2 "--bytes" --bytes 0)
expect(flit_throughput 2 "--bytes" --bytes -1)
expect(flit_throughput 2 "--gap-us" --gap-us -5)
expect(fig4_mesh_traffic 2 "--messages" --messages 0)
expect(fig4_mesh_traffic 2 "--flit-messages" --flit-messages -2)
expect(shared_platform 2 "--io-disks" --io-disks 0)
expect(shared_platform 2 "--node-mtbf-days" --node-mtbf-days -1)
expect(testbed_ops 2 "--jobs" --jobs 0)
expect(testbed_ops 2 "--seeds" --seeds ,)
expect(shared_platform 2 "--node-mtbf-days" --node-mtbf-days 300)
expect(shared_platform 2 "--width" --width 0)
