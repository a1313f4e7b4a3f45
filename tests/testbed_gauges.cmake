# A6's merged `sched.utilization` is the mean over its (policy, seed)
# points, so it must lie in (0, 1]. Registry::merge adds gauges: a bench
# that merged each point's utilization would report their sum.
#
# Registered as the `bench.testbed_ops_gauges` ctest by
# bench/CMakeLists.txt:
#
#   cmake -DBIN=<testbed_ops> -DOUT=<json file> -P testbed_gauges.cmake

if(NOT DEFINED BIN OR NOT DEFINED OUT)
  message(FATAL_ERROR
    "usage: cmake -DBIN=... -DOUT=... -P testbed_gauges.cmake")
endif()

execute_process(COMMAND "${BIN}" --jobs 80 --seeds 3,17 --json "${OUT}"
  RESULT_VARIABLE rc OUTPUT_QUIET)
if(NOT rc STREQUAL "0")
  message(FATAL_ERROR "${BIN} exited ${rc}")
endif()
file(READ "${OUT}" json)
string(JSON util GET "${json}" counters gauges sched.utilization)
if(NOT util GREATER 0 OR util GREATER 1)
  message(FATAL_ERROR "sched.utilization = ${util}, want 0 < u <= 1")
endif()
