# F1's merged contention gauges over a two-point sweep: the max is the
# larger single-point max (not their sum), and the mean, weighted by
# each point's routed messages, lies between the two point means.
# Registry::merge adds gauges, so fig1_linpack sets both after merging.
#
# Registered as the `bench.fig1_linpack_gauges` ctest by
# bench/CMakeLists.txt:
#
#   cmake -DBIN=<fig1_linpack> -DOUT=<json file prefix> -P fig1_gauges.cmake

if(NOT DEFINED BIN OR NOT DEFINED OUT)
  message(FATAL_ERROR
    "usage: cmake -DBIN=... -DOUT=... -P fig1_gauges.cmake")
endif()

function(contention n out_max out_mean)
  execute_process(COMMAND "${BIN}" --n ${n} --jobs 2 --json "${OUT}-${n}.json"
    RESULT_VARIABLE rc OUTPUT_QUIET)
  if(NOT rc STREQUAL "0")
    message(FATAL_ERROR "${BIN} --n ${n} exited ${rc}")
  endif()
  file(READ "${OUT}-${n}.json" json)
  string(JSON max GET "${json}" counters gauges mesh.contention.us.max)
  string(JSON mean GET "${json}" counters gauges mesh.contention.us.mean)
  set(${out_max} "${max}" PARENT_SCOPE)
  set(${out_mean} "${mean}" PARENT_SCOPE)
endfunction()

contention(500 max_a mean_a)
contention(1000 max_b mean_b)
contention(500,1000 max_ab mean_ab)

if(max_a GREATER max_b)
  set(want "${max_a}")
else()
  set(want "${max_b}")
endif()
if(NOT max_ab STREQUAL want)
  message(FATAL_ERROR
    "merged mesh.contention.us.max = ${max_ab}, want ${want} "
    "(points: ${max_a}, ${max_b})")
endif()
if(mean_a GREATER mean_b)
  set(hi "${mean_a}")
  set(lo "${mean_b}")
else()
  set(hi "${mean_b}")
  set(lo "${mean_a}")
endif()
if(mean_ab LESS lo OR mean_ab GREATER hi)
  message(FATAL_ERROR
    "merged mesh.contention.us.mean = ${mean_ab}, want it in [${lo}, ${hi}]")
endif()
