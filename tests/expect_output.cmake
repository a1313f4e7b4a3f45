# Runs one command and fails unless it exits 0 and its stdout contains
# EXPECT. Registered for the example smoke runs by
# examples/CMakeLists.txt:
#
#   cmake "-DCMD=<program;args...>" "-DEXPECT=<text>" -P expect_output.cmake

if(NOT DEFINED CMD OR NOT DEFINED EXPECT)
  message(FATAL_ERROR
    "usage: cmake -DCMD=... -DEXPECT=... -P expect_output.cmake")
endif()

execute_process(COMMAND ${CMD} RESULT_VARIABLE rc OUTPUT_VARIABLE out)
string(FIND "${out}" "${EXPECT}" at)
if(NOT rc STREQUAL "0" OR at EQUAL -1)
  list(JOIN CMD " " cmd)
  message(FATAL_ERROR "${cmd}: exit ${rc} (want 0) or output lacks "
                      "'${EXPECT}':\n${out}")
endif()
