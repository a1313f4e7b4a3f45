# Determinism harness: run one sweep bench twice along an axis and
# require identical results.
#
#   AXIS=jobs (default): --jobs 1 vs --jobs 4. Byte-identical stdout,
#     and (with CHECK_JSON) byte-identical --json metrics modulo the
#     host-dependent wall_time_s field.
#   AXIS=threads: --threads 1 vs --threads 4 (the flit network's
#     sharded scheduler, docs/MODEL.md §11). stdout carries wall-clock
#     columns, so only the --json metrics are compared, after
#     normalizing host-dependent fields (wall/speedup metrics, the
#     "threads" record) and the scheduling diagnostics that are
#     deterministic per thread count but not across thread counts
#     (mesh.flit.{cycles_skipped,ffwd_*,router_visits} and
#     mesh.flit.shard.*). Everything else — sim_time_s, traffic
#     counters, semantic metrics — must be byte-identical.
#
# Invoked by the `determinism`-labelled ctest entries:
#
#   cmake -DBENCH=<binary> -DARGS=<;-list> -DOUT=<scratch dir> -DNAME=<test>
#         [-DCHECK_JSON=1] [-DAXIS=jobs|threads] -P compare_jobs.cmake
#
# Scratch files are keyed on NAME, not on the bench binary: several legs
# run the same bench, and `ctest -j` runs them concurrently.

if(NOT DEFINED BENCH OR NOT DEFINED OUT OR NOT DEFINED NAME)
  message(FATAL_ERROR "usage: cmake -DBENCH=... -DARGS=... -DOUT=... -DNAME=... -P compare_jobs.cmake")
endif()
if(NOT DEFINED ARGS)
  set(ARGS "")
endif()
if(NOT DEFINED AXIS)
  set(AXIS "jobs")
endif()
if(AXIS STREQUAL "threads" AND NOT CHECK_JSON)
  message(FATAL_ERROR "AXIS=threads requires CHECK_JSON (stdout has wall columns)")
endif()

set(name "${NAME}")
file(MAKE_DIRECTORY "${OUT}")

foreach(v 1 4)
  set(cmd "${BENCH}" ${ARGS} --${AXIS} ${v})
  if(CHECK_JSON)
    list(APPEND cmd --json "${OUT}/${name}.${AXIS}${v}.json")
  endif()
  execute_process(
    COMMAND ${cmd}
    OUTPUT_FILE "${OUT}/${name}.${AXIS}${v}.txt"
    RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${name} --${AXIS} ${v} exited with ${rc}")
  endif()
endforeach()

if(AXIS STREQUAL "jobs")
  execute_process(
    COMMAND ${CMAKE_COMMAND} -E compare_files
            "${OUT}/${name}.jobs1.txt" "${OUT}/${name}.jobs4.txt"
    RESULT_VARIABLE diff)
  if(NOT diff EQUAL 0)
    message(FATAL_ERROR
      "${name}: stdout differs between --jobs 1 and --jobs 4 "
      "(${OUT}/${name}.jobs1.txt vs .jobs4.txt)")
  endif()
endif()

if(CHECK_JSON)
  foreach(v 1 4)
    file(READ "${OUT}/${name}.${AXIS}${v}.json" content)
    # wall_time_s is host time and legitimately differs between runs;
    # the recorded parallelism ("threads") is the compared axis itself.
    string(REGEX REPLACE "\"wall_time_s\":[0-9.eE+-]+" "\"wall_time_s\":0"
           content "${content}")
    string(REGEX REPLACE "\"threads\":[0-9]+" "\"threads\":0"
           content "${content}")
    if(AXIS STREQUAL "threads")
      # Host-dependent wall/speedup metrics (key names may embed the
      # thread count, e.g. wall_t4_s).
      string(REGEX REPLACE "\"wall_[a-zA-Z0-9_]*\":[0-9.eE+-]+" "\"wall\":0"
             content "${content}")
      string(REGEX REPLACE "\"speedup[a-zA-Z0-9_]*\":[0-9.eE+-]+"
             "\"speedup\":0" content "${content}")
      # Scheduling diagnostics: deterministic for a fixed thread count,
      # legitimately different across thread counts (a parallel burst
      # steps cycles the sequential scheduler skips or fast-forwards).
      foreach(diag cycles_skipped ffwd_flits ffwd_messages router_visits)
        string(REGEX REPLACE "\"mesh.flit.${diag}\":[0-9]+"
               "\"mesh.flit.${diag}\":0" content "${content}")
      endforeach()
      string(REGEX REPLACE "\"mesh.flit.shard.[a-z_]+\":[0-9]+"
             "\"mesh.flit.shard\":0" content "${content}")
      # Rank-band nx engine (docs/MODEL.md §15): shard diagnostics exist
      # only at --threads > 1, and the engine's queue-depth high-water
      # marks depend on how events split across band-private queues.
      string(REGEX REPLACE "\"engine.shard.[a-z_]+\":[0-9]+,?"
             "" content "${content}")
      foreach(diag peak_queue_depth call_slot_high_water)
        string(REGEX REPLACE "\"core.engine.${diag}\":[0-9]+"
               "\"core.engine.${diag}\":0" content "${content}")
      endforeach()
    endif()
    set(json_v${v} "${content}")
  endforeach()
  if(NOT json_v1 STREQUAL json_v4)
    message(FATAL_ERROR
      "${name}: --json output (incl. counter totals) differs between "
      "--${AXIS} 1 and --${AXIS} 4 "
      "(${OUT}/${name}.${AXIS}1.json vs .${AXIS}4.json)")
  endif()
endif()
