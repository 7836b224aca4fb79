# Golden end-to-end check for the observability pipeline: a seeded
# recovery run of sim_driver writes a JSONL trace (twice — the two
# captures must be byte-identical), then every trace_report mode runs
# over it and its output is checked for the markers the mode must
# produce (histogram summaries, timeline frames, a reconstructed
# dissemination path).  A seeded streaming capture must carry timeline
# frames as well.
#
# Invoked by ctest (see tools/CMakeLists.txt):
#   cmake -DSIM_DRIVER=<sim_driver> -DTRACE_REPORT=<trace_report>
#         -DWORK_DIR=<scratch dir> -P scripts/trace_report_check.cmake
foreach(var SIM_DRIVER TRACE_REPORT WORK_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "pass -D${var}=...")
  endif()
endforeach()

set(scenario --peers=300 --groups=1 --seed=11 --recovery=true --loss=0.2
    --crash=0.15 --reliable=true)
set(trace_a ${WORK_DIR}/trace_golden_a.jsonl)
set(trace_b ${WORK_DIR}/trace_golden_b.jsonl)

foreach(trace ${trace_a} ${trace_b})
  execute_process(COMMAND ${SIM_DRIVER} ${scenario} --trace_out=${trace}
                  OUTPUT_VARIABLE run_out RESULT_VARIABLE run_rc)
  if(NOT run_rc EQUAL 0)
    message(FATAL_ERROR "recovery capture failed (exit ${run_rc})")
  endif()
endforeach()

# The capture itself must be deterministic before the reports can be.
execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files
                ${trace_a} ${trace_b} RESULT_VARIABLE same_rc)
if(NOT same_rc EQUAL 0)
  message(FATAL_ERROR "two identical captures produced different traces")
endif()

# --trace_out with a worker pool must be refused, not silently dropped.
execute_process(COMMAND ${SIM_DRIVER} ${scenario} --jobs=4
                --trace_out=${WORK_DIR}/trace_golden_reject.jsonl
                OUTPUT_VARIABLE reject_out ERROR_VARIABLE reject_err
                RESULT_VARIABLE reject_rc)
if(reject_rc EQUAL 0)
  message(FATAL_ERROR "--trace_out with --jobs=4 was accepted; it must "
                      "error out")
endif()

# mode -> flags -> substrings that must appear in stdout.
function(check_report label expected)
  execute_process(COMMAND ${TRACE_REPORT} ${ARGN} ${trace_a}
                  OUTPUT_VARIABLE report_out RESULT_VARIABLE report_rc)
  if(NOT report_rc EQUAL 0)
    message(FATAL_ERROR "trace_report ${label} failed (exit ${report_rc})")
  endif()
  foreach(marker ${expected})
    if(NOT report_out MATCHES "${marker}")
      message(FATAL_ERROR "trace_report ${label} output lacks "
                          "'${marker}':\n${report_out}")
    endif()
  endforeach()
  message(STATUS "trace_report ${label}: ok")
endfunction()

check_report(summary "per-phase breakdown;counters")
check_report(histograms
             "sim-time histograms;edge_delay_us;hop_count;end_to_end_delay_us"
             --histograms=true)
check_report(timeline "flight-recorder timeline;messages_sent;frames"
             --timeline=true)
check_report(message "dissemination;published by node;per-hop breakdown;critical path"
             --message=auto)

# Streaming runs arm the flight recorder as recovery runs do: a traced
# flash-crowd capture must render timeline frames, not the empty notice.
set(trace_stream ${WORK_DIR}/trace_golden_streaming.jsonl)
execute_process(COMMAND ${SIM_DRIVER} --peers=300 --groups=1 --seed=1
                --streaming=true --flash-joins=20 --trace_out=${trace_stream}
                OUTPUT_VARIABLE stream_out RESULT_VARIABLE stream_rc)
if(NOT stream_rc EQUAL 0)
  message(FATAL_ERROR "streaming capture failed (exit ${stream_rc})")
endif()
execute_process(COMMAND ${TRACE_REPORT} --timeline=true ${trace_stream}
                OUTPUT_VARIABLE stream_report RESULT_VARIABLE stream_report_rc)
if(NOT stream_report_rc EQUAL 0)
  message(FATAL_ERROR "trace_report streaming timeline failed "
                      "(exit ${stream_report_rc})")
endif()
if(stream_report MATCHES "no timeline frames" OR
   NOT stream_report MATCHES "sim ms" OR
   NOT stream_report MATCHES "messages_sent")
  message(FATAL_ERROR "streaming trace carries no flight-recorder "
                      "timeline:\n${stream_report}")
endif()
message(STATUS "trace_report streaming timeline: ok")

message(STATUS "trace_report golden check passed")
