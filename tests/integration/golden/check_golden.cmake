# Golden-output check, run as a ctest entry:
#
#   cmake -DTOOL=<binary> -DARGS=<flag string> -DOUTPUT=<produced files>
#         -DGOLDEN=<checked-in files> -DTHREADS=<pool size> -P check_golden.cmake
#
# Runs the tool with SMR_THREADS pinned (so the same entry can exercise a
# 1-thread and a 16-thread pool) and fails unless every produced file is
# byte-identical to its checked-in golden.  OUTPUT and GOLDEN are
# ;-separated lists of equal length, paired in order.  Regenerate goldens by running
# the same tool command manually and copying the output over — but a
# legitimate regeneration should be rare and deliberate: these files pin
# the simulator's bit-for-bit reproducibility.
foreach(var TOOL ARGS OUTPUT GOLDEN THREADS)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "check_golden.cmake: missing -D${var}")
  endif()
endforeach()

separate_arguments(tool_args NATIVE_COMMAND "${ARGS}")
set(ENV{SMR_THREADS} "${THREADS}")
execute_process(COMMAND ${TOOL} ${tool_args}
  RESULT_VARIABLE run_rc OUTPUT_QUIET ERROR_VARIABLE run_err)
if(NOT run_rc EQUAL 0)
  message(FATAL_ERROR "${TOOL} exited ${run_rc}: ${run_err}")
endif()

list(LENGTH OUTPUT output_count)
list(LENGTH GOLDEN golden_count)
if(NOT output_count EQUAL golden_count)
  message(FATAL_ERROR "check_golden.cmake: ${output_count} outputs but "
    "${golden_count} goldens")
endif()
math(EXPR last "${output_count} - 1")
foreach(i RANGE ${last})
  list(GET OUTPUT ${i} output)
  list(GET GOLDEN ${i} golden)
  execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files ${output} ${golden}
    RESULT_VARIABLE diff_rc)
  if(NOT diff_rc EQUAL 0)
    message(FATAL_ERROR
      "${output} differs from golden ${golden} (SMR_THREADS=${THREADS}); "
      "the simulation is no longer bit-for-bit reproducible")
  endif()
endforeach()
