# Golden-output check, run as a ctest entry:
#
#   cmake -DTOOL=<binary> -DARGS=<flag string> -DOUTPUT=<produced files>
#         -DGOLDEN=<checked-in files> -DTHREADS=<pool size>
#         [-DSTDOUT=<file>] -P check_golden.cmake
#
# Runs the tool with SMR_THREADS pinned (so the same entry can exercise a
# 1-thread and a 16-thread pool) and fails unless every produced file is
# byte-identical to its checked-in golden; on a mismatch the message names
# the first differing line and quotes it from both files.  OUTPUT and GOLDEN are
# ;-separated lists of equal length, paired in order.  The tool's stdout is
# discarded unless STDOUT names a file to write it to, which OUTPUT may then
# list.  Regenerate goldens by running
# the same tool command manually and copying the output over — but a
# legitimate regeneration should be rare and deliberate: these files pin
# the simulator's bit-for-bit reproducibility.
# Sets `out` to a description of the first difference between the files
# `a` and `b`: its line and column, and that line of each file (cut at 400
# bytes).  The first differing byte is found by bisecting on prefix
# equality, so large traces cost a few dozen string copies.
function(describe_first_difference a b out)
  file(READ "${a}" text_a)
  file(READ "${b}" text_b)
  string(LENGTH "${text_a}" len_a)
  string(LENGTH "${text_b}" len_b)
  set(lo 0)  # prefixes of length lo are equal
  set(hi ${len_a})
  if(len_b LESS hi)
    set(hi ${len_b})
  endif()
  while(lo LESS hi)
    math(EXPR mid "(${lo} + ${hi} + 1) / 2")
    string(SUBSTRING "${text_a}" 0 ${mid} prefix_a)
    string(SUBSTRING "${text_b}" 0 ${mid} prefix_b)
    if(prefix_a STREQUAL prefix_b)
      set(lo ${mid})
    else()
      math(EXPR hi "${mid} - 1")
    endif()
  endwhile()
  string(SUBSTRING "${text_a}" 0 ${lo} prefix)
  string(REGEX MATCHALL "\n" newlines "${prefix}")
  list(LENGTH newlines line)
  math(EXPR line "${line} + 1")
  string(FIND "${prefix}" "\n" last_newline REVERSE)
  math(EXPR start "${last_newline} + 1")
  math(EXPR column "${lo} - ${start} + 1")
  foreach(side a b)
    string(SUBSTRING "${text_${side}}" ${start} 400 rest)
    string(FIND "${rest}" "\n" end)
    if(end GREATER_EQUAL 0)
      string(SUBSTRING "${rest}" 0 ${end} rest)
    endif()
    set(line_${side} "${rest}")
  endforeach()
  set(${out} "first difference at line ${line}, column ${column}:\n  output: ${line_a}\n  golden: ${line_b}"
    PARENT_SCOPE)
endfunction()

foreach(var TOOL ARGS OUTPUT GOLDEN THREADS)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "check_golden.cmake: missing -D${var}")
  endif()
endforeach()

separate_arguments(tool_args NATIVE_COMMAND "${ARGS}")
set(ENV{SMR_THREADS} "${THREADS}")
if(DEFINED STDOUT)
  execute_process(COMMAND ${TOOL} ${tool_args}
    RESULT_VARIABLE run_rc OUTPUT_FILE "${STDOUT}" ERROR_VARIABLE run_err)
else()
  execute_process(COMMAND ${TOOL} ${tool_args}
    RESULT_VARIABLE run_rc OUTPUT_QUIET ERROR_VARIABLE run_err)
endif()
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
    describe_first_difference("${output}" "${golden}" where)
    message(FATAL_ERROR
      "${output} differs from golden ${golden} (SMR_THREADS=${THREADS}); "
      "the simulation is no longer bit-for-bit reproducible\n${where}")
  endif()
endforeach()
