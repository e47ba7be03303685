# Malformed-input check, run as a ctest entry:
#
#   cmake -DTOOL=<binary> -DARGS=<flag string> -DEXPECT=<regex> -P check_rejects.cmake
#
# Passes only when the tool exits 1, the code of a clean usage error, and
# its stderr matches EXPECT.  An abort (uncaught exception) or a crash
# exits differently and fails the check.
foreach(var TOOL ARGS EXPECT)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "check_rejects.cmake: missing -D${var}")
  endif()
endforeach()

separate_arguments(tool_args NATIVE_COMMAND "${ARGS}")
execute_process(COMMAND ${TOOL} ${tool_args}
  RESULT_VARIABLE run_rc OUTPUT_QUIET ERROR_VARIABLE run_err)
if(NOT run_rc STREQUAL "1")
  message(FATAL_ERROR "${TOOL} ${ARGS}: expected exit 1, got ${run_rc}: ${run_err}")
endif()
if(NOT run_err MATCHES "${EXPECT}")
  message(FATAL_ERROR "${TOOL} ${ARGS}: stderr does not match '${EXPECT}': ${run_err}")
endif()
