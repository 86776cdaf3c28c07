# Run one command line and check how it ends, for CLI ctest entries:
#
#   cmake -DCMD=<exe> "-DARGS=<args>" -DEXPECT=<code> ["-DMATCH=<words>"]
#         -P expect_exit.cmake
#
# ARGS is split like a shell command line. The test passes when the command
# exits with EXPECT and its stdout contains every space-separated word of
# MATCH.
separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND "${CMD}" ${args}
                RESULT_VARIABLE code
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err)
if(NOT code STREQUAL EXPECT)
  message(FATAL_ERROR "${CMD} ${ARGS}: exit ${code}, want ${EXPECT}\n${out}${err}")
endif()
separate_arguments(words UNIX_COMMAND "${MATCH}")
foreach(word IN LISTS words)
  string(FIND "${out}" "${word}" at)
  if(at EQUAL -1)
    message(FATAL_ERROR "${CMD} ${ARGS}: output lacks '${word}'\n${out}")
  endif()
endforeach()
