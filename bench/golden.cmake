# Golden-stdout check for one paper bench, run as
#   cmake -DBENCH=<binary> -DGOLDEN=<golden .txt> -DACTUAL=<scratch file>
#         -P golden.cmake
# The bench must exit 0 and print exactly the golden file's bytes on
# stdout; on a mismatch its stdout is kept in ACTUAL and diffed against
# the golden.  Re-pin a golden by running the bench into its file
# (docs/BENCHMARKS.md "Golden stdout").
execute_process(COMMAND "${BENCH}"
                OUTPUT_VARIABLE actual
                ERROR_VARIABLE errors
                RESULT_VARIABLE status)
if(NOT status EQUAL 0)
  message(FATAL_ERROR "${BENCH} exited with '${status}'\n${errors}")
endif()
file(READ "${GOLDEN}" expected)
if(NOT actual STREQUAL expected)
  file(WRITE "${ACTUAL}" "${actual}")
  execute_process(COMMAND diff -u "${GOLDEN}" "${ACTUAL}")
  message(FATAL_ERROR "stdout of ${BENCH} differs from ${GOLDEN} "
                      "(diff above; this run's stdout is in ${ACTUAL})")
endif()
