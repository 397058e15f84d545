# Runs an example whose every point fails, without --fail-fast, and
# checks that the run still prints its whole table: exit 0, ROWS
# error rows on stdout, and one warning per failed point on stderr,
# in point order whatever the thread count.
#
#   cmake -DTOOL=<binary> "-DFLAGS=<flags>" -DROWS=<points>
#         -P failed_points_cli.cmake

separate_arguments(flags UNIX_COMMAND "${FLAGS}")
execute_process(
    COMMAND "${TOOL}" ${flags}
    RESULT_VARIABLE status
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)
if(NOT status EQUAL 0)
    message(FATAL_ERROR "${TOOL} ${FLAGS} exited ${status}, expected "
                        "0:\n${err}")
endif()
string(REGEX MATCHALL "[^\n]*!invalid_argument[^\n]*\n" rows "${out}")
string(REGEX MATCHALL "[^\n]*\n" warnings "${err}")
list(LENGTH rows row_count)
list(LENGTH warnings warning_count)
if(NOT row_count EQUAL ROWS OR NOT warning_count EQUAL ROWS)
    message(FATAL_ERROR "expected ${ROWS} error rows and ${ROWS} "
                        "warnings, got ${row_count} and "
                        "${warning_count}:\n${out}${err}")
endif()
math(EXPR last "${ROWS} - 1")
foreach(i RANGE ${last})
    list(GET warnings ${i} warning)
    if(NOT warning MATCHES "^uatm: warn: point ${i} \\(")
        message(FATAL_ERROR "warning ${i} is not point ${i}'s: "
                            "${warning}")
    endif()
endforeach()
