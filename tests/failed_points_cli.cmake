# Runs an example whose every point fails, at 1 and at 4 threads,
# and checks that each run still prints its whole table and then
# fails: exit 1, the same stdout at both thread counts with ROWS
# error rows, one warning per failed point on stderr in point order,
# and last one fatal line counting the failed points.
#
#   cmake -DTOOL=<binary> "-DFLAGS=<flags>" -DROWS=<points>
#         -P failed_points_cli.cmake

separate_arguments(flags UNIX_COMMAND "${FLAGS}")
set(outputs "")
foreach(threads 1 4)
    execute_process(
        COMMAND "${TOOL}" ${flags} --threads ${threads}
        RESULT_VARIABLE status
        OUTPUT_VARIABLE out
        ERROR_VARIABLE err)
    if(NOT status EQUAL 1)
        message(FATAL_ERROR "${TOOL} ${FLAGS} --threads ${threads} "
                            "exited ${status}, expected 1:\n${err}")
    endif()
    string(REGEX MATCHALL "[^\n]*!invalid_argument[^\n]*\n" rows "${out}")
    string(REGEX MATCHALL "[^\n]*\n" lines "${err}")
    list(LENGTH rows row_count)
    list(LENGTH lines line_count)
    math(EXPR warning_count "${line_count} - 1")
    if(NOT row_count EQUAL ROWS OR NOT warning_count EQUAL ROWS)
        message(FATAL_ERROR "expected ${ROWS} error rows and ${ROWS} "
                            "warnings, got ${row_count} and "
                            "${warning_count}:\n${out}${err}")
    endif()
    math(EXPR last "${ROWS} - 1")
    foreach(i RANGE ${last})
        list(GET lines ${i} warning)
        if(NOT warning MATCHES "^uatm: warn: point ${i} \\(")
            message(FATAL_ERROR "warning ${i} is not point ${i}'s: "
                                "${warning}")
        endif()
    endforeach()
    list(GET lines ${ROWS} fatal)
    if(NOT fatal STREQUAL
       "uatm: fatal: ${ROWS} of ${ROWS} points failed\n")
        message(FATAL_ERROR "the last line counts no failed points: "
                            "${fatal}")
    endif()
    list(APPEND outputs "${out}")
endforeach()
list(GET outputs 0 serial)
list(GET outputs 1 parallel)
if(NOT serial STREQUAL parallel)
    message(FATAL_ERROR "stdout differs between 1 and 4 threads:\n"
                        "${serial}\n---\n${parallel}")
endif()
