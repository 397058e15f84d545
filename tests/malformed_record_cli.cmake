# Runs a tool on a document that breaks its schema and checks that
# the tool exits 2, never aborts, and names the offending JSON path.
#
#   cmake -DTOOL=<perf_diff|run_report binary> -DWORK_DIR=<dir>
#         -DNAME=<case> -DDOC=not_an_array|string_median|found
#         -DSIDE=only|before|after "-DFLAGS=<flags>"
#         -P malformed_record_cli.cmake
#
# SIDE places the document: alone, or as one side of a perf_diff
# before/after pair whose other side is a well-formed record.

if(DOC STREQUAL "not_an_array")
    set(json "{\"benchmarks\": 5}")
    set(message "benchmarks must be an array (got 5)")
elseif(DOC STREQUAL "string_median")
    set(json "{\"benchmarks\": [{\"name\": \"a\", \"reps\": 3, \
\"items_per_rep\": 1, \"ns_per_rep\": {\"min\": 10, \"median\": \"10\", \
\"mad\": 0}, \"ns_per_op\": 10}]}")
    set(message
        "benchmarks[0].ns_per_rep.median must be a number (got \"10\")")
elseif(DOC STREQUAL "found")
    # A RUNNER record whose counts no field can hold; run_report
    # used to print 18446744073709551611 points and exit 0.
    set(json "{\"kind\": \"runner_telemetry\", \"schema_version\": 3, \
\"threads_used\": 1e30, \"points\": -5, \"wall_ns\": 1e300, \
\"workers\": [], \"point_durations\": [{\"index\": 0, \"ns\": -3}]}")
    set(message
        "threads_used must be an integer in [0, 4294967295] (got 1e+30)")
else()
    message(FATAL_ERROR "unknown DOC '${DOC}'")
endif()

set(bad "${WORK_DIR}/malformed_${NAME}.json")
set(good "${WORK_DIR}/malformed_${NAME}_good.json")
file(WRITE "${bad}" "${json}")
file(WRITE "${good}" "{\"benchmarks\": [{\"name\": \"a\", \"reps\": 3, \
\"items_per_rep\": 1, \"ns_per_rep\": {\"min\": 10, \"median\": 10, \
\"mad\": 0}, \"ns_per_op\": 10}]}")
if(SIDE STREQUAL "only")
    set(files "${bad}")
elseif(SIDE STREQUAL "before")
    set(files "${bad}" "${good}")
elseif(SIDE STREQUAL "after")
    set(files "${good}" "${bad}")
else()
    message(FATAL_ERROR "unknown SIDE '${SIDE}'")
endif()

separate_arguments(flags UNIX_COMMAND "${FLAGS}")
execute_process(
    COMMAND "${TOOL}" ${flags} ${files}
    RESULT_VARIABLE status
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)
if(NOT status EQUAL 2)
    message(FATAL_ERROR "${TOOL} ${FLAGS} exited ${status}, "
                        "expected 2:\n${out}${err}")
endif()
string(FIND "${out}${err}" "'${bad}': ${message}" at)
if(at EQUAL -1)
    message(FATAL_ERROR "no '${message}' for ${bad}:\n${out}${err}")
endif()
