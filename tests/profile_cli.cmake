# Runs bench_table2_stall_bounds with the profile armed through
# VAR=1 (UATM_PROFILE or UATM_PERF) and checks the profile's two
# outputs: the stderr dump lists the cpu.engine scope with its 30
# intervals, and the table's manifest holds profile.cpu.engine as a
# nanosecond histogram of 30 samples.  Every per-event counter
# entry, profile.cpu.engine.<event>, must be a histogram of counts;
# a host where no counter opens has none.
#
#   cmake -DTOOL=<bench_table2_stall_bounds> -DVAR=<variable>
#         -DOUT_DIR=<scratch directory> -P profile_cli.cmake

# string(JSON) needs 3.19.
cmake_minimum_required(VERSION 3.19)

file(REMOVE_RECURSE "${OUT_DIR}")
execute_process(
    COMMAND ${CMAKE_COMMAND} -E env ${VAR}=1
        UATM_BENCH_OUT=${OUT_DIR} "${TOOL}"
    RESULT_VARIABLE status
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)
if(NOT status EQUAL 0)
    message(FATAL_ERROR "${TOOL} under ${VAR}=1 exited ${status}:\n"
                        "${err}")
endif()
if(NOT err MATCHES "\ncpu\\.engine +=[^\n]*\\(n=30, sum=")
    message(FATAL_ERROR "the profile dump lists no cpu.engine "
                        "histogram of 30 samples:\n${err}")
endif()

file(READ "${OUT_DIR}/table2_measured.manifest.json" doc)
foreach(field kind unit count)
    string(JSON ${field} GET "${doc}" stats stats profile.cpu.engine
           ${field})
endforeach()
if(NOT kind STREQUAL "histogram" OR NOT unit STREQUAL "ns"
   OR NOT count EQUAL 30)
    message(FATAL_ERROR "profile.cpu.engine is ${kind} (${unit}) of "
                        "${count} samples, expected a histogram (ns) "
                        "of 30")
endif()

string(JSON entries LENGTH "${doc}" stats stats)
math(EXPR last "${entries} - 1")
foreach(i RANGE ${last})
    string(JSON name MEMBER "${doc}" stats stats ${i})
    if(NOT name MATCHES "^profile\\.cpu\\.engine\\.")
        continue()
    endif()
    string(JSON kind GET "${doc}" stats stats ${name} kind)
    string(JSON unit GET "${doc}" stats stats ${name} unit)
    if(NOT kind STREQUAL "histogram" OR NOT unit STREQUAL "count")
        message(FATAL_ERROR "${name} is ${kind} (${unit}), expected a "
                            "histogram (count)")
    endif()
endforeach()
