# Runs quickstart traced, with the ring capacity UATM_TRACE_EVENTS=1x
# asks for, and checks that the program warns once, naming the
# variable and the value it keeps, and that the trace it writes holds
# every event with none dropped.  A one-slot ring would keep only the
# last of them.
#
#   cmake -DTOOL=<quickstart> -DOUT_DIR=<scratch directory>
#         -P trace_events_cli.cmake

# string(JSON) needs 3.19.
cmake_minimum_required(VERSION 3.19)

file(REMOVE_RECURSE "${OUT_DIR}")
file(MAKE_DIRECTORY "${OUT_DIR}")
set(trace "${OUT_DIR}/trace.json")
execute_process(
    COMMAND ${CMAKE_COMMAND} -E env UATM_TRACE_EVENTS=1x
        UATM_TRACE=${trace} UATM_BENCH_OUT=${OUT_DIR}
        "${TOOL}" --threads 1
    RESULT_VARIABLE status
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)
if(NOT status EQUAL 0)
    message(FATAL_ERROR "${TOOL} under UATM_TRACE_EVENTS=1x exited "
                        "${status}:\n${err}")
endif()

set(warning "uatm: warn: UATM_TRACE_EVENTS must be an integer in \
[1, 18446744073709551615] (got \"1x\"); keeping 1048576\n")
string(REPLACE "${warning}" "" rest "${err}")
string(LENGTH "${err}" err_length)
string(LENGTH "${rest}" rest_length)
string(LENGTH "${warning}" warning_length)
math(EXPR removed "${err_length} - ${rest_length}")
if(NOT removed EQUAL warning_length OR rest MATCHES "warn:")
    message(FATAL_ERROR "expected one warning '${warning}' and no "
                        "other on stderr:\n${err}")
endif()

file(READ "${trace}" doc)
string(JSON recorded GET "${doc}" otherData events_recorded)
string(JSON dropped GET "${doc}" otherData events_dropped)
if(NOT dropped EQUAL 0 OR recorded LESS 2)
    message(FATAL_ERROR "the trace recorded ${recorded} events and "
                        "dropped ${dropped}; expected 2 or more, none "
                        "dropped")
endif()
