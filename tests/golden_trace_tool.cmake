# Pins trace_tool's generate, inspect and replay modes, whose output
# no other golden case reads: it writes one workload's trace with and
# without interleaved instruction fetches, inspects each file and
# replays it through an 8 KiB cache, and compares the SHA-256 of each
# written trace and of each stdout with the committed digest list
# (golden_check.cmake).  The directory's path is replaced by "<out>"
# in stdout, since the generate and inspect lines name the file.
#
#   cmake -DTOOL=<trace_tool> -DOUT_DIR=<scratch directory>
#         -DLIST=<digest list> -P golden_trace_tool.cmake

cmake_minimum_required(VERSION 3.16)

set(NAME trace_tool)
file(REMOVE_RECURSE "${OUT_DIR}")
file(MAKE_DIRECTORY "${OUT_DIR}")
set(actual "")

# Runs trace_tool with the remaining arguments and appends the digest
# of its stdout to actual as artifact @p artifact.
function(digest_stdout artifact)
    execute_process(
        COMMAND "${TOOL}" ${ARGN}
        WORKING_DIRECTORY "${OUT_DIR}"
        RESULT_VARIABLE status
        OUTPUT_VARIABLE out
        ERROR_VARIABLE err)
    if(NOT status EQUAL 0)
        list(JOIN ARGN " " flags)
        message(FATAL_ERROR "${NAME} ${flags} exited ${status}:\n${err}")
    endif()
    string(REPLACE "${OUT_DIR}" "<out>" out "${out}")
    string(SHA256 digest "${out}")
    set(actual ${actual} "${NAME} ${artifact} ${digest}" PARENT_SCOPE)
endfunction()

# 30000 references span many 2048-reference pulls and cross nasa7's
# first phase boundary (6000 data references) in both streams.
foreach(stream data ifetch)
    set(trace "${OUT_DIR}/${stream}.trc")
    set(ifetch_flag "")
    if(stream STREQUAL "ifetch")
        set(ifetch_flag --ifetch)
    endif()
    digest_stdout(${stream}.generate --mode generate --workload nasa7
                  --seed 7 --refs 30000 ${ifetch_flag} --out "${trace}")
    file(SHA256 "${trace}" digest)
    list(APPEND actual "${NAME} ${stream}.trc ${digest}")
    digest_stdout(${stream}.inspect --mode inspect --in "${trace}")
    digest_stdout(${stream}.replay --mode replay --in "${trace}"
                  --cache-kb 8)
endforeach()

include("${CMAKE_CURRENT_LIST_DIR}/golden_check.cmake")
