# Runs one program in a fresh directory, with UATM_BENCH_OUT pointing
# at it, and compares the SHA-256 of its stdout and of each CSV it
# wrote with the committed digest list, naming the first artifact
# that differs.  The directory's path is replaced by "<out>" in
# stdout first, since the "[csv] wrote" and "[manifest] wrote" lines
# name it.  Manifests stay out: they hold timings and paths.  The
# artifact is "stdout" or a CSV's path under the directory;
# golden_check.cmake compares them with the list, or rewrites it.
#
#   cmake -DTOOL=<binary> -DNAME=<program> "-DFLAGS=<flags>"
#         -DOUT_DIR=<scratch directory> -DLIST=<digest list>
#         -P golden_output.cmake

cmake_minimum_required(VERSION 3.16)

file(REMOVE_RECURSE "${OUT_DIR}")
file(MAKE_DIRECTORY "${OUT_DIR}")
separate_arguments(flags UNIX_COMMAND "${FLAGS}")
execute_process(
    COMMAND ${CMAKE_COMMAND} -E env UATM_BENCH_OUT=${OUT_DIR}
        "${TOOL}" ${flags}
    WORKING_DIRECTORY "${OUT_DIR}"
    RESULT_VARIABLE status
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)
if(NOT status EQUAL 0)
    message(FATAL_ERROR "${NAME} ${FLAGS} exited ${status}:\n${err}")
endif()

string(REPLACE "${OUT_DIR}" "<out>" out "${out}")
string(SHA256 digest "${out}")
set(actual "${NAME} stdout ${digest}")
file(GLOB_RECURSE csvs RELATIVE "${OUT_DIR}" "${OUT_DIR}/*.csv")
list(SORT csvs)
foreach(csv IN LISTS csvs)
    file(SHA256 "${OUT_DIR}/${csv}" digest)
    list(APPEND actual "${NAME} ${csv} ${digest}")
endforeach()

include("${CMAKE_CURRENT_LIST_DIR}/golden_check.cmake")
