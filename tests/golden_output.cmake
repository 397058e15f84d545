# Runs one program in a fresh directory, with UATM_BENCH_OUT pointing
# at it, and compares the SHA-256 of its stdout and of each CSV it
# wrote with the committed digest list, naming the first artifact
# that differs.  The directory's path is replaced by "<out>" in
# stdout first, since the "[csv] wrote" and "[manifest] wrote" lines
# name it.  Manifests stay out: they hold timings and paths.
#
# The list holds one "<program> <artifact> <sha256>" line per
# artifact, where the artifact is "stdout" or a CSV's path under the
# directory.  With UATM_GOLDEN_UPDATE=1 in the environment the case
# rewrites its program's lines of the list instead of comparing, and
# then fails, so an update run never reads as a passing check:
#
#   UATM_GOLDEN_UPDATE=1 ctest -R '^GoldenOutput\.'
#
# rewrites the whole list from the build at hand, and a second run
# without the variable checks it.
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

if("$ENV{UATM_GOLDEN_UPDATE}" STREQUAL "1")
    # Cases may run in parallel; a lock beside their directories
    # keeps their rewrites apart.
    get_filename_component(cases_dir "${OUT_DIR}" DIRECTORY)
    file(LOCK "${cases_dir}/update.lock" GUARD PROCESS)
    set(kept "")
    if(EXISTS "${LIST}")
        file(STRINGS "${LIST}" lines)
        foreach(line IN LISTS lines)
            if(NOT line MATCHES "^${NAME} ")
                list(APPEND kept "${line}")
            endif()
        endforeach()
    endif()
    list(APPEND kept ${actual})
    list(SORT kept)
    list(JOIN kept "\n" text)
    file(WRITE "${LIST}" "${text}\n")
    message(FATAL_ERROR "rewrote the ${NAME} lines of ${LIST}; rerun "
                        "without UATM_GOLDEN_UPDATE to check them")
endif()

file(STRINGS "${LIST}" expected REGEX "^${NAME} ")
if(NOT expected)
    message(FATAL_ERROR "${LIST} has no digests for ${NAME}; run the "
                        "case with UATM_GOLDEN_UPDATE=1 to add them")
endif()
foreach(line IN LISTS expected)
    string(REGEX REPLACE " [0-9a-f]+$" "" artifact "${line}")
    list(FIND actual "${line}" at)
    if(at EQUAL -1)
        message(FATAL_ERROR "${artifact} differs from its golden "
                            "digest (or is missing)")
    endif()
endforeach()
foreach(line IN LISTS actual)
    list(FIND expected "${line}" at)
    if(at EQUAL -1)
        string(REGEX REPLACE " [0-9a-f]+$" "" artifact "${line}")
        message(FATAL_ERROR "${artifact} has no golden digest")
    endif()
endforeach()
