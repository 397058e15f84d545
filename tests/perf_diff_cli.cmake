# Runs tools/perf_diff on two records it must refuse to compare and
# checks the exit status and the printed refusal.
#
#   cmake -DPERF_DIFF=<perf_diff binary> -DWORK_DIR=<dir>
#         -DNAME=<case> -DMISMATCH=cores|build "-DFLAGS=<flags>"
#         -DEXPECT=<exit status> -P perf_diff_cli.cmake
#
# MISMATCH picks what differs between the records: the host core
# count (a different parallel setup) or the build type (a different
# build).

set(bench "[{\"name\":\"a\",\"reps\":3,\"items_per_rep\":1,\
\"ns_per_rep\":{\"min\":10,\"median\":10,\"mad\":0},\"ns_per_op\":10}]")
set(before "${WORK_DIR}/perf_diff_${NAME}_before.json")
set(after "${WORK_DIR}/perf_diff_${NAME}_after.json")
file(WRITE "${before}" "{\"host_cores\":1,\"build_type\":\"Release\",\
\"compiler\":\"gcc 12.2.0\",\"benchmarks\":${bench}}")
if(MISMATCH STREQUAL "cores")
    file(WRITE "${after}" "{\"host_cores\":4,\"build_type\":\"Release\",\
\"compiler\":\"gcc 12.2.0\",\"benchmarks\":${bench}}")
elseif(MISMATCH STREQUAL "build")
    file(WRITE "${after}" "{\"host_cores\":1,\"build_type\":\"Debug\",\
\"compiler\":\"gcc 12.2.0\",\"benchmarks\":${bench}}")
else()
    message(FATAL_ERROR "unknown MISMATCH '${MISMATCH}'")
endif()

separate_arguments(flags UNIX_COMMAND "${FLAGS}")
execute_process(
    COMMAND "${PERF_DIFF}" ${flags} "${before}" "${after}"
    RESULT_VARIABLE status
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)
if(NOT status EQUAL EXPECT)
    message(FATAL_ERROR "perf_diff ${FLAGS} exited ${status}, "
                        "expected ${EXPECT}:\n${out}${err}")
endif()
if(NOT "${out}${err}" MATCHES "refusing to compare")
    message(FATAL_ERROR "perf_diff printed no refusal:\n${out}${err}")
endif()
