# Runs a program with an input it must refuse and checks that it
# exits EXIT (default 1) with "PREFIX: MESSAGE" on stderr (PREFIX
# defaults to "uatm: fatal"), and never aborts.  With RECORDS set,
# two BENCH records go after the flags, the second with its one
# benchmark 3x slower, so a gate left working would fail them.
#
#   cmake -DTOOL=<binary> "-DFLAGS=<flags>" "-DMESSAGE=<text>"
#         [-DEXIT=<status>] [-DPREFIX=<text>] [-DRECORDS=<dir>]
#         -P rejected_input_cli.cmake

if(NOT DEFINED EXIT)
    set(EXIT 1)
endif()
if(NOT DEFINED PREFIX)
    set(PREFIX "uatm: fatal")
endif()
separate_arguments(flags UNIX_COMMAND "${FLAGS}")
if(RECORDS)
    set(ns 10)
    foreach(side IN ITEMS before after)
        set(path "${RECORDS}/rejected_input_${side}.json")
        file(WRITE "${path}" "{\"host_cores\":1,\"build_type\":\"Release\",\
\"compiler\":\"gcc 12.2.0\",\"benchmarks\":[{\"name\":\"a\",\"reps\":3,\
\"items_per_rep\":1,\"ns_per_rep\":{\"min\":${ns},\"median\":${ns},\
\"mad\":0},\"ns_per_op\":${ns}}]}")
        list(APPEND flags "${path}")
        set(ns 30)
    endforeach()
endif()
execute_process(
    COMMAND "${TOOL}" ${flags}
    RESULT_VARIABLE status
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)
if(NOT status EQUAL EXIT)
    message(FATAL_ERROR "${TOOL} ${FLAGS} exited ${status}, "
                        "expected ${EXIT}:\n${out}${err}")
endif()
string(FIND "${err}" "${PREFIX}: ${MESSAGE}" at)
if(at EQUAL -1)
    message(FATAL_ERROR "no '${PREFIX}: ${MESSAGE}' on stderr:\n${err}")
endif()
