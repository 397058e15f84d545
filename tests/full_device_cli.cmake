# Runs a program whose output path is /dev/full, which opens but
# takes no bytes, and checks that it exits 1 naming the path and
# never reports the write as done.
#
#   cmake -DTOOL=<binary> "-DFLAGS=<flags>" ["-DSETUP=<flags>"]
#         -P full_device_cli.cmake
#
# SETUP, when given, is a first run of the same binary that must
# succeed: it writes the input the checked run reads.

if(SETUP)
    separate_arguments(setup UNIX_COMMAND "${SETUP}")
    execute_process(
        COMMAND "${TOOL}" ${setup}
        RESULT_VARIABLE status
        OUTPUT_VARIABLE out
        ERROR_VARIABLE err)
    if(NOT status EQUAL 0)
        message(FATAL_ERROR "set-up run ${TOOL} ${SETUP} exited "
                            "${status}:\n${out}${err}")
    endif()
endif()

separate_arguments(flags UNIX_COMMAND "${FLAGS}")
execute_process(
    COMMAND "${TOOL}" ${flags}
    RESULT_VARIABLE status
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)
if(NOT status EQUAL 1)
    message(FATAL_ERROR "${TOOL} ${FLAGS} exited ${status}, "
                        "expected 1:\n${out}${err}")
endif()
string(FIND "${err}" "failed while writing '/dev/full'" at)
if(at EQUAL -1)
    message(FATAL_ERROR "no failed write of '/dev/full' reported:\n"
                        "${out}${err}")
endif()
string(FIND "${out}" "wrote" claimed)
if(NOT claimed EQUAL -1)
    message(FATAL_ERROR "the lost write was reported as done:\n"
                        "${out}${err}")
endif()
