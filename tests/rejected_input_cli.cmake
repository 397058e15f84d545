# Runs a program with a flag value the paper model rejects and
# checks that it exits 1 with a message naming the bad value, and
# never aborts.
#
#   cmake -DTOOL=<binary> "-DFLAGS=<flags>" "-DMESSAGE=<text>"
#         -P rejected_input_cli.cmake

separate_arguments(flags UNIX_COMMAND "${FLAGS}")
execute_process(
    COMMAND "${TOOL}" ${flags}
    RESULT_VARIABLE status
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)
if(NOT status EQUAL 1)
    message(FATAL_ERROR "${TOOL} ${FLAGS} exited ${status}, "
                        "expected 1:\n${err}")
endif()
string(FIND "${err}" "uatm: fatal: ${MESSAGE}" at)
if(at EQUAL -1)
    message(FATAL_ERROR "no 'uatm: fatal: ${MESSAGE}' on stderr:\n"
                        "${err}")
endif()
