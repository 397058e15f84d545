# Runs TOOL with each variable of VARS set to "false", a value the
# switch rule (util/logging.hh envSwitch) refuses, and checks that
# the program runs with each switch off: exit 0, and on stderr only
# one unstamped warning per variable, in the order of VARS, so no
# profile dump either.
#
#   cmake -DTOOL=<binary> "-DFLAGS=<flags>" "-DVARS=<VAR> [<VAR>...]"
#         -P switch_cli.cmake

separate_arguments(flags UNIX_COMMAND "${FLAGS}")
separate_arguments(vars UNIX_COMMAND "${VARS}")
set(env "")
set(expected "")
foreach(var IN LISTS vars)
    list(APPEND env "${var}=false")
    string(APPEND expected "uatm: warn: ${var} must be 1 or 0 \
(got \"false\"); leaving it off\n")
endforeach()
execute_process(
    COMMAND ${CMAKE_COMMAND} -E env ${env} "${TOOL}" ${flags}
    RESULT_VARIABLE status
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)
if(NOT status EQUAL 0)
    message(FATAL_ERROR "${TOOL} ${FLAGS} under ${env} exited "
                        "${status}:\n${err}")
endif()
if(NOT err STREQUAL expected)
    message(FATAL_ERROR "expected on stderr:\n${expected}got:\n${err}")
endif()
