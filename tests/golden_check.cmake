# Compares one program's artifact digests with the committed list,
# naming the first artifact that differs; included by the golden
# cases once they have set NAME (the program), LIST (the list),
# OUT_DIR (the case's directory, beside the other cases') and actual
# (one "<program> <artifact> <sha256>" entry per artifact).
#
# The list holds one such line per artifact.  With
# UATM_GOLDEN_UPDATE=1 in the environment the case rewrites its
# program's lines of the list instead of comparing, and then fails,
# so an update run never reads as a passing check:
#
#   UATM_GOLDEN_UPDATE=1 ctest -R '^GoldenOutput\.'
#
# rewrites the whole list from the build at hand, and a second run
# without the variable checks it.

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
