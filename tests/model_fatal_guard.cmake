# Fails when a fatal() call appears in the paper model's sources
# (src/core, src/linesize and src/cpu) or the trace substrate's
# (src/trace), comments stripped: the library rejects its inputs
# through Status and StatusError, and only the CLI and bench
# boundaries exit (DESIGN.md §7).
#
#   cmake -DROOT=<source tree> -P model_fatal_guard.cmake

cmake_minimum_required(VERSION 3.16)

file(GLOB_RECURSE sources
    "${ROOT}/src/core/*" "${ROOT}/src/linesize/*" "${ROOT}/src/cpu/*"
    "${ROOT}/src/trace/*")
if(NOT sources)
    message(FATAL_ERROR "no library sources under '${ROOT}/src'")
endif()

set(offenders "")
foreach(path IN LISTS sources)
    file(READ "${path}" text)
    # Drop // and /* */ comments, whichever opens first, so a
    # comment that names fatal() does not count.
    set(code "")
    while(TRUE)
        string(FIND "${text}" "//" line_at)
        string(FIND "${text}" "/*" block_at)
        if(line_at EQUAL -1 AND block_at EQUAL -1)
            break()
        endif()
        if(block_at EQUAL -1
           OR (NOT line_at EQUAL -1 AND line_at LESS block_at))
            string(SUBSTRING "${text}" 0 ${line_at} kept)
            string(SUBSTRING "${text}" ${line_at} -1 text)
            string(FIND "${text}" "\n" end)
        else()
            string(SUBSTRING "${text}" 0 ${block_at} kept)
            string(SUBSTRING "${text}" ${block_at} -1 text)
            string(FIND "${text}" "*/" end)
            if(NOT end EQUAL -1)
                math(EXPR end "${end} + 2")
            endif()
        endif()
        string(APPEND code "${kept}")
        if(end EQUAL -1)
            set(text "")
        else()
            string(SUBSTRING "${text}" ${end} -1 text)
        endif()
    endwhile()
    string(APPEND code "${text}")
    if(code MATCHES "(^|[^A-Za-z0-9_])fatal[ \t\r\n]*\\(")
        file(RELATIVE_PATH name "${ROOT}" "${path}")
        string(APPEND offenders "  ${name}\n")
    endif()
endforeach()

if(offenders)
    message(FATAL_ERROR "fatal() called in the library; return "
                        "or throw a Status instead:\n${offenders}")
endif()
