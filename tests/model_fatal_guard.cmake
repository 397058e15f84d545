# Fails when a fatal() call, or a call of the CLI helpers that end
# the process through it (okOrFatal, valueOrFatal), appears in the
# paper model's sources (src/core, src/linesize and src/cpu), the
# trace substrate's (src/trace), or the utility and observability
# layers' (src/util, src/obs), comments stripped: the library
# rejects its inputs through Status and StatusError, and only the
# CLI and bench boundaries exit (DESIGN.md §7).
#
#   cmake -DROOT=<source tree> -P model_fatal_guard.cmake

cmake_minimum_required(VERSION 3.16)

# The calls that stay, each with its reason.  A file named alone may
# call fatal() anywhere; "<file>:<function>" allows the calls in that
# function's body only, from its name at the start of a line to the
# first line that is a closing brace.
set(allowed
    # Defines fatal() itself.
    "src/util/logging.hh" "src/util/logging.cc"
    # The helpers a command-line program ends a failed run with.
    "src/util/status.hh:okOrFatal" "src/util/status.hh:valueOrFatal"
    # The one main wrapper that ends a program on an escaping
    # StatusError.
    "src/util/status.hh:guardedMain"
    # Where a benchmark exits when it cannot make its output
    # directory.
    "src/obs/bench.cc:benchOutDir")

file(GLOB_RECURSE sources
    "${ROOT}/src/core/*" "${ROOT}/src/linesize/*" "${ROOT}/src/cpu/*"
    "${ROOT}/src/trace/*" "${ROOT}/src/util/*" "${ROOT}/src/obs/*")
if(NOT sources)
    message(FATAL_ERROR "no library sources under '${ROOT}/src'")
endif()

set(offenders "")
foreach(path IN LISTS sources)
    file(RELATIVE_PATH name "${ROOT}" "${path}")
    if(name IN_LIST allowed)
        continue()
    endif()
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
    # Cut the bodies of the functions allowed in this file.
    foreach(entry IN LISTS allowed)
        if(NOT entry MATCHES "^${name}:(.+)$")
            continue()
        endif()
        string(FIND "${code}" "\n${CMAKE_MATCH_1}(" at)
        if(at EQUAL -1)
            message(FATAL_ERROR "no function ${CMAKE_MATCH_1} in ${name}")
        endif()
        string(SUBSTRING "${code}" ${at} -1 rest)
        string(FIND "${rest}" "\n}" end)
        string(SUBSTRING "${code}" 0 ${at} head)
        string(SUBSTRING "${rest}" ${end} -1 rest)
        set(code "${head}${rest}")
    endforeach()
    if(code MATCHES
       "(^|[^A-Za-z0-9_])(fatal|okOrFatal|valueOrFatal)[ \t\r\n]*\\(")
        string(APPEND offenders "  ${name}\n")
    endif()
endforeach()

if(offenders)
    message(FATAL_ERROR "fatal(), okOrFatal() or valueOrFatal() "
                        "called in the library; return or throw a "
                        "Status instead:\n${offenders}")
endif()
