# Runs tools/unreached_api.py over a small tree written here and
# checks what it lists and that it exits 0.
#
#   cmake -DPYTHON=<python3> -DSCAN=<unreached_api.py>
#         -DWORK_DIR=<dir>
#         -DCASE=<ListsNamesOnlyTestsReach|GroupsPaperModelNamesApart|
#                 SeesNoCallInCommentsOrStrings|ExitsZeroOutsideTheRoot>
#         -P unreached_api_cli.cmake
#
# The tree: a tool calls reached(), which calls helper() in its own
# module; onlyTested() and eqOne() are named by a test alone, and
# the tool names onlyTested and Orphan only in a comment and a
# string.

set(root "${WORK_DIR}/unreached_api_${CASE}")
file(REMOVE_RECURSE "${root}")
if(CASE STREQUAL "ExitsZeroOutsideTheRoot")
    file(MAKE_DIRECTORY "${root}")
else()
    file(WRITE "${root}/src/m/lib.hh" "namespace demo {
int reached(int x);
int onlyTested(int x);
int helper(int x);
class Orphan
{
  public:
    int f();
};
} // namespace demo
")
    file(WRITE "${root}/src/m/lib.cc" "#include \"m/lib.hh\"
namespace demo {
int helper(int x) { return x + 1; }
int reached(int x) { return helper(x); }
int onlyTested(int x) { return x; }
int Orphan::f() { return 0; }
} // namespace demo
")
    file(WRITE "${root}/src/core/eq.hh"
         "namespace demo {\ndouble eqOne(double mu);\n}\n")
    file(WRITE "${root}/tools/tool.cc" "#include \"m/lib.hh\"
// Not a call: onlyTested(3).
int main()
{
    const char *name = \"Orphan\";
    return demo::reached(name[0]);
}
")
    file(WRITE "${root}/tests/t.cc" "#include \"core/eq.hh\"
#include \"m/lib.hh\"
int t() { return demo::onlyTested(2) + int(demo::eqOne(1.0)); }
")
endif()

execute_process(
    COMMAND "${PYTHON}" "${SCAN}"
    WORKING_DIRECTORY "${root}"
    RESULT_VARIABLE status
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)
if(NOT status EQUAL 0)
    message(FATAL_ERROR "the scan exited ${status}, expected 0:\n"
                        "${out}${err}")
endif()

function(expect_listed regex)
    if(NOT out MATCHES "${regex}")
        message(FATAL_ERROR "no line matches '${regex}':\n${out}")
    endif()
endfunction()

function(expect_unlisted name)
    if(out MATCHES " ${name} ")
        message(FATAL_ERROR "${name} is listed:\n${out}")
    endif()
endfunction()

if(CASE STREQUAL "ListsNamesOnlyTestsReach")
    expect_listed("src/m/lib\\.hh +onlyTested +function +1 test file\n")
    expect_unlisted(reached)
    expect_unlisted(helper)
    expect_listed("\n2 library names, 1 paper-model names\\.")
elseif(CASE STREQUAL "GroupsPaperModelNamesApart")
    string(FIND "${out}" "Paper-model names" group)
    string(FIND "${out}" "eqOne" paper)
    string(FIND "${out}" "onlyTested" library)
    if(group EQUAL -1 OR paper LESS group OR library GREATER group)
        message(FATAL_ERROR "eqOne is not in the paper-model group, "
                            "or onlyTested is:\n${out}")
    endif()
    expect_listed("src/core/eq\\.hh +eqOne +function +1 test file\n")
elseif(CASE STREQUAL "SeesNoCallInCommentsOrStrings")
    expect_listed("src/m/lib\\.hh +onlyTested ")
    expect_listed("src/m/lib\\.hh +Orphan +class +0 test files\n")
elseif(CASE STREQUAL "ExitsZeroOutsideTheRoot")
    expect_listed("run from the repository root")
else()
    message(FATAL_ERROR "unknown CASE '${CASE}'")
endif()
file(REMOVE_RECURSE "${root}")
