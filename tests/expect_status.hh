/**
 * @file
 * Checks for the typed rejections of DESIGN.md §7: a Status, or a
 * StatusError thrown by a call, with a given code and a message
 * holding a given text.
 *
 *   EXPECT_TRUE(isStatus(w.validate(32), ErrorCode::InvalidArgument,
 *                        "alpha"));
 *   EXPECT_TRUE(throwsStatus([&] { table.missRatio(64); },
 *                            ErrorCode::NotFound, "no line size"));
 */

#ifndef UATM_TESTS_EXPECT_STATUS_HH
#define UATM_TESTS_EXPECT_STATUS_HH

#include <string>
#include <string_view>

#include <gtest/gtest.h>

#include "util/status.hh"

namespace uatm {

/** Success when @p status has @p code and its message holds
 *  @p text. */
inline ::testing::AssertionResult
isStatus(const Status &status, ErrorCode code, std::string_view text)
{
    if (status.code() != code) {
        return ::testing::AssertionFailure()
               << "got " << status.toString() << ", expected code "
               << errorCodeName(code);
    }
    if (status.message().find(text) == std::string::npos) {
        return ::testing::AssertionFailure()
               << "message '" << status.message() << "' lacks '"
               << text << "'";
    }
    return ::testing::AssertionSuccess();
}

/** Success when @p body throws a StatusError that isStatus()
 *  accepts. */
template <typename Fn>
::testing::AssertionResult
throwsStatus(Fn &&body, ErrorCode code, std::string_view text)
{
    try {
        body();
    } catch (const StatusError &e) {
        return isStatus(e.status(), code, text);
    }
    return ::testing::AssertionFailure() << "nothing was thrown";
}

} // namespace uatm

#endif // UATM_TESTS_EXPECT_STATUS_HH
