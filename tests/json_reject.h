/**
 * @file
 * Rejection checks shared by the JSON front-end tests. Every error of
 * the JSON reader and of the schemas built on it starts with
 * "<context>:<line>:<col>: ", so a test can pin the exact byte a
 * rejection blames.
 */

#ifndef DREAM_TESTS_JSON_REJECT_H
#define DREAM_TESTS_JSON_REJECT_H

#include <algorithm>
#include <stdexcept>
#include <string>

#include <gtest/gtest.h>

namespace dream {
namespace test {

/** "<context>:<line>:<col>" of byte @p offset of @p text (1-based). */
inline std::string
locationOf(const std::string& context, const std::string& text,
           size_t offset)
{
    const auto line =
        1 + std::count(text.begin(), text.begin() + offset, '\n');
    const size_t nl =
        offset == 0 ? std::string::npos : text.rfind('\n', offset - 1);
    const size_t col =
        offset - (nl == std::string::npos ? 0 : nl + 1) + 1;
    return context + ':' + std::to_string(line) + ':' +
           std::to_string(col);
}

/**
 * Expect @p read(@p text) to throw std::runtime_error located at
 * byte @p offset of @p text, with @p fragment in the message.
 */
template <typename Read>
void
expectRejectedAt(Read&& read, const std::string& text,
                 const std::string& context, size_t offset,
                 const std::string& fragment)
{
    try {
        read(text);
        ADD_FAILURE() << "accepted: " << text;
    } catch (const std::runtime_error& e) {
        const std::string what = e.what();
        EXPECT_EQ(what.rfind(locationOf(context, text, offset) + ": ", 0),
                  0u)
            << what;
        EXPECT_NE(what.find(fragment), std::string::npos) << what;
    }
}

} // namespace test
} // namespace dream

#endif // DREAM_TESTS_JSON_REJECT_H
