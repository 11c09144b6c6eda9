/**
 * @file
 * Member lookup for tests that assert on emitted JSON documents:
 * at(doc, "a", "b") walks doc["a"]["b"] through JsonValue::find and
 * throws naming the first missing key, so the test fails with it.
 */

#ifndef PACACHE_TESTS_SUPPORT_JSON_AT_HH
#define PACACHE_TESTS_SUPPORT_JSON_AT_HH

#include <stdexcept>
#include <string>
#include <string_view>

#include "util/json.hh"

namespace pacache::test
{

template <typename... Keys>
const JsonValue &
at(const JsonValue &v, std::string_view key, Keys... rest)
{
    const JsonValue *member = v.find(key);
    if (!member)
        throw std::runtime_error("missing key: " + std::string(key));
    if constexpr (sizeof...(rest) == 0)
        return *member;
    else
        return at(*member, rest...);
}

} // namespace pacache::test

#endif // PACACHE_TESTS_SUPPORT_JSON_AT_HH
