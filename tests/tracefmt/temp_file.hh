/**
 * @file
 * Temp-file helpers for the tracefmt tests: every fixture file lands
 * in a process-scoped path under gtest's temp directory, so parallel
 * test processes (ctest -j runs several binaries at once) never
 * collide on a name.
 */

#ifndef PACACHE_TESTS_TRACEFMT_TEMP_FILE_HH
#define PACACHE_TESTS_TRACEFMT_TEMP_FILE_HH

#include <gtest/gtest.h>

#include <fstream>
#include <functional>
#include <stdexcept>
#include <string>

#include "support/temp_dir.hh"

namespace pacache::test
{

inline std::string
tempPath(const std::string &name)
{
    return processScopedPath(name);
}

/** Write @p content to a fresh temp file and return its path. */
inline std::string
writeTempFile(const std::string &name, const std::string &content)
{
    const std::string path = tempPath(name);
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << content;
    EXPECT_TRUE(out.good()) << "cannot write " << path;
    return path;
}

/** Run @p fn, which must throw, and return the exception message. */
inline std::string
messageOf(const std::function<void()> &fn)
{
    try {
        fn();
    } catch (const std::exception &e) {
        return e.what();
    }
    ADD_FAILURE() << "expected an exception";
    return {};
}

/**
 * Run @p fn, which must fail as an input error (std::runtime_error,
 * not an internal-bug panic), and return the exception message.
 */
inline std::string
inputErrorOf(const std::function<void()> &fn)
{
    try {
        fn();
    } catch (const std::runtime_error &e) {
        return e.what();
    } catch (const std::exception &e) {
        ADD_FAILURE() << "expected an input error, got: " << e.what();
        return e.what();
    }
    ADD_FAILURE() << "expected an exception";
    return {};
}

} // namespace pacache::test

#endif // PACACHE_TESTS_TRACEFMT_TEMP_FILE_HH
