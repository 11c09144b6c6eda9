/**
 * @file
 * Temporary files for spills and sidecars. Every creation
 * goes through mkstemps under $TMPDIR (or /tmp) and fails with a
 * located fatal error naming the file.
 */

#ifndef PACACHE_UTIL_TEMP_FILE_HH
#define PACACHE_UTIL_TEMP_FILE_HH

#include <string>

namespace pacache
{

/**
 * An unlinked temp file "<$TMPDIR>/<stem>XXXXXX": space is reclaimed
 * on close and it is never listed. Returns the open descriptor.
 */
int makeUnlinkedTempFile(const std::string &stem);

/**
 * A new, empty, uniquely named file
 * "<$TMPDIR>/<stem>XXXXXX<suffix>", unlinked when this goes out of
 * scope.
 */
class ScopedTempFile
{
  public:
    ScopedTempFile(const std::string &stem, const std::string &suffix);
    ~ScopedTempFile();

    ScopedTempFile(const ScopedTempFile &) = delete;
    ScopedTempFile &operator=(const ScopedTempFile &) = delete;

    const std::string &path() const { return name; }

  private:
    std::string name;
};

} // namespace pacache

#endif // PACACHE_UTIL_TEMP_FILE_HH
