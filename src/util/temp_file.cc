#include "util/temp_file.hh"

#include <stdlib.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <vector>

#include "util/logging.hh"

namespace pacache
{

namespace
{

/** Create "<$TMPDIR>/<stem>XXXXXX<suffix>"; @p path receives the name. */
int
createTempFile(const std::string &stem, const std::string &suffix,
               std::string &path)
{
    const char *env = ::getenv("TMPDIR");
    const std::string dir = env && *env ? env : "/tmp";
    const std::string templ = dir + "/" + stem + "XXXXXX" + suffix;
    std::vector<char> buf(templ.begin(), templ.end());
    buf.push_back('\0');
    const int fd =
        ::mkstemps(buf.data(), static_cast<int>(suffix.size()));
    if (fd < 0) {
        PACACHE_FATAL("cannot create temp file '", buf.data(), "': ",
                      std::strerror(errno));
    }
    path.assign(buf.data());
    return fd;
}

} // namespace

int
makeUnlinkedTempFile(const std::string &stem)
{
    std::string path;
    const int fd = createTempFile(stem, {}, path);
    ::unlink(path.c_str());
    return fd;
}

ScopedTempFile::ScopedTempFile(const std::string &stem,
                               const std::string &suffix)
{
    ::close(createTempFile(stem, suffix, name));
}

ScopedTempFile::~ScopedTempFile()
{
    ::unlink(name.c_str());
}

} // namespace pacache
