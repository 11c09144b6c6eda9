#include "tracefmt/line_source.hh"

#include "util/logging.hh"

namespace pacache::tracefmt
{

LineSource::LineSource(const std::string &path, bool rebase_, bool clamp_)
    : owned(path), in(&owned), rebase(rebase_), clamp(clamp_)
{
    if (!owned)
        PACACHE_FATAL("cannot open trace file '", path, "'");
    at.source = path;
    start = owned.tellg();
}

LineSource::LineSource(std::istream &is, std::string name, bool rebase_,
                       bool clamp_)
    : in(&is), at{std::move(name), 0}, rebase(rebase_), clamp(clamp_)
{
    start = in->tellg();
}

bool
LineSource::next(TraceRecord &out)
{
    while (std::getline(*in, line)) {
        ++at.line;
        std::string_view sv(line);
        if (!sv.empty() && sv.back() == '\r')
            sv.remove_suffix(1); // CRLF traces (MSR is from Windows)
        while (!sv.empty() && (sv.front() == ' ' || sv.front() == '\t'))
            sv.remove_prefix(1);
        if (sv.empty() || sv.front() == '#')
            continue;
        if (!parseLine(sv, at, out))
            continue;
        // Every format's ids must fit BlockId's packed key, which the
        // cache, the policies and the oracles all hash on.
        if (!BlockId::packable(out.disk, out.block, out.numBlocks)) {
            parseFail(at, detail::concat(
                              "extent (disk ", out.disk, ", block ",
                              out.block, ", len ", out.numBlocks,
                              ") is outside the packed key space "
                              "(disk < 2^16, block < 2^48)"));
        }

        // The first accepted record anchors the (optional) rebase so
        // that every pass over the source yields identical times.
        if (!haveFirst) {
            haveFirst = true;
            firstTime = out.time;
        }
        if (rebase)
            out.time -= firstTime;

        if (out.time < lastTime) {
            if (!clamp) {
                parseFail(at, detail::concat(
                                  "out-of-order arrival time ", out.time,
                                  " (previous record is at ", lastTime,
                                  ")"));
            }
            out.time = lastTime;
        }
        lastTime = out.time;
        return true;
    }
    return false;
}

void
LineSource::rewind()
{
    in->clear();
    in->seekg(start);
    at.line = 0;
    lastTime = 0;
    // haveFirst/firstTime survive so rebasing stays deterministic.
    onRewind();
}

} // namespace pacache::tracefmt
