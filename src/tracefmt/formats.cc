#include "tracefmt/formats.hh"

#include <cctype>
#include <limits>

#include "util/logging.hh"

namespace pacache::tracefmt
{

namespace
{

DiskId
mapDisk(const IngestOptions &opt, uint64_t id, const ParseCursor &at,
        std::string_view tok)
{
    if (opt.diskModulo > 0)
        id %= opt.diskModulo;
    if (id > std::numeric_limits<DiskId>::max())
        parseFail(at, "disk id out of range", tok);
    return static_cast<DiskId>(id);
}

/** Map a byte extent onto [block, block + numBlocks). */
void
mapExtent(const IngestOptions &opt, uint64_t offset_bytes,
          uint64_t length_bytes, TraceRecord &rec, const ParseCursor &at)
{
    rec.block = offset_bytes / opt.blockBytes;
    const uint64_t end = offset_bytes + length_bytes;
    const uint64_t last = end > offset_bytes ? (end - 1) / opt.blockBytes
                                             : rec.block;
    const uint64_t count = last - rec.block + 1;
    if (count > 0x7fffffffULL)
        parseFail(at, "request spans too many blocks");
    rec.numBlocks = static_cast<uint32_t>(count);
}

bool
equalsIgnoreCase(std::string_view a, std::string_view b)
{
    if (a.size() != b.size())
        return false;
    for (std::size_t i = 0; i < a.size(); ++i) {
        if (std::tolower(static_cast<unsigned char>(a[i])) !=
            std::tolower(static_cast<unsigned char>(b[i])))
            return false;
    }
    return true;
}

/** True for "R", "W", "Read", "Write" (any case); fatal otherwise. */
bool
parseOpcode(std::string_view tok, const ParseCursor &at)
{
    if (equalsIgnoreCase(tok, "r") || equalsIgnoreCase(tok, "read"))
        return false;
    if (equalsIgnoreCase(tok, "w") || equalsIgnoreCase(tok, "write"))
        return true;
    parseFail(at, "bad opcode (expected read/write)", tok);
}

/** True if @p tok looks like a blktrace "maj,min" device field. */
bool
isDeviceToken(std::string_view tok)
{
    const std::size_t comma = tok.find(',');
    if (comma == std::string_view::npos || comma == 0 ||
        comma + 1 >= tok.size())
        return false;
    for (std::size_t i = 0; i < tok.size(); ++i) {
        if (i == comma)
            continue;
        if (!std::isdigit(static_cast<unsigned char>(tok[i])))
            return false;
    }
    return true;
}

} // namespace

SpcSource::SpcSource(const std::string &path, IngestOptions opts)
    : LineSource(path, opts.rebaseTime, opts.clampUnsorted), opt(opts)
{}

bool
SpcSource::parseLine(std::string_view line, const ParseCursor &at,
                     TraceRecord &out)
{
    const std::vector<std::string_view> f = splitFields(line, ',');
    if (f.size() < 5) {
        parseFail(at, detail::concat("expected 5 CSV fields "
                                     "(ASU,LBA,size,opcode,timestamp), "
                                     "got ",
                                     f.size()),
                  line);
    }
    out.disk = mapDisk(opt, parseU64Field(f[0], at, "ASU"), at, f[0]);
    const uint64_t lba = parseU64Field(f[1], at, "LBA");
    const uint64_t bytes = parseU64Field(f[2], at, "size");
    out.write = parseOpcode(f[3], at);
    out.time = parseDoubleField(f[4], at, "timestamp");
    if (out.time < 0)
        parseFail(at, "negative timestamp", f[4]);
    mapExtent(opt, lba * opt.sectorBytes, bytes, out, at);
    return true;
}

MsrSource::MsrSource(const std::string &path, IngestOptions opts)
    : LineSource(path, opts.rebaseTime, opts.clampUnsorted), opt(opts)
{}

bool
MsrSource::parseLine(std::string_view line, const ParseCursor &at,
                     TraceRecord &out)
{
    const std::vector<std::string_view> f = splitFields(line, ',');
    // Some published cuts carry a CSV header; skip it on line 1 only.
    if (at.line == 1 && !f.empty() && !f[0].empty() &&
        !std::isdigit(static_cast<unsigned char>(f[0][0])))
        return false;
    if (f.size() < 6) {
        parseFail(at, detail::concat(
                          "expected 6+ CSV fields (Timestamp,Hostname,"
                          "DiskNumber,Type,Offset,Size), got ",
                          f.size()),
                  line);
    }
    const uint64_t ticks = parseU64Field(f[0], at, "timestamp");
    if (!haveFirstTicks) {
        haveFirstTicks = true;
        firstTicks = ticks;
    }
    // 100 ns FILETIME ticks; anchored subtraction keeps precision.
    out.time = ticks >= firstTicks
                   ? static_cast<double>(ticks - firstTicks) * 1e-7
                   : -(static_cast<double>(firstTicks - ticks) * 1e-7);
    out.disk =
        mapDisk(opt, parseU64Field(f[2], at, "disk number"), at, f[2]);
    out.write = parseOpcode(f[3], at);
    const uint64_t offset = parseU64Field(f[4], at, "offset");
    const uint64_t bytes = parseU64Field(f[5], at, "size");
    mapExtent(opt, offset, bytes, out, at);
    return true;
}

BlktraceSource::BlktraceSource(const std::string &path, IngestOptions opts)
    : LineSource(path, opts.rebaseTime, opts.clampUnsorted), opt(opts)
{}

bool
BlktraceSource::parseLine(std::string_view line, const ParseCursor &at,
                          TraceRecord &out)
{
    const std::vector<std::string_view> tok = splitTokens(line);
    // blkparse output ends with per-CPU summaries and may carry other
    // noise; only lines opening with a maj,min device are records.
    if (tok.empty() || !isDeviceToken(tok[0]))
        return false;
    if (tok.size() < 7)
        parseFail(at, "truncated blktrace record", line);

    // maj,min cpu seq time pid action rwbs [sector + sectors [proc]]
    const std::string_view action = tok[5];
    if (action.size() != 1 || action[0] != opt.blktraceAction)
        return false;
    const std::string_view rwbs = tok[6];
    const bool has_read = rwbs.find('R') != std::string_view::npos;
    const bool has_write = rwbs.find('W') != std::string_view::npos;
    if (!has_read && !has_write)
        return false; // discard/flush/barrier-only actions
    if (tok.size() < 10 || tok[8] != "+")
        parseFail(at, "blktrace record without '+ sectors' extent",
                  line);

    out.time = parseDoubleField(tok[3], at, "timestamp");
    if (out.time < 0)
        parseFail(at, "negative timestamp", tok[3]);
    out.write = has_write;

    const std::string dev(tok[0]);
    const auto [it, inserted] = devices.try_emplace(
        dev, static_cast<DiskId>(devices.size()));
    uint64_t disk = it->second;
    if (opt.diskModulo > 0)
        disk %= opt.diskModulo;
    out.disk = static_cast<DiskId>(disk);

    const uint64_t sector = parseU64Field(tok[7], at, "sector");
    const uint64_t sectors = parseU64Field(tok[9], at, "sector count");
    if (sectors == 0)
        parseFail(at, "zero-length blktrace request", tok[9]);
    mapExtent(opt, sector * opt.sectorBytes, sectors * opt.sectorBytes,
              out, at);
    return true;
}

} // namespace pacache::tracefmt
