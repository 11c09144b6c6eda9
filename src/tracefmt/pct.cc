#include "tracefmt/pct.hh"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstring>

#include "util/logging.hh"

namespace pacache::tracefmt
{

namespace
{

constexpr uint64_t kFnvOffset = 14695981039346656037ULL;
constexpr uint64_t kFnvPrime = 1099511628211ULL;

/** Writer buffer size: 64 Ki records per flush. */
constexpr std::size_t kWriteBufRecords = 1 << 16;

uint64_t
fnv1a(uint64_t h, const unsigned char *p, std::size_t n)
{
    for (std::size_t i = 0; i < n; ++i) {
        h ^= p[i];
        h *= kFnvPrime;
    }
    return h;
}

// Shift-based little-endian accessors: endian-agnostic, and on LE
// hosts compilers collapse them to single loads/stores.
void
putLe32(unsigned char *p, uint32_t v)
{
    p[0] = static_cast<unsigned char>(v);
    p[1] = static_cast<unsigned char>(v >> 8);
    p[2] = static_cast<unsigned char>(v >> 16);
    p[3] = static_cast<unsigned char>(v >> 24);
}

void
putLe64(unsigned char *p, uint64_t v)
{
    putLe32(p, static_cast<uint32_t>(v));
    putLe32(p + 4, static_cast<uint32_t>(v >> 32));
}

uint32_t
getLe32(const unsigned char *p)
{
    return static_cast<uint32_t>(p[0]) |
           (static_cast<uint32_t>(p[1]) << 8) |
           (static_cast<uint32_t>(p[2]) << 16) |
           (static_cast<uint32_t>(p[3]) << 24);
}

uint64_t
getLe64(const unsigned char *p)
{
    return static_cast<uint64_t>(getLe32(p)) |
           (static_cast<uint64_t>(getLe32(p + 4)) << 32);
}

/** Byte offsets of the disk and length fields inside a record. */
constexpr std::size_t kDiskOffset = 16;
constexpr std::size_t kLenOffset = 20;

void
encodeRecord(unsigned char *p, const TraceRecord &rec)
{
    putLe64(p, std::bit_cast<uint64_t>(rec.time));
    putLe64(p + 8, rec.block);
    putLe32(p + kDiskOffset, rec.disk);
    putLe32(p + kLenOffset, (rec.numBlocks & 0x7fffffffu) |
                                (rec.write ? 0x80000000u : 0u));
}

/** Consumers size their disk arrays from the header's count. */
void
checkDisk(uint32_t disk, const std::string &path, uint64_t index,
          uint32_t num_disks)
{
    if (disk >= num_disks) {
        PACACHE_FATAL("corrupt .pct record ", index, " in '", path,
                      "': disk ", disk, " but the header declares ",
                      num_disks, " disks");
    }
}

void
decodeRecord(const unsigned char *p, TraceRecord &rec,
             const std::string &path, uint64_t index, Time last_time,
             uint32_t num_disks)
{
    rec.time = std::bit_cast<Time>(getLe64(p));
    rec.block = getLe64(p + 8);
    rec.disk = getLe32(p + kDiskOffset);
    const uint32_t len_flags = getLe32(p + kLenOffset);
    rec.write = (len_flags & 0x80000000u) != 0;
    rec.numBlocks = len_flags & 0x7fffffffu;
    if (rec.numBlocks == 0 || !(rec.time >= last_time)) {
        PACACHE_FATAL("corrupt .pct record ", index, " in '", path,
                      "' (zero length or out-of-order time)");
    }
    checkDisk(rec.disk, path, index, num_disks);
    // Every block of the extent must fit BlockId's packed key.
    if (!BlockId::packable(rec.disk, rec.block, rec.numBlocks)) {
        PACACHE_FATAL(".pct record ", index, " in '", path, "': (disk ",
                      rec.disk, ", block ", rec.block, ", len ",
                      rec.numBlocks, ") overflows the 16-bit-disk/"
                      "48-bit-block packed key space");
    }
}

void
encodeHeader(unsigned char *p, const PctInfo &info)
{
    std::memcpy(p, kPctMagic, sizeof(kPctMagic));
    putLe32(p + 8, info.version);
    putLe32(p + 12, info.numDisks);
    putLe64(p + 16, info.records);
    putLe64(p + 24, info.checksum);
    putLe64(p + 32, std::bit_cast<uint64_t>(info.endTime));
}

PctInfo
decodeHeader(const unsigned char *p, const std::string &path,
             uint64_t file_size)
{
    if (std::memcmp(p, kPctMagic, sizeof(kPctMagic)) != 0)
        PACACHE_FATAL("'", path, "' is not a .pct trace (bad magic)");
    PctInfo info;
    info.version = getLe32(p + 8);
    if (info.version != kPctVersion) {
        PACACHE_FATAL("'", path, "' has unsupported .pct version ",
                      info.version, " (expected ", kPctVersion, ")");
    }
    info.numDisks = getLe32(p + 12);
    info.records = getLe64(p + 16);
    info.checksum = getLe64(p + 24);
    info.endTime = std::bit_cast<Time>(getLe64(p + 32));
    // Bound the count before multiplying: records * kPctRecordBytes
    // wraps, and a count near 2^61 would wrap onto the real size.
    const uint64_t room = (file_size - kPctHeaderBytes) / kPctRecordBytes;
    if (info.records > room ||
        file_size != kPctHeaderBytes + info.records * kPctRecordBytes) {
        PACACHE_FATAL("'", path, "' is truncated or oversized: header "
                      "promises ", info.records, " records, file has ",
                      file_size, " bytes (room for ", room, ")");
    }
    return info;
}

uint64_t
fileSize(std::ifstream &in, const std::string &path)
{
    in.seekg(0, std::ios::end);
    const std::streamoff size = in.tellg();
    if (size < 0)
        PACACHE_FATAL("cannot determine size of '", path, "'");
    in.seekg(0);
    return static_cast<uint64_t>(size);
}

/** Page size for madvise range rounding. */
std::size_t
pageSize()
{
    static const std::size_t page = [] {
        const long v = ::sysconf(_SC_PAGESIZE);
        return v > 0 ? static_cast<std::size_t>(v)
                     : std::size_t(4096);
    }();
    return page;
}

/**
 * madvise the pages *fully inside* [p, p+n) for DONTNEED (partial
 * edge pages must stay: their other halves may still be live), or
 * the pages *covering* it for WILLNEED.
 */
void
adviseRange(const unsigned char *map_base, const unsigned char *p,
            std::size_t n, int advice)
{
    const std::size_t page = pageSize();
    const auto base_addr = reinterpret_cast<std::uintptr_t>(map_base);
    std::uintptr_t lo = reinterpret_cast<std::uintptr_t>(p);
    std::uintptr_t hi = lo + n;
    if (advice == MADV_DONTNEED) {
        lo = (lo + page - 1) & ~(page - 1);
        hi &= ~(page - 1);
    } else {
        lo &= ~(page - 1);
        hi = (hi + page - 1) & ~(page - 1);
    }
    lo = std::max(lo, base_addr);
    if (hi <= lo)
        return;
    // Best effort: a failed hint costs performance, not correctness.
    ::madvise(reinterpret_cast<void *>(lo), hi - lo, advice);
}

/** Checksum chunk: records hashed (and released) per madvise batch. */
constexpr uint64_t kChecksumChunkRecords = 1 << 19; // 12 MiB

/**
 * Fold records [from, info.records) of a mapping into @p h, then
 * check the sum against the header (fatal on a mismatch). Each
 * hashed chunk is released, so the pass never holds more than one
 * chunk resident.
 */
void
settleChecksum(uint64_t h, uint64_t from, const unsigned char *map_base,
               const unsigned char *records, const PctInfo &info,
               const std::string &path)
{
    for (uint64_t first = from; first < info.records;
         first += kChecksumChunkRecords) {
        const uint64_t n =
            std::min<uint64_t>(kChecksumChunkRecords,
                               info.records - first);
        const unsigned char *p = records + first * kPctRecordBytes;
        h = fnv1a(h, p, static_cast<std::size_t>(n * kPctRecordBytes));
        adviseRange(map_base, p,
                    static_cast<std::size_t>(n * kPctRecordBytes),
                    MADV_DONTNEED);
    }
    if (h != info.checksum)
        PACACHE_FATAL("checksum mismatch in '", path,
                      "': file is corrupt");
}

/** Forward-replay hint cadence: records between madvise batches. */
constexpr uint64_t kReplayHintRecords = 1 << 16; // 1.5 MiB

} // namespace

PctWriter::PctWriter(const std::string &path_)
    : path(path_), out(path_, std::ios::binary | std::ios::trunc),
      fnv(kFnvOffset)
{
    if (!out)
        PACACHE_FATAL("cannot open '", path, "' for writing");
    buf.reserve(kWriteBufRecords * kPctRecordBytes);
    // Header placeholder; finish() seeks back and fills it in.
    const unsigned char zeros[kPctHeaderBytes] = {};
    out.write(reinterpret_cast<const char *>(zeros), kPctHeaderBytes);
}

PctWriter::~PctWriter()
{
    if (finished)
        return;
    try {
        finish();
    } catch (const std::exception &e) {
        PACACHE_WARN("PctWriter('", path, "'): ", e.what());
    }
}

void
PctWriter::append(const TraceRecord &rec)
{
    PACACHE_ASSERT(!finished, "append after finish");
    PACACHE_ASSERT(rec.numBlocks > 0 && rec.numBlocks <= 0x7fffffffu,
                   "record length out of range");
    PACACHE_ASSERT(count == 0 || rec.time >= lastTime,
                   "records must be appended in time order");
    const std::size_t off = buf.size();
    buf.resize(off + kPctRecordBytes);
    encodeRecord(buf.data() + off, rec);
    fnv = fnv1a(fnv, buf.data() + off, kPctRecordBytes);
    ++count;
    lastTime = rec.time;
    numDisks = std::max<uint32_t>(numDisks, rec.disk + 1);
    if (buf.size() >= kWriteBufRecords * kPctRecordBytes)
        flushBuffer();
}

void
PctWriter::flushBuffer()
{
    if (buf.empty())
        return;
    out.write(reinterpret_cast<const char *>(buf.data()),
              static_cast<std::streamsize>(buf.size()));
    buf.clear();
}

PctInfo
PctWriter::finish()
{
    PACACHE_ASSERT(!finished, "finish called twice");
    finished = true;
    flushBuffer();

    PctInfo info;
    info.numDisks = numDisks;
    info.records = count;
    info.checksum = fnv;
    info.endTime = lastTime;

    unsigned char header[kPctHeaderBytes];
    encodeHeader(header, info);
    out.seekp(0);
    out.write(reinterpret_cast<const char *>(header), kPctHeaderBytes);
    out.flush();
    if (!out)
        PACACHE_FATAL("write error on '", path, "'");
    out.close();
    return info;
}

PctInfo
writePct(const std::string &path, TraceSource &src)
{
    PctWriter writer(path);
    TraceRecord rec;
    while (src.next(rec))
        writer.append(rec);
    return writer.finish();
}

PctInfo
readPctInfo(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        PACACHE_FATAL("cannot open trace file '", path, "'");
    const uint64_t size = fileSize(in, path);
    if (size < kPctHeaderBytes)
        PACACHE_FATAL("'", path, "' is too small to be a .pct trace");
    unsigned char header[kPctHeaderBytes];
    in.read(reinterpret_cast<char *>(header), kPctHeaderBytes);
    if (!in)
        PACACHE_FATAL("read error on '", path, "'");
    return decodeHeader(header, path, size);
}

namespace
{

/** Shared open+map+header for the mmap readers. */
const unsigned char *
mapPctFile(const std::string &path, std::size_t &map_len,
           PctInfo &info)
{
    const int fd = ::open(path.c_str(), O_RDONLY);
    if (fd < 0)
        PACACHE_FATAL("cannot open trace file '", path, "'");
    struct stat st;
    if (::fstat(fd, &st) != 0) {
        ::close(fd);
        PACACHE_FATAL("cannot stat '", path, "'");
    }
    map_len = static_cast<std::size_t>(st.st_size);
    if (map_len < kPctHeaderBytes) {
        ::close(fd);
        PACACHE_FATAL("'", path, "' is too small to be a .pct trace");
    }
    // Read the header from the file, not through the mapping: a fault
    // on the mapping's first page can map the whole page-cache folio
    // around it (up to MiBs), which would stay resident until a pass
    // first releases pages, e.g. through a whole oracle build.
    unsigned char header[kPctHeaderBytes];
    if (::pread(fd, header, kPctHeaderBytes, 0) !=
        static_cast<ssize_t>(kPctHeaderBytes)) {
        ::close(fd);
        PACACHE_FATAL("read error on '", path, "'");
    }
    try {
        info = decodeHeader(header, path, map_len);
    } catch (...) {
        ::close(fd);
        throw;
    }
    void *map = ::mmap(nullptr, map_len, PROT_READ, MAP_PRIVATE, fd, 0);
    ::close(fd); // the mapping keeps its own reference
    if (map == MAP_FAILED)
        PACACHE_FATAL("cannot mmap '", path, "'");
    return static_cast<const unsigned char *>(map);
}

} // namespace

PctMmapSource::PctMmapSource(const std::string &path_,
                             PctReadOptions opts)
    : path(path_), folding(opts.verifyChecksum), sum(kFnvOffset)
{
    base = mapPctFile(path, mapLen, info);
    ::madvise(const_cast<unsigned char *>(base), mapLen,
              MADV_SEQUENTIAL);
    records = base + kPctHeaderBytes;
    if (folding && info.records == 0) {
        // No record will settle the sum of an empty file.
        settleChecksum(sum, 0, base, records, info, path);
        folding = false;
    }
}

PctMmapSource::~PctMmapSource()
{
    if (base)
        ::munmap(const_cast<unsigned char *>(base), mapLen);
}

bool
PctMmapSource::next(TraceRecord &out)
{
    if (pos >= info.records)
        return false;
    const unsigned char *p = records + pos * kPctRecordBytes;
    if (folding) {
        sum = fnv1a(sum, p, kPctRecordBytes);
        // The last record, or one too long to hand on unchecked,
        // settles the sum (hashing whatever is left) before it is
        // decoded.
        if (pos + 1 == info.records ||
            (getLe32(p + kLenOffset) & 0x7fffffffu) > kUncheckedBlocks) {
            settleChecksum(sum, pos + 1, base, records, info, path);
            folding = false;
        }
    }
    decodeRecord(p, out, path, pos, lastTime, info.numDisks);
    lastTime = out.time;
    ++pos;
    if (pos - releaseMark >= kReplayHintRecords) {
        // Forward replay never revisits consumed records: drop the
        // pages behind the cursor and pre-fault the next batch.
        adviseRange(base, records + releaseMark * kPctRecordBytes,
                    static_cast<std::size_t>((pos - releaseMark) *
                                             kPctRecordBytes),
                    MADV_DONTNEED);
        if (pos < info.records) {
            const uint64_t ahead = std::min<uint64_t>(
                kReplayHintRecords, info.records - pos);
            adviseRange(base, records + pos * kPctRecordBytes,
                        static_cast<std::size_t>(ahead *
                                                 kPctRecordBytes),
                        MADV_WILLNEED);
        }
        releaseMark = pos;
    }
    return true;
}

void
PctMmapSource::rewind()
{
    pos = 0;
    releaseMark = 0;
    lastTime = 0;
    sum = kFnvOffset;
}

PctMapping::PctMapping(const std::string &path_) : path(path_)
{
    base = mapPctFile(path, mapLen, info);
    records = base + kPctHeaderBytes;
}

PctMapping::~PctMapping()
{
    if (base)
        ::munmap(const_cast<unsigned char *>(base), mapLen);
}

void
PctMapping::record(uint64_t index, TraceRecord &out,
                   Time not_before) const
{
    PACACHE_ASSERT(index < info.records,
                   ".pct record index out of range");
    decodeRecord(records + index * kPctRecordBytes, out, path, index,
                 not_before, info.numDisks);
}

uint32_t
PctMapping::diskOf(uint64_t index) const
{
    PACACHE_ASSERT(index < info.records,
                   ".pct record index out of range");
    const uint32_t disk =
        getLe32(records + index * kPctRecordBytes + kDiskOffset);
    checkDisk(disk, path, index, info.numDisks);
    return disk;
}

void
PctMapping::dropRange(uint64_t first, uint64_t count) const
{
    if (count == 0)
        return;
    adviseRange(base, records + first * kPctRecordBytes,
                static_cast<std::size_t>(count * kPctRecordBytes),
                MADV_DONTNEED);
}

void
PctMapping::verifyChecksum() const
{
    settleChecksum(kFnvOffset, 0, base, records, info, path);
}

} // namespace pacache::tracefmt
