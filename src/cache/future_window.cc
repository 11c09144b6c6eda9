#include "cache/future_window.hh"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <utility>

#include "tracefmt/pct.hh"
#include "util/flat_map.hh"
#include "util/logging.hh"
#include "util/temp_file.hh"

namespace pacache
{

namespace
{

/** Records decoded between page-release batches in the scans. */
constexpr uint64_t kScanDropRecords = 1 << 20;

void
pwriteFully(int fd, const void *data, std::size_t n, uint64_t offset)
{
    const char *p = static_cast<const char *>(data);
    while (n > 0) {
        const ssize_t w =
            ::pwrite(fd, p, n, static_cast<off_t>(offset));
        if (w < 0) {
            if (errno == EINTR)
                continue;
            PACACHE_FATAL("sidecar write failed: ",
                          std::strerror(errno));
        }
        p += w;
        n -= static_cast<std::size_t>(w);
        offset += static_cast<uint64_t>(w);
    }
}

void
preadFully(int fd, void *data, std::size_t n, uint64_t offset)
{
    char *p = static_cast<char *>(data);
    while (n > 0) {
        const ssize_t r =
            ::pread(fd, p, n, static_cast<off_t>(offset));
        if (r <= 0) {
            if (r < 0 && errno == EINTR)
                continue;
            PACACHE_FATAL("sidecar read failed: ",
                          r < 0 ? std::strerror(errno)
                              : "unexpected end of file");
        }
        p += r;
        n -= static_cast<std::size_t>(r);
        offset += static_cast<uint64_t>(r);
    }
}

} // namespace

WindowedFuture::WindowedFuture(const std::vector<BlockAccess> &accesses)
    : total(accesses.size())
{
    // One backward pass: last_seen maps block -> the most recent
    // (i.e. next, in forward order) access index. Keys are the packed
    // 64-bit ids. The table holds one entry per *unique block*, so it
    // is sized to half the stream (covers even reuse-poor streams
    // like OLTP at 55% unique) rather than the whole of it: a
    // stream-sized table would spread the random probes over twice
    // the memory for no fewer collisions, while under-sizing forces a
    // mid-scan rehash. The 32-bit mapped index keeps slots at 16
    // bytes.
    PACACHE_ASSERT(total < UINT32_MAX,
                   "trace too large for 32-bit future indices");
    window.resize(total);
    std::vector<bool> first(total);
    {
        FlatMap<std::uint64_t, std::uint32_t> last_seen;
        last_seen.reserve(total / 2 + 16);
        for (std::size_t i = total; i-- > 0;) {
            const BlockAccess &a = accesses[i];
            diskCount =
                std::max<std::size_t>(diskCount, a.block.disk + 1);
            lastTime = std::max(lastTime, a.time);
            auto [slot, inserted] = last_seen.emplace(
                a.block.packed(), static_cast<std::uint32_t>(i));
            if (inserted) {
                window[i] = SideEntry{kNever64, 0.0};
            } else {
                window[i] = SideEntry{*slot, accesses[*slot].time};
                *slot = static_cast<std::uint32_t>(i);
            }
        }
        // Entries left in last_seen hold each block's earliest
        // access. Mark them; the map goes before the seeds are
        // emitted, so the two never peak together.
        last_seen.forEach(
            [&](std::uint64_t, std::uint32_t idx) { first[idx] = true; });
        cold.reserve(last_seen.size());
    }
    for (std::size_t i = 0; i < total; ++i) {
        if (first[i])
            cold.push_back(ColdSeed{accesses[i].block.disk, i,
                                    accesses[i].time});
    }
    winCount = total;
    ready = true;
}

WindowedFuture::WindowedFuture(const std::string &pct_path)
    : WindowedFuture(pct_path, Options{})
{
}

WindowedFuture::WindowedFuture(const std::string &pct_path,
                               Options opts_)
    : opts(opts_)
{
    opts.windowEntries = std::max<std::size_t>(opts.windowEntries, 1);
    opts.chunkAccesses = std::max<std::size_t>(opts.chunkAccesses, 1);
    build(pct_path);
}

WindowedFuture::~WindowedFuture()
{
    closeFd();
}

WindowedFuture::WindowedFuture(WindowedFuture &&other) noexcept
{
    *this = std::move(other);
}

WindowedFuture &
WindowedFuture::operator=(WindowedFuture &&other) noexcept
{
    if (this == &other)
        return *this;
    closeFd();
    opts = other.opts;
    sidecarFd = std::exchange(other.sidecarFd, -1);
    total = other.total;
    diskCount = other.diskCount;
    lastTime = other.lastTime;
    ready = std::exchange(other.ready, false);
    cold = std::move(other.cold);
    window = std::move(other.window);
    winBase = other.winBase;
    winCount = other.winCount;
    cursor = other.cursor;
    return *this;
}

void
WindowedFuture::closeFd()
{
    if (sidecarFd >= 0) {
        ::close(sidecarFd);
        sidecarFd = -1;
    }
}

void
WindowedFuture::build(const std::string &pct_path)
{
    // No checksum pass: the replay source verifies the same file on
    // open, and the backward pass decodes (and validates) every
    // record anyway.
    tracefmt::PctReadOptions ropts;
    ropts.verifyChecksum = false;
    tracefmt::PctMapping map(pct_path, ropts);
    const tracefmt::PctInfo &info = map.header();
    lastTime = info.endTime;

    // Forward boundary scan: expanded access count, disk count and
    // the record/access index of every chunk boundary (record()
    // rejects an extent outside the packed key space, located).
    // Pages are released behind the scan.
    struct Bound
    {
        uint64_t firstRecord;
        uint64_t firstAccess;
    };
    std::vector<Bound> bounds;
    uint64_t access = 0;
    uint64_t last_drop = 0;
    TraceRecord rec;
    for (uint64_t r = 0; r < info.records; ++r) {
        map.record(r, rec);
        diskCount = std::max<std::size_t>(diskCount, rec.disk + 1);
        if (bounds.empty() ||
            access - bounds.back().firstAccess >= opts.chunkAccesses)
            bounds.push_back(Bound{r, access});
        access += rec.numBlocks;
        if (r - last_drop >= kScanDropRecords) {
            map.dropRange(last_drop, r - last_drop);
            last_drop = r;
        }
    }
    map.dropRange(last_drop, info.records - last_drop);
    total = static_cast<std::size_t>(access);

    sidecarFd = makeUnlinkedTempFile("pacache-sidecar-");
    if (total > 0 &&
        ::ftruncate(sidecarFd,
                    static_cast<off_t>(access * sizeof(SideEntry))) !=
            0)
        PACACHE_FATAL("cannot size sidecar file: ",
                      std::strerror(errno));

    // Backward pass in reverse chunk order. The carry map holds, for
    // every block seen in the processed suffix, its earliest access
    // there — crossing chunk boundaries is what makes the stitching
    // exact for any window. Entries that survive to the front are
    // the first-ever (cold) references.
    struct Prev
    {
        uint64_t idx;
        double time;
    };
    FlatMap<std::uint64_t, Prev> carry;
    carry.reserve(std::size_t(1) << 16);
    std::vector<std::pair<std::uint64_t, double>> chunk_acc;
    std::vector<SideEntry> sidecar;
    for (std::size_t c = bounds.size(); c-- > 0;) {
        const uint64_t rec_begin = bounds[c].firstRecord;
        const uint64_t rec_end = c + 1 < bounds.size()
                                     ? bounds[c + 1].firstRecord
                                     : info.records;
        const uint64_t acc_begin = bounds[c].firstAccess;
        const uint64_t acc_end = c + 1 < bounds.size()
                                     ? bounds[c + 1].firstAccess
                                     : access;
        const std::size_t count =
            static_cast<std::size_t>(acc_end - acc_begin);
        chunk_acc.clear();
        chunk_acc.reserve(count);
        for (uint64_t r = rec_begin; r < rec_end; ++r) {
            map.record(r, rec);
            for (uint32_t b = 0; b < rec.numBlocks; ++b)
                chunk_acc.emplace_back(
                    BlockId{rec.disk, rec.block + b}.packed(),
                    rec.time);
        }
        sidecar.resize(count);
        for (std::size_t i = count; i-- > 0;) {
            const uint64_t idx = acc_begin + i;
            auto [slot, inserted] = carry.emplace(
                chunk_acc[i].first, Prev{idx, chunk_acc[i].second});
            if (!inserted) {
                sidecar[i] = SideEntry{slot->idx, slot->time};
                *slot = Prev{idx, chunk_acc[i].second};
            } else {
                sidecar[i] = SideEntry{kNever64, 0.0};
            }
        }
        pwriteFully(sidecarFd, sidecar.data(),
                    count * sizeof(SideEntry),
                    acc_begin * sizeof(SideEntry));
        map.dropRange(rec_begin, rec_end - rec_begin);
    }

    // Carry leftovers are each block's first reference.
    cold.reserve(carry.size());
    carry.forEach([&](std::uint64_t packed, const Prev &p) {
        cold.push_back(ColdSeed{BlockId::fromPacked(packed).disk,
                                static_cast<std::size_t>(p.idx),
                                p.time});
    });
    std::sort(cold.begin(), cold.end(),
              [](const ColdSeed &a, const ColdSeed &b) {
                  return a.idx < b.idx;
              });

    window.resize(std::min<std::size_t>(opts.windowEntries,
                                        std::max<std::size_t>(total,
                                                              1)));
    winBase = winCount = 0;
    cursor = 0;
    ready = true;
}

void
WindowedFuture::refill(std::size_t from)
{
    PACACHE_ASSERT(from < total, "access index ", from,
                   " out of range (", total, " accesses)");
    winBase = from;
    winCount = std::min(window.size(), total - from);
    preadFully(sidecarFd, window.data(),
               winCount * sizeof(SideEntry),
               static_cast<uint64_t>(from) * sizeof(SideEntry));
}

} // namespace pacache
