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

/** Records walked between page releases (1.5 MiB of mapping). */
constexpr uint64_t kDropRecords = 1 << 16;

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
    : WindowedFuture() // from here a throw runs the destructor, which
                       // closes the sidecar of a failed build
{
    opts = opts_;
    opts.windowEntries = std::max<std::size_t>(opts.windowEntries, 1);
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
    // No checksum pass: the replay source folds the checksum as it
    // decodes the same file, and the walk decodes (and validates)
    // every record anyway. Only a record longer than
    // kUncheckedBlocks waits for the sum: a damaged length field
    // (up to 2^31 - 1 blocks) would otherwise fill a 32 GiB sidecar
    // before the replay could fail.
    tracefmt::PctMapping map(pct_path);
    const tracefmt::PctInfo &info = map.header();
    bool summed = false;
    lastTime = info.endTime;

    sidecarFd = makeUnlinkedTempFile("pacache-sidecar-");

    // One backward walk numbers the accesses from the end of the
    // stream (the last access is ordinal 0), since the total is not
    // known until the walk ends. The carry map holds, for every block
    // seen so far, its earliest access in the walked suffix, so each
    // entry is the global next use. Entries leave through the window,
    // the write buffer here, into the sidecar in walk order; refill()
    // reads them back and turns ordinals into indices. What is left
    // in the carry map is each block's first (cold) reference.
    struct Prev
    {
        uint64_t rev;
        double time;
    };
    FlatMap<std::uint64_t, Prev> carry;
    carry.reserve(std::size_t(1) << 16);
    // Until the walk knows the access count, the record count keeps
    // a short trace from allocating a whole default window.
    window.resize(std::min<uint64_t>(opts.windowEntries,
                                     std::max<uint64_t>(info.records,
                                                        1)));
    std::size_t held = 0;
    uint64_t written = 0;
    const auto flush = [&] {
        pwriteFully(sidecarFd, window.data(), held * sizeof(SideEntry),
                    written * sizeof(SideEntry));
        written += held;
        held = 0;
    };
    uint64_t walked = 0;
    uint64_t kept = info.records; // records [kept, N) are released
    TraceRecord rec;
    for (uint64_t r = info.records; r-- > 0;) {
        map.record(r, rec);
        if (rec.numBlocks > tracefmt::kUncheckedBlocks && !summed) {
            map.verifyChecksum();
            summed = true;
        }
        diskCount = std::max<std::size_t>(diskCount, rec.disk + 1);
        for (uint32_t b = rec.numBlocks; b-- > 0;) {
            auto [slot, inserted] =
                carry.emplace(BlockId{rec.disk, rec.block + b}.packed(),
                              Prev{walked, rec.time});
            if (inserted) {
                window[held] = SideEntry{kNever64, 0.0};
            } else {
                window[held] = SideEntry{slot->rev, slot->time};
                *slot = Prev{walked, rec.time};
            }
            ++walked;
            if (++held == window.size())
                flush();
        }
        if (kept - r >= kDropRecords) {
            map.dropRange(r, kept - r);
            kept = r;
        }
    }
    flush();
    map.dropRange(0, kept);
    total = static_cast<std::size_t>(walked);

    cold.reserve(carry.size());
    carry.forEach([&](std::uint64_t packed, const Prev &p) {
        cold.push_back(ColdSeed{BlockId::fromPacked(packed).disk,
                                static_cast<std::size_t>(total - 1 -
                                                         p.rev),
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
    // Indices [from, from + n) are ordinals [total - from - n,
    // total - from) of the walk, stored last index first.
    winBase = from;
    winCount = std::min(window.size(), total - from);
    preadFully(sidecarFd, window.data(), winCount * sizeof(SideEntry),
               static_cast<uint64_t>(total - from - winCount) *
                   sizeof(SideEntry));
    std::reverse(window.begin(),
                 window.begin() + static_cast<std::ptrdiff_t>(winCount));
    for (std::size_t i = 0; i < winCount; ++i) {
        if (window[i].next != kNever64)
            window[i].next = total - 1 - window[i].next;
    }
}

} // namespace pacache
