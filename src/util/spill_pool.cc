#include "util/spill_pool.hh"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "util/logging.hh"
#include "util/temp_file.hh"

namespace pacache
{

SpillPool::SpillPool(std::size_t budget_bytes) : budget(budget_bytes)
{
}

SpillPool::~SpillPool()
{
    if (fd >= 0)
        ::close(fd);
}

std::uint32_t
SpillPool::add(SpillClient *owner, std::uint32_t page,
               std::size_t bytes, bool pinned)
{
    std::uint32_t token;
    if (!freeNodes.empty()) {
        token = freeNodes.back();
        freeNodes.pop_back();
    } else {
        token = static_cast<std::uint32_t>(nodes.size());
        nodes.emplace_back();
    }
    Node &n = nodes[token];
    n.owner = owner;
    n.page = page;
    n.bytes = static_cast<std::uint32_t>(bytes);
    n.pins = pinned ? 1 : 0;
    n.live = true;
    n.referenced = false;
    linkFront(token);
    resident += bytes;
    ++liveNodes;
    enforce();
    return token;
}

void
SpillPool::enforce()
{
    // Second-chance sweep from the cold end, skipping pinned pages.
    // A page touched since the last sweep spends its reference bit
    // and moves to the front instead of spilling. Each pass stops at
    // the node that was the head when it started: demoted pages land
    // in front of that boundary, so a pass visits every page at most
    // once and a just-demoted page cannot be evicted by the same
    // pass. spillPage() may allocate/write slots but never touches
    // the recency list, and no touch() can run mid-sweep, so bits
    // only ever clear here; demote work is bounded by prior touches.
    // The outer loop covers a pass that ends having only demoted.
    while (resident > budget) {
        bool progressed = false;
        std::uint32_t cur = tail;
        const std::uint32_t stopAt = head;
        while (resident > budget && cur != kNoToken) {
            Node &n = nodes[cur];
            const std::uint32_t prev =
                cur == stopAt ? kNoToken : n.prev;
            if (n.pins == 0) {
                if (n.referenced) {
                    n.referenced = false;
                    unlink(cur);
                    linkFront(cur);
                } else {
                    SpillClient *owner = n.owner;
                    const std::uint32_t page = n.page;
                    remove(cur);
                    ++evicted;
                    owner->spillPage(page);
                }
                progressed = true;
            }
            cur = prev;
        }
        if (!progressed)
            break; // everything left is pinned
    }
}

void
SpillPool::ensureFile()
{
    if (fd < 0)
        fd = makeUnlinkedTempFile("pacache-spill-");
}

std::uint64_t
SpillPool::allocSlot(std::size_t bytes)
{
    ensureFile();
    for (auto &[size, list] : slotFree) {
        if (size != bytes)
            continue;
        if (list.empty())
            break;
        const std::uint64_t off = list.back();
        list.pop_back();
        return off;
    }
    const std::uint64_t off = fileEnd;
    fileEnd += bytes;
    return off;
}

void
SpillPool::freeSlot(std::uint64_t offset, std::size_t bytes)
{
    for (auto &[size, list] : slotFree) {
        if (size == bytes) {
            list.push_back(offset);
            return;
        }
    }
    slotFree.emplace_back(bytes,
                          std::vector<std::uint64_t>{offset});
}

void
SpillPool::writeSlot(std::uint64_t offset, const void *data,
                     std::size_t bytes)
{
    PACACHE_ASSERT(fd >= 0, "SpillPool write before allocSlot");
    const char *p = static_cast<const char *>(data);
    while (bytes > 0) {
        const ssize_t w =
            ::pwrite(fd, p, bytes, static_cast<off_t>(offset));
        if (w < 0) {
            if (errno == EINTR)
                continue;
            PACACHE_FATAL("spill write failed: ",
                          std::strerror(errno));
        }
        p += w;
        bytes -= static_cast<std::size_t>(w);
        offset += static_cast<std::uint64_t>(w);
    }
}

void
SpillPool::readSlot(std::uint64_t offset, void *data,
                    std::size_t bytes) const
{
    PACACHE_ASSERT(fd >= 0, "SpillPool read before any write");
    char *p = static_cast<char *>(data);
    while (bytes > 0) {
        const ssize_t r =
            ::pread(fd, p, bytes, static_cast<off_t>(offset));
        if (r <= 0) {
            if (r < 0 && errno == EINTR)
                continue;
            PACACHE_FATAL("spill read failed: ",
                          r < 0 ? std::strerror(errno)
                                : "unexpected end of file");
        }
        p += r;
        bytes -= static_cast<std::size_t>(r);
        offset += static_cast<std::uint64_t>(r);
    }
}

void
SpillPool::checkInvariants() const
{
    std::size_t bytes = 0;
    std::size_t live = 0;
    std::uint32_t prev = kNoToken;
    for (std::uint32_t cur = head; cur != kNoToken;
         cur = nodes[cur].next) {
        const Node &n = nodes[cur];
        PACACHE_ASSERT(n.live, "dead node on SpillPool LRU");
        PACACHE_ASSERT(n.prev == prev, "SpillPool LRU link drift");
        bytes += n.bytes;
        ++live;
        prev = cur;
    }
    PACACHE_ASSERT(prev == tail, "SpillPool tail drift");
    PACACHE_ASSERT(bytes == resident, "SpillPool byte accounting");
    PACACHE_ASSERT(live == liveNodes, "SpillPool node accounting");
}

} // namespace pacache
