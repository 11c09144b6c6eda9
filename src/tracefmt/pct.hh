/**
 * @file
 * .pct — the pacache compact binary trace format.
 *
 * Layout (everything little-endian):
 *
 *     offset  size  field
 *     0       8     magic "PCTRACE1"
 *     8       4     version (currently 1)
 *     12      4     numDisks (max disk id + 1)
 *     16      8     recordCount
 *     24      8     FNV-1a64 checksum of the record bytes
 *     32      8     endTime (IEEE-754 double, seconds)
 *     40      24*n  records
 *
 * Record (24 bytes): f64 time, u64 block, u32 disk, u32 lenFlags
 * where lenFlags bit 31 is the write flag and bits 0..30 the block
 * count. Fixed-width records make the file mmap-able: the zero-copy
 * reader decodes fields straight out of the mapping with no parsing,
 * no allocation and no read() traffic.
 */

#ifndef PACACHE_TRACEFMT_PCT_HH
#define PACACHE_TRACEFMT_PCT_HH

#include <cstddef>
#include <fstream>
#include <string>
#include <vector>

#include "tracefmt/trace_source.hh"

namespace pacache::tracefmt
{

inline constexpr char kPctMagic[8] = {'P', 'C', 'T', 'R',
                                      'A', 'C', 'E', '1'};
inline constexpr uint32_t kPctVersion = 1;
inline constexpr std::size_t kPctHeaderBytes = 40;
inline constexpr std::size_t kPctRecordBytes = 24;

/** Decoded .pct header. */
struct PctInfo
{
    uint32_t version = kPctVersion;
    uint32_t numDisks = 0;
    uint64_t records = 0;
    uint64_t checksum = 0;
    Time endTime = 0;
};

/** Buffered .pct writer; finish() seeks back and patches the header. */
class PctWriter
{
  public:
    /** Create/truncate @p path (fatal on failure). */
    explicit PctWriter(const std::string &path);
    ~PctWriter();

    PctWriter(const PctWriter &) = delete;
    PctWriter &operator=(const PctWriter &) = delete;

    /** Append one record (must not precede the previous one). */
    void append(const TraceRecord &rec);

    /** Flush, rewrite the header, close; returns the final header. */
    PctInfo finish();

  private:
    void flushBuffer();

    std::string path;
    std::ofstream out;
    std::vector<unsigned char> buf;
    uint64_t count = 0;
    uint64_t fnv;
    uint32_t numDisks = 0;
    Time lastTime = 0;
    bool finished = false;
};

/** Drain @p src into a .pct file at @p path. */
PctInfo writePct(const std::string &path, TraceSource &src);

/** Read and validate just the header of a .pct file. */
PctInfo readPctInfo(const std::string &path);

/**
 * A record of more blocks than this waits for the checksum before a
 * pass hands it on: a damaged length field (up to 2^31 - 1 blocks)
 * would otherwise keep a replay busy for minutes, or fill a 32 GiB
 * oracle sidecar, before the checksum fails. Real requests stay far
 * below it (16 MiB of 4 KiB blocks); a longer one that is sound only
 * waits.
 */
inline constexpr uint32_t kUncheckedBlocks = 1u << 12;

/** Reader options for PctMmapSource. */
struct PctReadOptions
{
    /** Verify the record checksum as the records are decoded. */
    bool verifyChecksum = true;
};

/**
 * Zero-copy .pct reader over an mmap'd file. Every 64Ki records, the
 * forward replay drops the pages behind the cursor (MADV_DONTNEED)
 * and pre-faults the next batch (MADV_WILLNEED), so a sequential pass
 * over a file larger than RAM keeps a bounded resident set. Dropped
 * pages refault from the file (the mapping is read-only), so
 * rewind() stays correct.
 *
 * Opening maps the file and decodes the header only. The checksum
 * folds into next(): each record's bytes join a running FNV-1a sum,
 * which next() settles before it returns the last record, or before
 * it returns a record longer than kUncheckedBlocks (it hashes the
 * rest of the file first). A mismatch throws from that call, so a
 * corrupt file fails once it is read to the end; the records before
 * the failure may already have been returned. rewind() restarts an
 * unsettled sum; once the sum has matched, no pass hashes again.
 */
class PctMmapSource : public TraceSource
{
  public:
    explicit PctMmapSource(const std::string &path,
                           PctReadOptions opts = {});
    ~PctMmapSource();

    PctMmapSource(const PctMmapSource &) = delete;
    PctMmapSource &operator=(const PctMmapSource &) = delete;

    bool next(TraceRecord &out) override;
    void rewind() override;
    const char *formatName() const override { return "pct"; }
    uint64_t sizeHint() const override { return info.records; }
    uint64_t numDisksHint() const override { return info.numDisks; }
    Time endTimeHint() const override { return info.endTime; }
    std::string pctPath() const override { return path; }

    const PctInfo &header() const { return info; }

  private:
    std::string path;
    const unsigned char *base = nullptr; //!< whole mapping
    std::size_t mapLen = 0;
    const unsigned char *records = nullptr;
    PctInfo info;
    uint64_t pos = 0;
    uint64_t releaseMark = 0; //!< first record not yet MADV_DONTNEEDed
    Time lastTime = 0;
    bool folding;  //!< the checksum is wanted and not yet settled
    uint64_t sum;  //!< FNV-1a of records [0, pos) while folding
};

/**
 * Random-access mmap view of a .pct file for out-of-core passes
 * (the windowed-oracle backward walk, the sharded replay's per-shard
 * streams). Unlike the TraceSource readers this exposes record(i)
 * and diskOf(i) at any index plus explicit residency control, so a
 * pass can walk the records backward, or skip the records it does
 * not own, while keeping only the records near it resident.
 */
class PctMapping
{
  public:
    /** Map @p path and decode its header; records are not summed. */
    explicit PctMapping(const std::string &path);
    ~PctMapping();

    PctMapping(const PctMapping &) = delete;
    PctMapping &operator=(const PctMapping &) = delete;

    const PctInfo &header() const { return info; }
    const std::string &pctPath() const { return path; }

    /**
     * Decode record @p index with the sequential reader's checks
     * (fatal, located, on corruption, on a disk beyond the header's
     * count, on an extent outside the packed key space, or on a time
     * before @p not_before). A sequential caller passes its previous
     * record's time; random access has no running clock, and the
     * default floor of 0 keeps the check for negative and NaN times.
     */
    void record(uint64_t index, TraceRecord &out,
                Time not_before = 0) const;

    /**
     * Disk id of record @p index, read without decoding the rest of
     * the record (fatal, located, if beyond the header's count).
     */
    uint32_t diskOf(uint64_t index) const;

    /** MADV_DONTNEED the pages fully inside records [first, first+count). */
    void dropRange(uint64_t first, uint64_t count) const;

    /**
     * Check the record checksum (fatal on a mismatch). The pass
     * releases each hashed chunk, so it never inflates the resident
     * set by the file size.
     */
    void verifyChecksum() const;

  private:
    std::string path;
    const unsigned char *base = nullptr;
    std::size_t mapLen = 0;
    const unsigned char *records = nullptr;
    PctInfo info;
};

} // namespace pacache::tracefmt

#endif // PACACHE_TRACEFMT_PCT_HH
