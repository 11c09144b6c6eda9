/**
 * @file
 * The progress meter counts trace records in both numerator and
 * denominator, so a streamed run whose records span several blocks
 * ends at 100.0%, and a source without a size hint prints no
 * percentage at all.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "core/experiment.hh"
#include "obs/observer.hh"
#include "tracefmt/trace_source.hh"

namespace pacache::obs
{
namespace
{

constexpr int kRecords = 3000;

/** Every record is an 8-block run. */
Trace
multiBlockTrace()
{
    Trace t;
    for (int i = 0; i < kRecords; ++i) {
        t.append({0.01 * i, static_cast<DiskId>(i % 2),
                  static_cast<BlockNum>(8 * i), 8, i % 3 == 0});
    }
    return t;
}

/** A memory source that, like a text trace, hints no size or end. */
class HintlessSource : public tracefmt::MemorySource
{
  public:
    using MemorySource::MemorySource;
    uint64_t sizeHint() const override { return kUnknown; }
    Time endTimeHint() const override { return -1; }
};

/** Stream @p src with progress on; return the final progress line. */
std::string
finalProgressLine(tracefmt::TraceSource &src)
{
    std::ostringstream err;
    SimObserver observer;
    observer.enableProgress(err);
    ExperimentConfig cfg;
    cfg.cacheBlocks = 256;
    cfg.observer = &observer;
    runExperiment(src, cfg);
    const std::string out = err.str();
    return out.substr(out.rfind('\r') + 1);
}

TEST(ProgressMeter, StreamedMultiBlockRecordsEndAtHundredPercent)
{
    const Trace t = multiBlockTrace();
    tracefmt::MemorySource src(t);
    const std::string line = finalProgressLine(src);
    EXPECT_NE(line.find("(100.0%)"), std::string::npos) << line;
    EXPECT_NE(line.find("3000/3000 records"), std::string::npos) << line;
}

TEST(ProgressMeter, NoSizeHintPrintsNoPercentage)
{
    const Trace t = multiBlockTrace();
    HintlessSource src(t);
    const std::string line = finalProgressLine(src);
    EXPECT_EQ(line.find('%'), std::string::npos) << line;
    EXPECT_NE(line.find(" 3000 records"), std::string::npos) << line;
}

} // namespace
} // namespace pacache::obs
