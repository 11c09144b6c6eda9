/**
 * @file
 * Synthetic trace generation (paper Section 6, Table 3).
 *
 * Spatial locality is controlled by the probabilities of sequential,
 * local, and random accesses; temporal locality by a Zipf
 * distribution over stack distances (a random access re-references
 * the d-th most recently used block with Zipf-distributed d).
 * Arrivals follow either an Exponential distribution (Poisson, no
 * burstiness) or a Pareto distribution with finite mean and infinite
 * variance (bursty), as in the paper.
 */

#ifndef PACACHE_TRACE_SYNTHETIC_HH
#define PACACHE_TRACE_SYNTHETIC_HH

#include <cstdint>
#include <vector>

#include "trace/trace.hh"
#include "util/random.hh"

namespace pacache
{

/** Inter-arrival time model. */
struct ArrivalModel
{
    enum class Kind { Exponential, Pareto };

    Kind kind = Kind::Exponential;
    double meanMs = 250.0;     //!< mean inter-arrival time
    double paretoShape = 1.5;  //!< 1 < shape < 2: finite mean,
                               //!< infinite variance

    /** Draw one inter-arrival time in seconds. */
    Time sample(Rng &rng) const;

    static ArrivalModel
    exponential(double mean_ms)
    {
        return ArrivalModel{Kind::Exponential, mean_ms, 1.5};
    }

    static ArrivalModel
    pareto(double mean_ms, double shape = 1.5)
    {
        return ArrivalModel{Kind::Pareto, mean_ms, shape};
    }
};

/**
 * Per-stream address generator implementing the Table-3 spatial and
 * temporal locality model over a per-disk block footprint.
 */
class AddressGenerator
{
  public:
    struct Params
    {
        uint64_t footprintBlocks = 1u << 20; //!< addressable blocks
        double seqProb = 0.1;   //!< P(sequential access)
        double localProb = 0.2; //!< P(local access)
        uint32_t maxLocalDistance = 100; //!< blocks
        double reuseProb = 0.3; //!< P(random access re-references the
                                //!< stack) — temporal locality knob
        double zipfTheta = 0.9; //!< stack-distance skew
        std::size_t stackSize = 1u << 14; //!< reuse-stack depth
    };

    explicit AddressGenerator(const Params &params);

    /** Draw the next block address. */
    BlockNum next(Rng &rng);

    const Params &params() const { return p; }

  private:
    Params p;
    ZipfSampler zipf;
    std::vector<BlockNum> stack; //!< ring buffer of recent addresses
    std::size_t head = 0;        //!< next slot to overwrite
    std::size_t filled = 0;
    BlockNum last = 0;

    void push(BlockNum b);
};

/** Table-3 style single-stream workload parameters. */
struct SyntheticParams
{
    uint64_t numRequests = 100000;
    uint32_t numDisks = 20;
    ArrivalModel arrival = ArrivalModel::exponential(250.0);
    double writeRatio = 0.2;
    AddressGenerator::Params address; //!< per-disk address model
    uint64_t seed = 42;
    /**
     * Relative per-disk traffic weights (multi-disk skew). Empty:
     * disks are chosen uniformly — the historical behavior, with the
     * historical RNG consumption, so existing seeds replay unchanged.
     * Otherwise must have numDisks non-negative entries with a
     * positive sum; disk d receives a weights[d]-proportional share.
     */
    std::vector<double> diskWeights;
};

/**
 * Generate a synthetic trace: one global arrival process, target
 * disks chosen uniformly, per-disk address streams.
 */
Trace generateSynthetic(const SyntheticParams &params);

/** Per-disk stream description for composite workloads. */
struct DiskStream
{
    ArrivalModel arrival = ArrivalModel::exponential(1000.0);
    double writeRatio = 0.2;
    AddressGenerator::Params address;
};

/**
 * Generate a composite trace from independent per-disk streams,
 * merged in time order; stream i drives disk i for @p duration
 * seconds. The StreamingSyntheticSource (trace/stream_gen.hh) over
 * the same arguments, read into memory.
 */
Trace generatePerDisk(const std::vector<DiskStream> &streams,
                      Time duration, uint64_t seed = 42);

} // namespace pacache

#endif // PACACHE_TRACE_SYNTHETIC_HH
