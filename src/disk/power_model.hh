/**
 * @file
 * Multi-speed disk power model (paper Section 2, Figures 2 and 4).
 *
 * The model follows the IBM Ultrastar 36Z15 data-sheet constants
 * (paper Table 1) extended with four intermediate rotational speeds
 * (NAP1..NAP4 at 12k/9k/6k/3k RPM) per Gurumurthi et al.'s DRPM
 * proposal. Requests are serviced only at full speed (the paper's
 * "second option"): a disk in any lower mode must spin up to full
 * speed before servicing.
 *
 * Derived-mode scaling. The paper cites DRPM's "linear power and time
 * models". A literally linear power-in-RPM model makes every energy
 * line E_i(t) pass through a single common point, collapsing the
 * Figure-2 lower envelope to just {full-speed idle, standby} and
 * erasing the NAP modes from both Oracle and Practical DPM. We
 * therefore scale transition time/energy linearly in delta-RPM but
 * idle power quadratically in RPM (physically: windage loss grows
 * ~RPM^2..3). This restores the paper's geometry — strictly
 * increasing thresholds t1 < t2 < t3 < t4 with every mode on the
 * envelope — and preserves all qualitative results. See DESIGN.md §3.
 *
 * Definitions used throughout (paper Section 2.2):
 *  - E_i(t) = P_i * t + TE_i : energy if an idle interval of length t
 *    is spent in mode i, where TE_i is the round-trip (spin-down +
 *    spin-up) transition energy for mode i (TE_0 = 0).
 *  - Lower envelope  E*(t) = min_i E_i(t): minimum achievable energy
 *    for an interval of length t (Oracle DPM).
 *  - Savings S_i(t) = E_0(t) - E_i(t); upper envelope S*(t)
 *    (Figure 4).
 *  - Break-even time of mode i: the t with E_0(t) = E_i(t).
 *  - 2-competitive thresholds: the intersection abscissae of
 *    consecutive envelope lines (Irani et al.); Practical DPM demotes
 *    the disk from mode i to i+1 once total idle time reaches the
 *    i/i+1 intersection.
 */

#ifndef PACACHE_DISK_POWER_MODEL_HH
#define PACACHE_DISK_POWER_MODEL_HH

#include <array>
#include <cstddef>
#include <string>
#include <vector>

#include "sim/types.hh"

namespace pacache
{

/**
 * One linear segment of a piecewise idle-energy curve. The segment is
 * active while t < bound (the last segment's bound is +infinity) and
 * evaluates to (base + slope * (t - start)) + tail — an expression
 * shape shared by the envelope lines (base = start = 0, tail = TE_i)
 * and the Practical-DPM walk (base = energy accumulated before the
 * segment, tail = final spin-down + spin-up), so one evaluator prices
 * both and reproduces the legacy per-call walks bit for bit.
 */
struct EnergySegment
{
    Time bound = 0;   //!< active while t < bound
    Time start = 0;   //!< abscissa where this segment begins
    Energy base = 0;  //!< energy accumulated before start
    Power slope = 0;  //!< idle power of the segment's mode
    Energy tail = 0;  //!< transition energy added on top
};

/**
 * One precomputed energy line E_i(t) = slope * t + intercept. The
 * envelope fast path min-scans a flat array of these instead of
 * striding over the string-bearing PowerMode structs and re-adding
 * the transition energy per call. A segment lookup cannot stand in
 * here: within ulps of a line crossing, the floating-point min can
 * pick either line, so bit-identity with the legacy scan requires
 * performing the same min — just over cheaper operands.
 */
struct EnergyLine
{
    Power slope = 0;      //!< mode idle power P_i
    Energy intercept = 0; //!< round-trip transition energy TE_i
};

/**
 * A piecewise-linear idle-energy curve precomputed at PowerModel
 * construction. eval() replaces the per-call mode scans
 * (envelope) and threshold walks (practicalEnergy) on the oracle hot
 * path with a branch-light scan over at most numModes segments plus
 * one fused multiply-add — the closed-form fast path OPG's penalty
 * pricing calls three times per repriced block.
 */
class PiecewiseEnergy
{
  public:
    Energy
    eval(Time t) const
    {
        // Short idle gaps dominate replay pricing, so segment 0 gets
        // a predictable early-out. Deeper gaps resolve branch-free:
        // bounds ascend (last is +inf), so the segment index is the
        // number of bounds <= t, and summing the comparisons avoids a
        // data-dependent mispredict per segment on random gaps.
        const EnergySegment *s = segs.data();
        if (t < s->bound)
            return (s->base + s->slope * (t - s->start)) + s->tail;
        std::size_t idx = 1;
        for (std::size_t i = 1; i < segs.size(); ++i)
            idx += t >= s[i].bound ? 1 : 0;
        // t = +inf counts the last segment's +inf sentinel bound too;
        // clamp onto the last segment — which then prices the gap to
        // +inf — instead of indexing out of bounds.
        if (idx >= segs.size())
            idx = segs.size() - 1;
        s += idx;
        return (s->base + s->slope * (t - s->start)) + s->tail;
    }

    /** Envelope-step index whose segment covers @p t. */
    std::size_t
    segment(Time t) const
    {
        // k + 1 bound: t = +inf matches the last +inf sentinel bound
        // and must still land on the last segment, not run past it.
        std::size_t k = 0;
        while (k + 1 < segs.size() && t >= segs[k].bound)
            ++k;
        return k;
    }

    std::size_t numSegments() const { return segs.size(); }
    const EnergySegment &operator[](std::size_t k) const
    {
        return segs[k];
    }

    void clear() { segs.clear(); }
    void push(const EnergySegment &s) { segs.push_back(s); }

  private:
    std::vector<EnergySegment> segs;
};

/** One idle power mode of a multi-speed disk. */
struct PowerMode
{
    std::string name;       //!< e.g. "idle", "NAP1", "standby"
    double rpm = 0;         //!< rotational speed in this mode
    Power idlePower = 0;    //!< W consumed while parked in this mode
    Time spinUpTime = 0;    //!< s to return to full speed
    Energy spinUpEnergy = 0;    //!< J to return to full speed
    Time spinDownTime = 0;  //!< s to enter this mode from full speed
    Energy spinDownEnergy = 0;  //!< J to enter this mode from full speed

    /** Round-trip (down + up) transition energy TE_i. */
    Energy transitionEnergy() const { return spinDownEnergy + spinUpEnergy; }

    /** Round-trip (down + up) transition time. */
    Time transitionTime() const { return spinDownTime + spinUpTime; }
};

/** Data-sheet constants for a disk (paper Table 1 layout). */
struct DiskSpec
{
    std::string model = "IBM Ultrastar 36Z15";
    double capacityGB = 18.4;
    double maxRpm = 15000;
    double minRpm = 3000;
    double rpmStep = 3000;
    Power activePower = 13.5;   //!< read/write power (W)
    Power seekPower = 13.5;     //!< seek power (W)
    Power idlePower = 10.2;     //!< idle @ max RPM (W)
    Power standbyPower = 2.5;   //!< standby (W)
    Time spinUpTime = 10.9;     //!< standby -> active (s)
    Energy spinUpEnergy = 135;  //!< standby -> active (J)
    Time spinDownTime = 1.5;    //!< active -> standby (s)
    Energy spinDownEnergy = 13; //!< active -> standby (J)

    /** The data-sheet values for the IBM Ultrastar 36Z15. */
    static DiskSpec ultrastar36z15();
};

/** Which idle-period energy function prices the OPG penalties. */
enum class DpmKind
{
    Oracle,    //!< lower envelope E*(t)
    Practical, //!< threshold-based DPM energy
};

/**
 * The full multi-speed power model: an ordered set of idle modes
 * (mode 0 = full-speed idle .. last mode = standby) plus the
 * energy-line machinery described in the file comment.
 */
class PowerModel
{
  public:
    /**
     * Build the model from a disk spec by deriving one mode per RPM
     * step between maxRpm and minRpm, plus standby.
     */
    explicit PowerModel(const DiskSpec &spec = DiskSpec::ultrastar36z15());

    /** Build directly from an explicit mode list (mode 0 first). */
    PowerModel(const DiskSpec &spec, std::vector<PowerMode> modes);

    /** Number of idle modes (including mode 0 and standby). */
    std::size_t numModes() const { return modeList.size(); }

    /** Access mode i (0 = full-speed idle). */
    const PowerMode &mode(std::size_t i) const;

    /** Index of the deepest (standby) mode. */
    std::size_t deepestMode() const { return modeList.size() - 1; }

    const DiskSpec &spec() const { return diskSpec; }

    /** E_i(t) = P_i * t + TE_i. */
    Energy energyLine(std::size_t mode_idx, Time t) const;

    /**
     * Lower envelope E*(t) = min_i E_i(t) (Oracle energy): a min-scan
     * over the flat precomputed line table, with the exact arithmetic
     * and comparison order of the legacy mode scan (bit-identical to
     * envelopeRef for every t, including within ulps of crossings).
     */
    Energy
    envelope(Time t) const
    {
        // Fixed-width min-tree over the padded line table: eight
        // independent evaluations and a three-deep min reduction
        // instead of a serial compare chain whose latency grows with
        // the mode count. Padding lines are {slope 1, DBL_MAX}: at
        // least DBL_MAX for any finite t (so they never win against a
        // real line) and +inf at t = +inf, where a zero-slope pad
        // would turn into 0 * inf = NaN and poison the selects. The
        // minimum of finite positive doubles does not depend on
        // reduction order (ties are the same bit pattern), so the
        // result is bit-identical to the sequential legacy scan.
        if (lineTable.size() <= kLinePad) [[likely]] {
            const EnergyLine *l = linePad.data();
            const Energy e0 = l[0].slope * t + l[0].intercept;
            const Energy e1 = l[1].slope * t + l[1].intercept;
            const Energy e2 = l[2].slope * t + l[2].intercept;
            const Energy e3 = l[3].slope * t + l[3].intercept;
            const Energy e4 = l[4].slope * t + l[4].intercept;
            const Energy e5 = l[5].slope * t + l[5].intercept;
            const Energy e6 = l[6].slope * t + l[6].intercept;
            const Energy e7 = l[7].slope * t + l[7].intercept;
            const Energy a = e0 < e1 ? e0 : e1;
            const Energy b = e2 < e3 ? e2 : e3;
            const Energy c = e4 < e5 ? e4 : e5;
            const Energy d = e6 < e7 ? e6 : e7;
            const Energy ab = a < b ? a : b;
            const Energy cd = c < d ? c : d;
            return ab < cd ? ab : cd;
        }
        const EnergyLine *l = lineTable.data();
        Energy best = l[0].slope * t + l[0].intercept;
        for (std::size_t i = 1; i < lineTable.size(); ++i) {
            const Energy e = l[i].slope * t + l[i].intercept;
            best = e < best ? e : best;
        }
        return best;
    }

    /** argmin_i E_i(t): the mode Oracle DPM picks for a gap of t. */
    std::size_t
    bestMode(Time t) const
    {
        const EnergyLine *l = lineTable.data();
        std::size_t best = 0;
        Energy best_e = l[0].slope * t + l[0].intercept;
        for (std::size_t i = 1; i < lineTable.size(); ++i) {
            const Energy e = l[i].slope * t + l[i].intercept;
            if (e < best_e) {
                best_e = e;
                best = i;
            }
        }
        return best;
    }

    /** Savings line S_i(t) = E_0(t) - E_i(t) (may be negative). */
    Energy savingsLine(std::size_t mode_idx, Time t) const;

    /** Upper savings envelope S*(t) = max_i S_i(t) (Figure 4). */
    Energy maxSavings(Time t) const;

    /**
     * Break-even time of mode i: smallest t with E_i(t) <= E_0(t)
     * (infinite if mode i never pays off).
     */
    Time breakEvenTime(std::size_t mode_idx) const;

    /**
     * Practical DPM demotion thresholds. thresholds()[i] is the total
     * idle time at which the disk moves from envelope step i to step
     * i+1; derived from intersection points of consecutive lines,
     * after pruning modes that never appear on the lower envelope.
     * envelopeModes()[i] names the mode of step i (always starts with
     * mode 0 and ends with the deepest beneficial mode).
     */
    const std::vector<Time> &thresholds() const { return thresholdTimes; }

    /** Modes that actually appear on the lower envelope, in order. */
    const std::vector<std::size_t> &envelopeModes() const
    {
        return envModes;
    }

    /**
     * Energy a threshold-based Practical DPM spends on an idle gap of
     * length t: the disk descends through the envelope modes at the
     * threshold times, then pays the spin-up from whatever mode it
     * reached (plus the step-down energies along the way). Evaluated
     * from the precomputed segment table; bit-identical to the legacy
     * threshold walk (practicalEnergyRef).
     */
    Energy practicalEnergy(Time t) const { return pracTable.eval(t); }

    /** Mode Practical DPM occupies after t seconds of idleness. */
    std::size_t
    practicalModeAt(Time t) const
    {
        return envModes[pracTable.segment(t)];
    }

    /** The precomputed envelope curve (segment boundaries). */
    const PiecewiseEnergy &envelopeTable() const { return envTable; }

    /** The precomputed Practical-DPM curve (pricing fast path). */
    const PiecewiseEnergy &practicalTable() const { return pracTable; }

    /** The flat E_i(t) lines (envelope pricing fast path). */
    const std::vector<EnergyLine> &energyLines() const
    {
        return lineTable;
    }

    /**
     * Reference implementations of the per-call scans the segment
     * tables replaced. Retained so differential tests, NaiveOracle's
     * pricing and micro_opg's pricing panel can verify and price
     * against the original code forever.
     */
    Energy envelopeRef(Time t) const;
    std::size_t bestModeRef(Time t) const;
    Energy practicalEnergyRef(Time t) const;

  private:
    void computeEnvelope();
    void buildEnergyTables();

    DiskSpec diskSpec;
    std::vector<PowerMode> modeList;
    std::vector<std::size_t> envModes;
    std::vector<Time> thresholdTimes;
    PiecewiseEnergy envTable;
    PiecewiseEnergy pracTable;
    std::vector<EnergyLine> lineTable;
    /**
     * lineTable padded to a fixed width with {1, DBL_MAX} lines
     * (positive slope and finite intercept, so no padding line can
     * ever evaluate to NaN — not even at t = +inf), so envelope() can
     * run a constant-shape min-tree. Models with more than kLinePad
     * modes fall back to the dynamic scan.
     */
    static constexpr std::size_t kLinePad = 8;
    std::array<EnergyLine, kLinePad> linePad{};
};

/**
 * A simple 2-mode (idle/standby) power model with configurable
 * transition costs; handy for unit tests and the paper's Figure-3
 * toy example (which assumes instantaneous transitions).
 */
PowerModel makeTwoModeModel(Power idle_power, Power standby_power,
                            Energy spin_up_energy, Time spin_up_time,
                            Energy spin_down_energy, Time spin_down_time);

} // namespace pacache

#endif // PACACHE_DISK_POWER_MODEL_HH
