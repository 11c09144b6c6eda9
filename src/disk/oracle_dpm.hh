/**
 * @file
 * Oracle disk power management (paper Section 2.2).
 *
 * Oracle DPM knows the length of every idle gap in advance: after
 * each request it parks the disk in the mode minimizing E_i(gap) (the
 * lower envelope of the energy lines) and spins the disk up *just in
 * time* for the next request, so response times are unaffected.
 *
 * Because trace-driven arrival times do not depend on disk latency, a
 * gap's length is final the moment the request that ends it arrives.
 * OracleDpm therefore never demotes — the disk it drives stays at
 * full speed, so it sees exactly the gaps and service times of an
 * always-on run — and prices each gap with the envelope when the disk
 * reports it closed. The only per-disk state is one EnergyStats.
 */

#ifndef PACACHE_DISK_ORACLE_DPM_HH
#define PACACHE_DISK_ORACLE_DPM_HH

#include <vector>

#include "disk/dpm.hh"
#include "disk/power_model.hh"
#include "stats/energy_stats.hh"

namespace pacache
{

/** Oracle DPM: no demotions, envelope pricing per closed gap. */
class OracleDpm : public Dpm
{
  public:
    explicit OracleDpm(const PowerModel &pm) : powerModel(&pm) {}

    std::optional<Demotion>
    nextDemotion(DiskId, std::size_t, Time) const override
    {
        return std::nullopt;
    }

    /**
     * Price a closed gap: the full round trip of the best mode, its
     * spin-up attributed to @p cause (the request that ended the gap).
     */
    void onIdleEnd(DiskId disk, std::size_t mode_at_wake, Time gap,
                   WakeCause cause) override;

    /**
     * Price the trailing gap: parked in the best mode, with no
     * spin-up ever paid.
     */
    void onTrailingIdle(DiskId disk, Time gap) override;

    const char *name() const override { return "oracle"; }

    /**
     * Oracle energy of @p disk so far: the gaps priced here, plus the
     * service energy, busy time and request count carried over
     * unchanged from the disk's own measurement @p measured
     * (Disk::energy()).
     */
    EnergyStats energy(DiskId disk, const EnergyStats &measured) const;

  private:
    EnergyStats &books(DiskId disk);

    const PowerModel *powerModel;
    std::vector<EnergyStats> priced; //!< per disk, lazily grown
};

} // namespace pacache

#endif // PACACHE_DISK_ORACLE_DPM_HH
