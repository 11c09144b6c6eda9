#include "disk/oracle_dpm.hh"

#include <algorithm>

namespace pacache
{

EnergyStats &
OracleDpm::books(DiskId disk)
{
    if (disk >= priced.size())
        priced.resize(disk + 1, EnergyStats(powerModel->numModes()));
    return priced[disk];
}

void
OracleDpm::onIdleEnd(DiskId disk, std::size_t, Time gap, WakeCause cause)
{
    // Closed gap: pay the full round trip of the best mode (the
    // paper's E_i(t) = P_i t + TE_i pricing).
    const PowerModel &pm = *powerModel;
    EnergyStats &stats = books(disk);
    const std::size_t m = pm.bestMode(gap);
    const PowerMode &mode = pm.mode(m);
    stats.idleEnergyPerMode[m] += mode.idlePower * gap;
    stats.timePerMode[m] +=
        std::max<Time>(0.0, gap - mode.transitionTime());
    if (m != 0) {
        stats.spinDownEnergy += mode.spinDownEnergy;
        stats.spinDownTime += std::min(mode.spinDownTime, gap);
        stats.spinUpEnergy += mode.spinUpEnergy;
        stats.spinUpTime += std::min(mode.spinUpTime, gap);
        ++stats.spinDowns;
        ++stats.spinUps;
        stats.attributeSpinUp(cause, mode.spinUpEnergy);
    }
}

void
OracleDpm::onTrailingIdle(DiskId disk, Time gap)
{
    // Trailing gap: no further request, so no spin-up is ever paid;
    // pick the mode minimizing park + spin-down energy.
    const PowerModel &pm = *powerModel;
    EnergyStats &stats = books(disk);
    std::size_t best = 0;
    Energy best_e = pm.mode(0).idlePower * gap;
    for (std::size_t i = 1; i < pm.numModes(); ++i) {
        const Energy e =
            pm.mode(i).idlePower * gap + pm.mode(i).spinDownEnergy;
        if (e < best_e) {
            best_e = e;
            best = i;
        }
    }
    const PowerMode &mode = pm.mode(best);
    stats.idleEnergyPerMode[best] += mode.idlePower * gap;
    stats.timePerMode[best] +=
        std::max<Time>(0.0, gap - mode.spinDownTime);
    if (best != 0) {
        stats.spinDownEnergy += mode.spinDownEnergy;
        stats.spinDownTime += std::min(mode.spinDownTime, gap);
        ++stats.spinDowns;
    }
}

EnergyStats
OracleDpm::energy(DiskId disk, const EnergyStats &measured) const
{
    EnergyStats stats = disk < priced.size()
        ? priced[disk]
        : EnergyStats(powerModel->numModes());
    stats.serviceEnergy = measured.serviceEnergy;
    stats.busyTime = measured.busyTime;
    stats.requests = measured.requests;
    return stats;
}

} // namespace pacache
