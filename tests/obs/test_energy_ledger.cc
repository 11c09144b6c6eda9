#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "core/experiment.hh"
#include "support/json_at.hh"
#include "obs/energy_ledger.hh"
#include "trace/workloads.hh"
#include "util/json.hh"

namespace pacache::obs
{
namespace
{

using test::at;

/** A hand-built breakdown whose rows reconcile exactly. */
EnergyStats
consistentStats()
{
    EnergyStats s(3);
    s.serviceEnergy = 120.0;
    s.idleEnergyPerMode = {40.0, 12.5, 3.25};
    s.spinDownEnergy = 6.0;
    s.spinUpEnergy = 27.0;
    s.spinUps = 3;
    s.attributeSpinUp(WakeCause::DemandColdMiss, 9.0);
    s.attributeSpinUp(WakeCause::CapacityMiss, 9.0);
    s.attributeSpinUp(WakeCause::EvictionWriteback, 9.0);
    return s;
}

TEST(EnergyLedgerTest, ConsistentStatsConserve)
{
    const EnergyStats s = consistentStats();
    EXPECT_LE(ledgerRelError(s), kLedgerConservationTol);

    EnergyLedger ledger({"ACTIVE", "IDLE", "STANDBY"});
    ledger.addDisk("disk0", s);
    ledger.addDisk("disk1", s);
    EXPECT_TRUE(ledger.conserves());
    EXPECT_DOUBLE_EQ(ledger.total().spinUpEnergy, 54.0);
    EXPECT_EQ(ledger.total().spinUps, 6u);
}

TEST(EnergyLedgerTest, CountMismatchIsAFullViolation)
{
    EnergyStats s = consistentStats();
    ++s.spinUps; // one transition never attributed
    EXPECT_DOUBLE_EQ(ledgerRelError(s), 1.0);

    EnergyLedger ledger;
    ledger.addDisk("disk0", s);
    EXPECT_FALSE(ledger.conserves());
}

TEST(EnergyLedgerTest, EnergyMismatchScalesRelatively)
{
    EnergyStats s = consistentStats();
    s.spinUpEnergyByCause[0] += 1.0; // cause rows drift from total
    const double err = ledgerRelError(s);
    EXPECT_GT(err, kLedgerConservationTol);
    EXPECT_LT(err, 1.0);
}

TEST(EnergyLedgerTest, MaxRelErrorCoversDisksAndAggregate)
{
    EnergyStats bad = consistentStats();
    ++bad.spinUps;
    const std::vector<EnergyStats> disks{consistentStats(), bad};
    EXPECT_DOUBLE_EQ(ledgerMaxRelError(disks), 1.0);

    const std::vector<EnergyStats> good{consistentStats(),
                                        consistentStats()};
    EXPECT_LE(ledgerMaxRelError(good), kLedgerConservationTol);
}

TEST(EnergyLedgerTest, JsonSchemaAndReconciliation)
{
    EnergyLedger ledger({"ACTIVE", "IDLE", "STANDBY"});
    ledger.addDisk("disk0", consistentStats());

    std::ostringstream os;
    {
        JsonWriter json(os);
        ledger.writeJsonValue(json);
        json.finish();
    }
    const JsonValue doc = JsonValue::parse(os.str());
    ASSERT_TRUE(doc.isObject());
    EXPECT_EQ(at(doc, "mode_names").asArray().size(), 3u);
    const JsonValue &disk = at(doc, "disks", "disk0");
    EXPECT_DOUBLE_EQ(at(disk, "active_j").asNumber(), 120.0);
    EXPECT_DOUBLE_EQ(at(disk, "idle_per_mode_j", "IDLE").asNumber(),
                     12.5);
    EXPECT_DOUBLE_EQ(at(disk, "spinup_j").asNumber(), 27.0);
    EXPECT_DOUBLE_EQ(
        at(disk, "spinups_by_cause", "capacity_miss").asNumber(), 1.0);
    EXPECT_DOUBLE_EQ(
        at(disk, "spinup_energy_by_cause_j", "eviction_writeback")
            .asNumber(),
        9.0);
    // Rows reconcile: active + idle + spinup + spindown == total_j.
    const double rows = at(disk, "active_j").asNumber() + 40.0 + 12.5 +
                        3.25 + at(disk, "spinup_j").asNumber() +
                        at(disk, "spindown_j").asNumber();
    EXPECT_NEAR(rows, at(disk, "total_j").asNumber(),
                1e-9 * at(disk, "total_j").asNumber());
    EXPECT_TRUE(at(doc, "conserves").asBool());
    EXPECT_LE(at(doc, "max_conservation_rel_error").asNumber(),
              kLedgerConservationTol);
}

TEST(EnergyLedgerTest, TableReportsConservationVerdict)
{
    EnergyLedger ledger;
    ledger.addDisk("disk0", consistentStats());
    std::ostringstream os;
    ledger.writeTable(os);
    const std::string text = os.str();
    EXPECT_NE(text.find("energy ledger"), std::string::npos);
    EXPECT_NE(text.find("demand_cold_miss"), std::string::npos);
    EXPECT_NE(text.find("(ok)"), std::string::npos);
    EXPECT_EQ(text.find("VIOLATED"), std::string::npos);
}

/** End to end: a real simulated run's ledger conserves per disk. */
TEST(EnergyLedgerTest, SimulatedRunsConserveAcrossWritePolicies)
{
    OltpParams params;
    params.duration = 1200.0;
    const Trace trace = makeOltpTrace(params);
    for (const WritePolicy wp :
         {WritePolicy::WriteThrough, WritePolicy::WriteBack,
          WritePolicy::WriteBackEagerUpdate,
          WritePolicy::WriteThroughDeferredUpdate}) {
        ExperimentConfig cfg;
        cfg.policy = PolicyKind::LRU;
        cfg.dpm = DpmChoice::Practical;
        cfg.storage.writePolicy = wp;
        cfg.cacheBlocks = 256;
        const ExperimentResult r = runExperiment(trace, cfg);
        EXPECT_LE(ledgerMaxRelError(r.perDisk), kLedgerConservationTol)
            << "write policy " << static_cast<int>(wp);
    }
}

TEST(EnergyLedgerTest, OraclePricingConserves)
{
    OltpParams params;
    params.duration = 1200.0;
    const Trace trace = makeOltpTrace(params);
    ExperimentConfig cfg;
    cfg.policy = PolicyKind::LRU;
    cfg.dpm = DpmChoice::Oracle;
    cfg.cacheBlocks = 256;
    const ExperimentResult r = runExperiment(trace, cfg);
    EXPECT_LE(ledgerMaxRelError(r.perDisk), kLedgerConservationTol);
}

} // namespace
} // namespace pacache::obs
