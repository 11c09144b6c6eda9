#include "obs/observer.hh"

#include <algorithm>
#include <cstdio>
#include <ostream>

#include "util/logging.hh"

namespace pacache::obs
{

void
SimObserver::attachMetrics(MetricRegistry *reg)
{
    registry = reg;
}

void
SimObserver::attachTrace(TraceEventWriter *writer)
{
    traceWriter = writer;
}

void
SimObserver::attachTimeline(TimelineSink *sink, Time interval)
{
    PACACHE_ASSERT(interval > 0, "timeline interval must be positive");
    timeline = sink;
    timelineInterval = interval;
    nextTick = interval;
}

void
SimObserver::enableProgress(std::ostream &err)
{
    progress = &err;
}

void
SimObserver::configureRun(std::size_t num_disks, bool has_log_device,
                          std::vector<std::string> mode_names)
{
    numDisks = num_disks;
    hasLogDevice = has_log_device;
    modeNames = std::move(mode_names);

    const std::size_t tracks = num_disks + (has_log_device ? 1 : 0);
    spans.assign(tracks, OpenSpan{});

    if (traceWriter) {
        for (std::size_t d = 0; d < num_disks; ++d) {
            traceWriter->setTrackName(static_cast<uint32_t>(d),
                                      "disk " + std::to_string(d));
        }
        if (has_log_device) {
            traceWriter->setTrackName(static_cast<uint32_t>(num_disks),
                                      "log device");
        }
    }

    if (registry) {
        cacheAccesses = &registry->counter("cache.accesses");
        cacheHits = &registry->counter("cache.hits");
        cacheEvictionsTotal =
            &registry->counter("cache.evictions.total");
        cacheEvictionsPriority =
            &registry->counter("cache.evictions.priority");
        wtduLogWrites = &registry->counter("wtdu.log_writes");
        paEpochs = &registry->counter("pa.epochs");
        paClassFlips = &registry->counter("pa.class_flips");
        wbeuForcedWakeups = &registry->counter("wbeu.forced_wakeups");
        wtduRegionRecycles =
            &registry->counter("wtdu.region_recycles");
        diskSpinUps.clear();
        diskSpinDowns.clear();
        for (std::size_t d = 0; d < tracks; ++d) {
            const std::string prefix =
                (has_log_device && d == num_disks)
                    ? std::string("log_device")
                    : "disk." + std::to_string(d);
            diskSpinUps.push_back(
                &registry->counter(prefix + ".spinups"));
            diskSpinDowns.push_back(
                &registry->counter(prefix + ".spindowns"));
        }
    }
}

void
SimObserver::nameClassifierTrack()
{
    if (classifierTrackNamed || !traceWriter)
        return;
    traceWriter->setTrackName(classifierTrack(), "pa-classifier");
    classifierTrackNamed = true;
}

// ---- run lifecycle --------------------------------------------------

void
SimObserver::runBegin(uint64_t total_records, Time trace_end)
{
    totalRecords = total_records;
    traceEnd = trace_end;
    if (progress) {
        wallStart = std::chrono::steady_clock::now();
        lastPrint = wallStart;
    }
}

void
SimObserver::requestProcessed(Time now, uint64_t record)
{
    ++processedAccesses;
    processedRecords = record + 1;
    if (timeline && now >= nextTick) {
        while (now >= nextTick) {
            emitTimelineRow(nextTick);
            nextTick += timelineInterval;
        }
    }
    if (progress && (processedAccesses & 0x3FF) == 0)
        printProgress(now, false);
}

void
SimObserver::runEnd(Time horizon)
{
    if (traceWriter) {
        for (std::size_t t = 0; t < spans.size(); ++t) {
            OpenSpan &span = spans[t];
            if (span.open) {
                traceWriter->complete(static_cast<uint32_t>(t),
                                      span.label, span.start, horizon);
                span.open = false;
            }
        }
    }
    if (timeline)
        emitTimelineRow(horizon); // flush the remainder row
    if (progress)
        printProgress(horizon, true);
}

void
SimObserver::emitTimelineRow(Time t_end)
{
    PACACHE_ASSERT(snapshotFn,
                   "timeline attached without a snapshot callback");
    TimelineSnapshot cur;
    snapshotFn(cur);

    TimelineRow row;
    row.index = rowIndex++;
    row.tStart = lastRowEnd;
    row.tEnd = t_end;
    row.accesses = cur.accesses - prevSnapshot.accesses;
    row.hits = cur.hits - prevSnapshot.hits;

    row.missesPerDisk.resize(cur.missesPerDisk.size(), 0);
    prevSnapshot.missesPerDisk.resize(cur.missesPerDisk.size(), 0);
    for (std::size_t d = 0; d < cur.missesPerDisk.size(); ++d) {
        row.missesPerDisk[d] =
            cur.missesPerDisk[d] - prevSnapshot.missesPerDisk[d];
    }

    row.idleEnergyPerMode.resize(cur.idleEnergyPerMode.size(), 0.0);
    prevSnapshot.idleEnergyPerMode.resize(cur.idleEnergyPerMode.size(),
                                          0.0);
    for (std::size_t m = 0; m < cur.idleEnergyPerMode.size(); ++m) {
        row.idleEnergyPerMode[m] =
            cur.idleEnergyPerMode[m] - prevSnapshot.idleEnergyPerMode[m];
    }

    row.serviceEnergy = cur.serviceEnergy - prevSnapshot.serviceEnergy;
    row.spinUpEnergy = cur.spinUpEnergy - prevSnapshot.spinUpEnergy;
    row.spinDownEnergy =
        cur.spinDownEnergy - prevSnapshot.spinDownEnergy;
    row.spinUps = cur.spinUps - prevSnapshot.spinUps;
    row.spinDowns = cur.spinDowns - prevSnapshot.spinDowns;
    row.responseCount = cur.responseCount - prevSnapshot.responseCount;
    row.responseSum = cur.responseSum - prevSnapshot.responseSum;
    row.prioritySet = cur.prioritySet;

    timeline->emit(row);
    prevSnapshot = std::move(cur);
    lastRowEnd = t_end;
}

void
SimObserver::printProgress(Time now, bool final)
{
    const auto wall = std::chrono::steady_clock::now();
    if (!final) {
        const std::chrono::duration<double> since = wall - lastPrint;
        if (since.count() < 0.25)
            return;
    }
    lastPrint = wall;

    const std::chrono::duration<double> elapsed = wall - wallStart;
    const double rate = elapsed.count() > 0
        ? static_cast<double>(processedAccesses) / elapsed.count()
        : 0.0;
    // Without a record-count hint there is nothing to take a
    // percentage of: print the counts alone.
    char buf[160];
    if (totalRecords) {
        const double pct = 100.0 * static_cast<double>(processedRecords) /
                           static_cast<double>(totalRecords);
        std::snprintf(buf, sizeof buf,
                      "\rsim %.1fs / %.1fs (%5.1f%%)  %llu/%llu records  "
                      "%.0f blk/s",
                      std::min(now, traceEnd), traceEnd, pct,
                      static_cast<unsigned long long>(processedRecords),
                      static_cast<unsigned long long>(totalRecords), rate);
    } else {
        std::snprintf(buf, sizeof buf,
                      "\rsim %.1fs  %llu records  %.0f blk/s", now,
                      static_cast<unsigned long long>(processedRecords),
                      rate);
    }
    *progress << buf;
    if (final)
        *progress << '\n';
    progress->flush();
}

// ---- disk hooks -----------------------------------------------------

void
SimObserver::diskPowerState(DiskId disk, std::string_view label,
                            Time now)
{
    if (!traceWriter)
        return;
    if (disk >= spans.size())
        spans.resize(disk + 1);
    OpenSpan &span = spans[disk];
    if (span.open && span.label == label)
        return; // coalesce repeated states
    if (span.open)
        traceWriter->complete(disk, span.label, span.start, now);
    span.label = std::string(label);
    span.start = now;
    span.open = true;
}

void
SimObserver::diskSpinUpStart(DiskId disk, std::string_view from_label,
                             Time now)
{
    if (registry && disk < diskSpinUps.size())
        diskSpinUps[disk]->inc();
    if (traceWriter) {
        traceWriter->instant(
            disk, "spin-up", now, "power",
            {{"from", std::string(from_label)}});
    }
}

void
SimObserver::diskSpinDownStart(DiskId disk,
                               std::string_view target_label, Time now)
{
    if (registry && disk < diskSpinDowns.size())
        diskSpinDowns[disk]->inc();
    if (traceWriter) {
        traceWriter->instant(
            disk, "spin-down", now, "power",
            {{"target", std::string(target_label)}});
    }
}

// ---- cache hooks ----------------------------------------------------

void
SimObserver::cacheAccess(bool hit)
{
    if (!registry)
        return;
    cacheAccesses->inc();
    if (hit)
        cacheHits->inc();
}

void
SimObserver::cacheEviction(const BlockId &victim, bool /*dirty*/)
{
    if (!registry)
        return;
    cacheEvictionsTotal->inc();
    if (priorityFn && priorityFn(victim.disk))
        cacheEvictionsPriority->inc();
}

// ---- PA classifier hooks --------------------------------------------

void
SimObserver::paEpochBoundary(uint64_t epoch, Time now)
{
    if (registry)
        paEpochs->inc();
    if (traceWriter) {
        nameClassifierTrack();
        traceWriter->instant(classifierTrack(), "epoch", now, "pa",
                             {{"epoch", std::to_string(epoch)}});
    }
}

void
SimObserver::paClassFlip(DiskId disk, bool priority, Time now)
{
    if (registry)
        paClassFlips->inc();
    if (traceWriter) {
        nameClassifierTrack();
        traceWriter->instant(
            disk < spans.size() ? disk : classifierTrack(),
            priority ? "→ priority" : "→ regular", now, "pa",
            {{"disk", std::to_string(disk)}});
    }
}

// ---- write-policy hooks ---------------------------------------------

void
SimObserver::wbeuForcedWake(DiskId disk, std::size_t dirty_blocks,
                            Time now)
{
    if (registry)
        wbeuForcedWakeups->inc();
    if (traceWriter) {
        traceWriter->instant(
            disk, "wbeu-forced-wake", now, "write",
            {{"dirty_blocks", std::to_string(dirty_blocks)}});
    }
}

void
SimObserver::wtduLogWrite()
{
    if (registry)
        wtduLogWrites->inc();
}

void
SimObserver::wtduRegionRecycle(DiskId disk, Time now)
{
    if (registry)
        wtduRegionRecycles->inc();
    if (traceWriter)
        traceWriter->instant(disk, "wtdu-region-recycle", now, "write");
}

} // namespace pacache::obs
