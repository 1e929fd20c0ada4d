/**
 * @file
 * Rack-scale fleet controller tests:
 *
 *  - placement spreads guests across servers (free slots dominate,
 *    same-class anti-affinity breaks ties);
 *  - live migration moves a loaded guest between base servers with
 *    every block request completing exactly once (requests in
 *    flight at drain, deferred during the blackout, and issued
 *    after resume all included);
 *  - the watchdog/drain race: a backend crash mid-migration aborts
 *    and rolls back cleanly (this test FAILS if the watchdog stops
 *    skipping drained guests — the respawn path would swallow the
 *    crash and no abort would happen);
 *  - reactive failover on base-server power loss and on fabric
 *    partitions past the fencing threshold (with the heal-in-time
 *    no-op counterpart), including a source or target server that
 *    loses power while a migration is in flight;
 *  - planned board hot-swap;
 *  - flight-dump filenames are distinct across servers hosting the
 *    same guest slot index (the shared-dump-dir collision fix).
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <string>
#include <vector>

#include "cloud/block_service.hh"
#include "cloud/vswitch.hh"
#include "core/instance_catalog.hh"
#include "fleet/fleet_controller.hh"
#include "sim/sim_object.hh"

namespace bmhive {
namespace {

using core::InstanceCatalog;
using fleet::FleetController;
using fleet::FleetParams;
using fleet::GuestId;
using fleet::invalidGuest;

/** A cloud segment plus an N-server fleet sharing it. */
struct FleetBed
{
    Simulation sim;
    cloud::VSwitch vswitch;
    cloud::BlockService storage;
    std::unique_ptr<FleetController> fleet;

    explicit FleetBed(std::uint64_t seed, unsigned servers = 2,
                      unsigned boards = 2, FleetParams fp = {})
        : sim(seed), vswitch(sim, "vswitch"),
          storage(sim, "storage", {})
    {
        fp.servers = servers;
        fp.server.maxBoards = boards;
        fleet = std::make_unique<FleetController>(
            sim, "fleet", vswitch, &storage, fp);
    }

    GuestId
    addGuest(cloud::MacAddr mac, Bytes vol_mib = 8)
    {
        cloud::Volume *vol = nullptr;
        if (vol_mib > 0)
            vol = &storage.createVolume(
                "vol" + std::to_string(mac), vol_mib * MiB);
        return fleet->place(InstanceCatalog::evaluated(), mac,
                            vol);
    }

    void
    runFor(double us)
    {
        sim.run(sim.now() + usToTicks(us));
    }

    /** Cut server @p s's power @p us from now. */
    void
    cutPowerIn(unsigned s, double us)
    {
        auto *cut = new OneShotEvent(
            [this, s] {
                fault::FaultSpec spec;
                spec.kind = fault::FaultKind::ServerPowerLoss;
                sim.faults().deliver("fleet.s" + std::to_string(s),
                                     spec);
            },
            "test.power_cut");
        sim.eventq().schedule(cut, sim.now() + usToTicks(us));
    }
};

/** Issues block reads and counts completions per request, so a
 *  lost request shows as 0 and a duplicated one as >1. */
struct BlkLoad
{
    std::vector<unsigned> completions;
    unsigned issued = 0;
    unsigned finished = 0;

    void
    issue(core::BmGuest &g, unsigned n)
    {
        for (unsigned i = 0; i < n; ++i) {
            unsigned id = issued++;
            completions.push_back(0);
            bool ok = g.blk()->read(
                (id % 64) * 8, 4096, g.os().cpu(0),
                [this, id](std::uint8_t, Addr) {
                    ++completions[id];
                    ++finished;
                });
            ASSERT_TRUE(ok);
        }
    }

    /** Every issued request completed exactly once. */
    void
    expectExactlyOnce() const
    {
        EXPECT_EQ(finished, issued);
        for (unsigned i = 0; i < completions.size(); ++i)
            EXPECT_EQ(completions[i], 1u)
                << "request " << i << " completed "
                << completions[i] << " times";
    }
};

TEST(FleetPlacement, SpreadsAcrossServers)
{
    FleetBed bed(101, 3, 2);
    GuestId a = bed.addGuest(0xA1, 0);
    GuestId b = bed.addGuest(0xA2, 0);
    GuestId c = bed.addGuest(0xA3, 0);
    ASSERT_NE(a, invalidGuest);
    ASSERT_NE(b, invalidGuest);
    ASSERT_NE(c, invalidGuest);
    // Same class, equal free slots: anti-affinity spreads them
    // one per server before any server takes a second guest.
    EXPECT_NE(bed.fleet->serverOf(a), bed.fleet->serverOf(b));
    EXPECT_NE(bed.fleet->serverOf(a), bed.fleet->serverOf(c));
    EXPECT_NE(bed.fleet->serverOf(b), bed.fleet->serverOf(c));
    EXPECT_EQ(bed.fleet->placements(), 3u);

    // Fill up: 6 slots total, 3 more placements land, then none.
    EXPECT_NE(bed.addGuest(0xA4, 0), invalidGuest);
    EXPECT_NE(bed.addGuest(0xA5, 0), invalidGuest);
    EXPECT_NE(bed.addGuest(0xA6, 0), invalidGuest);
    EXPECT_EQ(bed.addGuest(0xA7, 0), invalidGuest);
}

TEST(FleetMigration, LiveMigrationExactlyOnce)
{
    FleetBed bed(202, 2, 2);
    GuestId id = bed.addGuest(0xB1);
    ASSERT_NE(id, invalidGuest);
    ASSERT_EQ(bed.fleet->serverOf(id), 0u);
    bed.runFor(1000);

    BlkLoad load;
    load.issue(bed.fleet->guest(id), 16);
    bed.runFor(50); // a real in-flight window at drain time

    bool called = false, ok = false;
    ASSERT_TRUE(bed.fleet->migrate(id, 1, [&](bool r) {
        called = true;
        ok = r;
    }));
    EXPECT_TRUE(bed.fleet->migrating(id));
    // Requests issued during the blackout: doorbells deferred,
    // swept into the rebased rings at resume.
    load.issue(bed.fleet->guest(id), 16);
    bed.runFor(5000);

    EXPECT_TRUE(called);
    EXPECT_TRUE(ok);
    EXPECT_FALSE(bed.fleet->migrating(id));
    EXPECT_EQ(bed.fleet->serverOf(id), 1u);
    EXPECT_EQ(bed.fleet->migrationsDone(), 1u);
    EXPECT_EQ(bed.fleet->blackout().count(), 1u);
    EXPECT_GT(bed.fleet->blackout().maxUs(), 0.0);

    // The guest is fully serviceable on the target.
    load.issue(bed.fleet->guest(id), 16);
    bed.runFor(5000);
    load.expectExactlyOnce();
    EXPECT_EQ(
        bed.fleet->guest(id).hypervisor().migrations(), 1u);
}

/** A backend crash while the drain is in flight must abort the
 *  migration and roll back — never let the watchdog respawn
 *  (republishing the in-flight window on the source) while the
 *  target is about to replay the same window. The watchdog skips
 *  the drained guest, and the settle poll, the only observer of a
 *  source crash, aborts. Removing the drained-guest skip from
 *  BmHiveServer::watchdogCheck makes this test fail: the watchdog
 *  respawns the crashed backend first and the abort below never
 *  happens. */
TEST(FleetMigration, WatchdogRaceAbortsCleanly)
{
    FleetParams fp;
    // Watchdog (100us default) strictly faster than the settle
    // poll, so the watchdog sweeps past the crash first.
    fp.settleRetry = usToTicks(400);
    FleetBed bed(303, 2, 2, fp);
    GuestId id = bed.addGuest(0xC1);
    ASSERT_NE(id, invalidGuest);
    bed.runFor(1000);

    BlkLoad load;
    load.issue(bed.fleet->guest(id), 16);
    bed.runFor(20); // block I/O now genuinely in flight

    bool called = false, ok = true;
    hv::BmHypervisor &hv = bed.fleet->guest(id).hypervisor();
    ASSERT_TRUE(bed.fleet->migrate(id, 1, [&](bool r) {
        called = true;
        ok = r;
    }));
    ASSERT_TRUE(bed.fleet->migrating(id));
    auto *crash = new OneShotEvent([&hv] { hv.crash(); },
                                   "test.crash");
    bed.sim.eventq().schedule(crash,
                              bed.sim.now() + usToTicks(10));
    bed.runFor(5000);

    EXPECT_TRUE(called);
    EXPECT_FALSE(ok);
    EXPECT_EQ(bed.fleet->migrationAborts(), 1u);
    EXPECT_EQ(bed.fleet->migrationsDone(), 0u);
    EXPECT_FALSE(bed.fleet->migrating(id));
    EXPECT_EQ(bed.fleet->serverOf(id), 0u);
    // The rollback respawned the backend exactly once — via the
    // abort path, not via a watchdog respawn.
    EXPECT_EQ(hv.respawns(), 1u);
    EXPECT_EQ(bed.fleet->server(0).watchdogRespawns(), 0u);

    // Clean rollback: the crashed window was re-served and new
    // work flows; nothing lost, nothing duplicated.
    load.issue(bed.fleet->guest(id), 16);
    bed.runFor(5000);
    load.expectExactlyOnce();
}

TEST(FleetFailover, PowerLossMovesGuests)
{
    FleetBed bed(404, 2, 2);
    GuestId a = bed.addGuest(0xD1);
    GuestId b = bed.addGuest(0xD2);
    ASSERT_NE(a, invalidGuest);
    ASSERT_NE(b, invalidGuest);
    // Anti-affinity put them apart; force both onto server 0 for
    // a two-guest failover.
    if (bed.fleet->serverOf(b) != bed.fleet->serverOf(a)) {
        unsigned src = bed.fleet->serverOf(b);
        unsigned dst = bed.fleet->serverOf(a);
        ASSERT_TRUE(bed.fleet->migrate(b, dst));
        bed.runFor(5000);
        ASSERT_EQ(bed.fleet->serverOf(b), dst);
        (void)src;
    }
    unsigned lost = bed.fleet->serverOf(a);
    bed.runFor(1000);

    BlkLoad la, lb;
    la.issue(bed.fleet->guest(a), 8);
    lb.issue(bed.fleet->guest(b), 8);
    bed.runFor(50);

    fault::FaultSpec spec;
    spec.kind = fault::FaultKind::ServerPowerLoss;
    ASSERT_TRUE(bed.sim.faults().deliver(
        "fleet.s" + std::to_string(lost), spec));
    bed.runFor(10000);

    EXPECT_TRUE(bed.fleet->serverDead(lost));
    EXPECT_EQ(bed.fleet->failovers(), 2u);
    EXPECT_EQ(bed.fleet->migrationsDone(), 3u); // 1 planned + 2
    EXPECT_NE(bed.fleet->serverOf(a), lost);
    EXPECT_NE(bed.fleet->serverOf(b), lost);

    // Both guests serve I/O on the surviving server; the requests
    // the power cut stranded were re-served by the rebase replay,
    // exactly once.
    la.issue(bed.fleet->guest(a), 8);
    lb.issue(bed.fleet->guest(b), 8);
    bed.runFor(5000);
    la.expectExactlyOnce();
    lb.expectExactlyOnce();
}

/** A migration's source loses power 1 us after migrate(): there is
 *  nothing left to roll back onto, so the migration completes as a
 *  failover onto the live target. The settle poll sees the crashed
 *  backend before anything else does; it must not take that for a
 *  mid-drain crash and "roll back" onto the dead server. */
TEST(FleetFailover, SourcePowerLossMidMigrationFailsOver)
{
    FleetBed bed(1001, 3, 2);
    GuestId id = bed.addGuest(0x31);
    ASSERT_NE(id, invalidGuest);
    ASSERT_EQ(bed.fleet->serverOf(id), 0u);
    bed.runFor(1000);

    BlkLoad load;
    load.issue(bed.fleet->guest(id), 16);
    bed.runFor(20); // block I/O in flight at drain time

    bool called = false, ok = false;
    ASSERT_TRUE(bed.fleet->migrate(id, 1, [&](bool r) {
        called = true;
        ok = r;
    }));
    bed.cutPowerIn(0, 1);
    bed.runFor(10000);

    EXPECT_TRUE(bed.fleet->serverDead(0));
    EXPECT_TRUE(called);
    EXPECT_TRUE(ok);
    EXPECT_FALSE(bed.fleet->migrating(id));
    EXPECT_EQ(bed.fleet->serverOf(id), 1u);
    EXPECT_EQ(bed.fleet->migrationAborts(), 0u);
    EXPECT_EQ(bed.fleet->failovers(), 1u);
    EXPECT_EQ(bed.fleet->migrationsDone(), 1u);

    load.issue(bed.fleet->guest(id), 16);
    bed.runFor(5000);
    load.expectExactlyOnce();
}

/** A migration's target loses power 1 us after migrate(): the guest
 *  still lands there (the export is past the point of no return by
 *  the time it arrives), and is failed over again to a live server
 *  instead of serving I/O from a dead one. */
TEST(FleetFailover, TargetPowerLossMidMigrationFailsOver)
{
    FleetBed bed(1002, 3, 2);
    GuestId id = bed.addGuest(0x32);
    ASSERT_NE(id, invalidGuest);
    ASSERT_EQ(bed.fleet->serverOf(id), 0u);
    bed.runFor(1000);

    BlkLoad load;
    load.issue(bed.fleet->guest(id), 16);
    bed.runFor(20);

    ASSERT_TRUE(bed.fleet->migrate(id, 1));
    bed.cutPowerIn(1, 1);
    // Requests issued during the blackout ride the drain.
    load.issue(bed.fleet->guest(id), 16);
    bed.runFor(10000);

    EXPECT_TRUE(bed.fleet->serverDead(1));
    EXPECT_FALSE(bed.fleet->migrating(id));
    EXPECT_FALSE(bed.fleet->serverDead(bed.fleet->serverOf(id)));
    EXPECT_EQ(bed.fleet->failovers(), 1u);
    EXPECT_EQ(bed.fleet->migrationsDone(), 2u);

    load.issue(bed.fleet->guest(id), 16);
    bed.runFor(5000);
    load.expectExactlyOnce();
}

TEST(FleetFailover, PartitionPastThresholdFences)
{
    FleetParams fp;
    fp.healthPeriod = usToTicks(100);
    fp.missedBeatsToFence = 3;
    FleetBed bed(505, 2, 2, fp);
    GuestId id = bed.addGuest(0xE1);
    ASSERT_NE(id, invalidGuest);
    unsigned src = bed.fleet->serverOf(id);
    bed.runFor(1000);

    fault::FaultSpec spec;
    spec.kind = fault::FaultKind::FabricPartition;
    spec.duration = usToTicks(1000); // 10 sweeps > threshold
    ASSERT_TRUE(bed.sim.faults().deliver(
        "fleet.s" + std::to_string(src), spec));
    bed.runFor(10000);

    EXPECT_EQ(bed.fleet->fences(), 1u);
    EXPECT_TRUE(bed.fleet->serverDead(src));
    EXPECT_EQ(bed.fleet->failovers(), 1u);
    EXPECT_NE(bed.fleet->serverOf(id), src);

    BlkLoad load;
    load.issue(bed.fleet->guest(id), 8);
    bed.runFor(5000);
    load.expectExactlyOnce();
}

TEST(FleetFailover, PartitionHealingBeforeThresholdIsNoOp)
{
    FleetParams fp;
    fp.healthPeriod = usToTicks(100);
    fp.missedBeatsToFence = 3;
    FleetBed bed(606, 2, 2, fp);
    GuestId id = bed.addGuest(0xE2);
    ASSERT_NE(id, invalidGuest);
    unsigned src = bed.fleet->serverOf(id);
    bed.runFor(1000);

    fault::FaultSpec spec;
    spec.kind = fault::FaultKind::FabricPartition;
    spec.duration = usToTicks(150); // heals after 1-2 sweeps
    ASSERT_TRUE(bed.sim.faults().deliver(
        "fleet.s" + std::to_string(src), spec));
    bed.runFor(10000);

    EXPECT_EQ(bed.fleet->fences(), 0u);
    EXPECT_FALSE(bed.fleet->serverDead(src));
    EXPECT_EQ(bed.fleet->serverOf(id), src);
}

TEST(FleetMaintenance, BoardHotSwap)
{
    FleetBed bed(707, 2, 2);
    GuestId id = bed.addGuest(0xF1);
    ASSERT_NE(id, invalidGuest);
    unsigned src = bed.fleet->serverOf(id);
    bed.runFor(1000);

    BlkLoad load;
    load.issue(bed.fleet->guest(id), 8);
    bed.runFor(50);

    bool ok = false;
    ASSERT_TRUE(
        bed.fleet->hotSwapBoard(id, [&](bool r) { ok = r; }));
    bed.runFor(5000);

    EXPECT_TRUE(ok);
    EXPECT_EQ(bed.fleet->hotSwaps(), 1u);
    EXPECT_NE(bed.fleet->serverOf(id), src);
    // The swapped-out server is healthy and a placement target
    // again (a hot-swap is maintenance, not a failure).
    EXPECT_FALSE(bed.fleet->serverDead(src));

    load.issue(bed.fleet->guest(id), 8);
    bed.runFor(5000);
    load.expectExactlyOnce();
}

TEST(FleetMaintenance, DrainServerMovesEveryGuest)
{
    FleetBed bed(808, 3, 2);
    GuestId a = bed.addGuest(0x11, 0);
    GuestId b = bed.addGuest(0x12, 0);
    ASSERT_NE(a, invalidGuest);
    ASSERT_NE(b, invalidGuest);
    bed.runFor(1000);
    // Consolidate both onto server 0.
    if (bed.fleet->serverOf(a) != 0) {
        ASSERT_TRUE(bed.fleet->migrate(a, 0));
    }
    if (bed.fleet->serverOf(b) != 0) {
        ASSERT_TRUE(bed.fleet->migrate(b, 0));
    }
    bed.runFor(5000);
    ASSERT_EQ(bed.fleet->serverOf(a), 0u);
    ASSERT_EQ(bed.fleet->serverOf(b), 0u);

    EXPECT_EQ(bed.fleet->drainServer(0), 2u);
    bed.runFor(5000);
    EXPECT_NE(bed.fleet->serverOf(a), 0u);
    EXPECT_NE(bed.fleet->serverOf(b), 0u);
    EXPECT_EQ(bed.fleet->server(0).freeSlots(), 2u);
}

/** Two servers, one guest each, both at slot index 0: their
 *  anomaly dumps into the shared directory must not collide (the
 *  filename carries the server name since the fleet fix). */
TEST(FleetObs, DumpFilenamesDistinctAcrossServers)
{
    std::string dir = ::testing::TempDir() + "fleet_dumps";
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    FleetParams fp;
    fp.server.obs.flightDumpDir = dir;
    fp.server.obs.flightDumpCooldown = 0;
    FleetBed bed(909, 2, 1, fp);
    GuestId a = bed.addGuest(0x21, 0);
    GuestId b = bed.addGuest(0x22, 0);
    ASSERT_NE(a, invalidGuest);
    ASSERT_NE(b, invalidGuest);
    ASSERT_NE(bed.fleet->serverOf(a), bed.fleet->serverOf(b));
    ASSERT_EQ(bed.fleet->indexOf(a), 0u);
    ASSERT_EQ(bed.fleet->indexOf(b), 0u);
    bed.runFor(1000);

    bed.fleet->server(0).triggerFlightDump(0, "collision");
    std::string p0 = bed.fleet->server(0).lastFlightDumpPath();
    bed.fleet->server(1).triggerFlightDump(0, "collision");
    std::string p1 = bed.fleet->server(1).lastFlightDumpPath();
    ASSERT_FALSE(p0.empty());
    ASSERT_FALSE(p1.empty());
    EXPECT_NE(p0, p1);
    EXPECT_NE(p0.find("fleet_s0"), std::string::npos);
    EXPECT_NE(p1.find("fleet_s1"), std::string::npos);
    std::filesystem::remove_all(dir);
}

} // namespace
} // namespace bmhive
