/**
 * @file
 * Unit tests for the hypervisor layers: the poll-mode
 * VirtioIoService (both flavours), BmHypervisor lifecycle, the
 * VmExecutionModel (exit charging, EPT stretch, wall-clock stall
 * windows), and the vm-guest's interrupt-injection pricing.
 */

#include <gtest/gtest.h>

#include "base/logging.hh"
#include "cloud/vswitch.hh"
#include "core/bmhive_server.hh"
#include "vmsim/nested.hh"
#include "vmsim/vm_guest.hh"

namespace bmhive {
namespace {

TEST(VmExecModelTest, ExitChargingIsLinear)
{
    Rng rng(1);
    vmsim::VmExecParams p;
    p.preemptRatePerSec = 0; // isolate exit accounting
    p.backgroundExitsPerSec = 0;
    p.memStretch = 1.0;
    vmsim::VmExecutionModel m(rng, p);
    EXPECT_EQ(m.stretch(0, usToTicks(100), 0), usToTicks(100));
    EXPECT_EQ(m.stretch(0, usToTicks(100), 3),
              usToTicks(100) + 3 * paper::vmExitCost);
}

TEST(VmExecModelTest, BackgroundExitsScaleWithDuration)
{
    Rng rng(1);
    vmsim::VmExecParams p;
    p.preemptRatePerSec = 0;
    p.backgroundExitsPerSec = 1000.0;
    p.memStretch = 1.0;
    vmsim::VmExecutionModel m(rng, p);
    // 1 ms of work sees ~1 background exit: +10 us.
    Tick d = m.stretch(0, msToTicks(1), 0);
    EXPECT_EQ(d, msToTicks(1) + paper::vmExitCost);
}

TEST(VmExecModelTest, MemStretchMultiplies)
{
    Rng rng(1);
    vmsim::VmExecParams p;
    p.preemptRatePerSec = 0;
    p.backgroundExitsPerSec = 0;
    p.memStretch = 1.02;
    vmsim::VmExecutionModel m(rng, p);
    EXPECT_EQ(m.stretch(0, 1000000, 0), 1020000u);
}

TEST(VmExecModelTest, WallClockStallsStealExpectedFraction)
{
    // Property: total stolen time over a long busy run converges
    // to rate x mean duration.
    Rng rng(17);
    vmsim::VmExecParams p;
    p.backgroundExitsPerSec = 0;
    p.memStretch = 1.0;
    p.preemptRatePerSec = 50.0;
    p.preemptMeanDuration = usToTicks(500);
    vmsim::VmExecutionModel m(rng, p);

    Tick cursor = 0;
    Tick busy = 0;
    const Tick slice = usToTicks(100);
    for (int i = 0; i < 200000; ++i) {
        Tick d = m.stretch(cursor, slice, 0);
        cursor += d;
        busy += slice;
    }
    double stolen_frac = 1.0 - double(busy) / double(cursor);
    // Expected: 50/s * 500us = 2.5% of wall time.
    EXPECT_NEAR(stolen_frac, 0.025, 0.005);
}

TEST(VmExecModelTest, IdleThreadStillHitsStalls)
{
    // The regression the wall-clock model fixes: a thread that
    // runs tiny work items infrequently must still land in stall
    // windows with the wall-time probability.
    Rng rng(23);
    vmsim::VmExecParams p;
    p.backgroundExitsPerSec = 0;
    p.memStretch = 1.0;
    p.preemptRatePerSec = 100.0;
    p.preemptMeanDuration = msToTicks(1);
    vmsim::VmExecutionModel m(rng, p);

    unsigned hits = 0;
    const int n = 20000;
    for (int i = 0; i < n; ++i) {
        Tick start = Tick(i) * usToTicks(50); // sparse 2us work
        Tick d = m.stretch(start, usToTicks(2), 0);
        if (d > usToTicks(10))
            ++hits;
    }
    // ~10% of wall time is stalled; sparse arrivals should hit
    // roughly that often.
    EXPECT_NEAR(double(hits) / n, 0.10, 0.03);
}

TEST(VmExecModelTest, SharedWorseThanExclusive)
{
    Rng rng(5);
    auto sh = vmsim::VmExecParams::shared();
    auto ex = vmsim::VmExecParams::exclusive();
    EXPECT_GT(sh.preemptRatePerSec * double(sh.preemptMeanDuration),
              10 * ex.preemptRatePerSec *
                  double(ex.preemptMeanDuration));
}

TEST(NestedTest, EfficienciesMatchPaperBands)
{
    double cpu = vmsim::nestedEfficiency(
        vmsim::cpuWorkloadExitRate);
    double io = vmsim::nestedEfficiency(vmsim::ioWorkloadExitRate);
    EXPECT_NEAR(cpu, paper::nestedCpuFraction, 0.05);
    EXPECT_NEAR(io, paper::nestedIoFraction, 0.05);
    // Nesting is always worse than one level.
    EXPECT_LT(cpu, vmsim::singleLevelEfficiency(
                       vmsim::cpuWorkloadExitRate));
    EXPECT_LT(io, vmsim::singleLevelEfficiency(
                      vmsim::ioWorkloadExitRate));
}

class ServiceTest : public ::testing::Test
{
  protected:
    ServiceTest()
        : sim(31), vswitch(sim, "vswitch"), storage(sim, "storage")
    {
    }

    Simulation sim;
    cloud::VSwitch vswitch;
    cloud::BlockService storage;
};

TEST_F(ServiceTest, VmKicksAreSuppressedBmKicksAreNot)
{
    // vm: vhost polls, guest sees NO_NOTIFY and skips doorbells.
    vmsim::VmGuestParams p;
    p.mac = 0x1;
    vmsim::VmGuest vm(sim, "vm", p, vswitch);
    vm.bringUp();
    EXPECT_FALSE(
        vm.net().queue(virtio::NET_TXQ).deviceWantsKick());

    // bm: IO-Bond is hardware; the doorbell is required.
    core::BmServerParams sp;
    sp.maxBoards = 1;
    core::BmHiveServer server(sim, "srv", vswitch, &storage, sp);
    auto &g = server.provision(core::InstanceCatalog::evaluated(),
                               0x2);
    EXPECT_TRUE(g.net().queue(virtio::NET_TXQ).deviceWantsKick());
}

TEST_F(ServiceTest, RateLimitedGuestIsPaced)
{
    core::BmServerParams sp;
    sp.maxBoards = 2;
    core::BmHiveServer server(sim, "srv", vswitch, &storage, sp);
    auto &a = server.provision(core::InstanceCatalog::evaluated(),
                               0xA);
    auto &b = server.provision(core::InstanceCatalog::evaluated(),
                               0xB);
    sim.run(sim.now() + msToTicks(1));

    // Blast 1400B frames for 10 ms; goodput must respect the
    // 10 Gbit/s cap (plus the small burst allowance).
    std::uint64_t bytes = 0;
    b.net().setRxHandler([&](const cloud::Packet &pk) {
        bytes += pk.len;
    });
    Tick t0 = sim.now();
    std::function<void()> pump = [&] {
        if (sim.now() > t0 + msToTicks(10))
            return;
        for (int i = 0; i < 32; ++i) {
            cloud::Packet pk;
            pk.src = 0xA;
            pk.dst = 0xB;
            pk.len = 1442;
            a.net().sendPacket(pk, false, a.os().cpu(1));
        }
        a.net().kickTx(a.os().cpu(1));
        auto *ev = new OneShotEvent(pump, "pump");
        sim.eventq().schedule(ev, sim.now() + usToTicks(20));
    };
    pump();
    sim.run(t0 + msToTicks(12));
    double gbps = double(bytes) * 8.0 / ticksToSec(msToTicks(12)) /
                  1e9;
    EXPECT_LE(gbps, 11.0);
    EXPECT_GE(gbps, 7.0);
}

TEST_F(ServiceTest, UnlimitedGuestExceedsTheCap)
{
    core::BmServerParams sp;
    sp.maxBoards = 2;
    core::BmHiveServer server(sim, "srv", vswitch, &storage, sp);
    auto &a = server.provision(core::InstanceCatalog::evaluated(),
                               0xA, nullptr, /*rate_limited=*/false);
    auto &b = server.provision(core::InstanceCatalog::evaluated(),
                               0xB, nullptr, false);
    sim.run(sim.now() + msToTicks(1));

    std::uint64_t bytes = 0;
    b.net().setRxHandler([&](const cloud::Packet &pk) {
        bytes += pk.len;
    });
    Tick t0 = sim.now();
    std::function<void()> pump = [&] {
        if (sim.now() > t0 + msToTicks(10))
            return;
        for (int i = 0; i < 64; ++i) {
            cloud::Packet pk;
            pk.src = 0xA;
            pk.dst = 0xB;
            pk.len = 8192; // jumbo-ish to stress bandwidth
            a.net().sendPacket(pk, false, a.os().cpu(1));
        }
        a.net().kickTx(a.os().cpu(1));
        auto *ev = new OneShotEvent(pump, "pump");
        sim.eventq().schedule(ev, sim.now() + usToTicks(15));
    };
    pump();
    sim.run(t0 + msToTicks(12));
    double gbps = double(bytes) * 8.0 / ticksToSec(msToTicks(12)) /
                  1e9;
    EXPECT_GT(gbps, 12.0); // well past the 10G instance cap
}

TEST_F(ServiceTest, BackendCountersTrackTraffic)
{
    core::BmServerParams sp;
    sp.maxBoards = 2;
    core::BmHiveServer server(sim, "srv", vswitch, &storage, sp);
    auto &vol = storage.createVolume("v", 16 * MiB);
    auto &a = server.provision(core::InstanceCatalog::evaluated(),
                               0xA, &vol);
    auto &b = server.provision(core::InstanceCatalog::evaluated(),
                               0xB);
    sim.run(sim.now() + msToTicks(1));

    for (int i = 0; i < 10; ++i) {
        cloud::Packet pk;
        pk.src = 0xA;
        pk.dst = 0xB;
        pk.len = 64;
        a.net().sendPacket(pk, true, a.os().cpu(1));
    }
    bool io_done = false;
    a.blk()->read(0, 4 * KiB, a.os().cpu(2),
                  [&](std::uint8_t, Addr) { io_done = true; });
    sim.run(sim.now() + msToTicks(20));

    EXPECT_TRUE(io_done);
    EXPECT_EQ(a.hypervisor().service().txPackets(), 10u);
    EXPECT_EQ(b.hypervisor().service().rxPackets(), 10u);
    EXPECT_EQ(a.hypervisor().service().blkIos(), 1u);
}

TEST_F(ServiceTest, RxBacklogOverflowDropsAndCounts)
{
    core::BmServerParams sp;
    sp.maxBoards = 2;
    core::BmHiveServer server(sim, "srv", vswitch, &storage, sp);
    auto &a = server.provision(core::InstanceCatalog::evaluated(),
                               0xA, nullptr, false);
    auto &b = server.provision(core::InstanceCatalog::evaluated(),
                               0xB, nullptr, false);
    sim.run(sim.now() + msToTicks(1));

    // Shrink the victim's backlog, then stop its service so the
    // backlog cannot drain while the burst arrives.
    b.hypervisor().service().setRxBacklog(32);
    b.hypervisor().service().stop();
    for (int i = 0; i < 200; ++i) {
        cloud::Packet pk;
        pk.src = 0xA;
        pk.dst = 0xB;
        pk.len = 64;
        a.net().sendPacket(pk, false, a.os().cpu(1));
    }
    a.net().kickTx(a.os().cpu(1));
    sim.run(sim.now() + msToTicks(5));
    EXPECT_GT(b.hypervisor().service().rxDropped(), 0u);
}

TEST_F(ServiceTest, NextGenerationKeepsServiceSettings)
{
    core::BmServerParams sp;
    sp.maxBoards = 1;
    core::BmHiveServer server(sim, "srv", vswitch, &storage, sp);
    auto &g = server.provision(core::InstanceCatalog::evaluated(),
                               0xB, nullptr, false);
    sim.run(sim.now() + msToTicks(1));

    // Ten frames land on the current generation at once; the
    // backlog set before the swap decides how many it keeps.
    auto burst_drops = [&] {
        auto &svc = g.hypervisor().service();
        std::uint64_t before = svc.rxDropped();
        cloud::Packet pk;
        pk.src = 0xA;
        pk.dst = 0xB;
        pk.len = 64;
        for (int i = 0; i < 10; ++i)
            svc.enqueueRx(pk, 0);
        return svc.rxDropped() - before;
    };
    g.hypervisor().service().setRxBacklog(4);
    g.hypervisor().crash();
    g.hypervisor().respawn();
    EXPECT_EQ(g.hypervisor().respawns(), 1u);
    EXPECT_EQ(burst_drops(), 6u);

    sim.run(sim.now() + msToTicks(1)); // the guest takes the four
    g.hypervisor().liveUpgrade(nullptr);
    EXPECT_EQ(g.hypervisor().upgrades(), 1u);
    EXPECT_EQ(burst_drops(), 6u);
}

TEST_F(ServiceTest, PowerOffStopsBackend)
{
    core::BmServerParams sp;
    sp.maxBoards = 1;
    core::BmHiveServer server(sim, "srv", vswitch, &storage, sp);
    auto &g = server.provision(core::InstanceCatalog::evaluated(),
                               0xA);
    sim.run(sim.now() + msToTicks(1));
    g.hypervisor().powerOffGuest();
    EXPECT_EQ(g.board().powerState(), hw::BoardPower::Off);
    EXPECT_FALSE(g.hypervisor().connected());
    // The event loop drains without the poll loop re-arming.
    Tick before = sim.now();
    sim.run(before + msToTicks(5));
    EXPECT_GE(sim.now(), before);
}

TEST_F(ServiceTest, VmInterruptCostExceedsBmCost)
{
    vmsim::VmGuestParams p;
    p.mac = 0x9;
    vmsim::VmGuest vm(sim, "vm", p, vswitch);
    vm.bringUp();

    core::BmServerParams sp;
    sp.maxBoards = 1;
    core::BmHiveServer server(sim, "srv", vswitch, &storage, sp);
    auto &g = server.provision(core::InstanceCatalog::evaluated(),
                               0x8);

    EXPECT_GT(vm.os().irqCost(), g.os().irqCost());
    EXPECT_GT(vm.bus().msiLatency(),
              g.board().pciBus().msiLatency());
}

} // namespace
} // namespace bmhive
