/**
 * @file
 * Tests for the section 3.4.2 / section 6 features: the guest
 * console device (demonstrating IO-Bond's extension to a third
 * virtio device type with zero bridge changes) and the
 * Orthus-style live upgrade of the bm-hypervisor process.
 */

#include <gtest/gtest.h>

#include <array>
#include <numeric>

#include "base/logging.hh"
#include "cloud/block_service.hh"
#include "cloud/vswitch.hh"
#include "core/bmhive_server.hh"
#include "virtio/virtio_net.hh"

namespace bmhive {
namespace {

class FeatureTest : public ::testing::Test
{
  protected:
    FeatureTest()
        : sim(61), vswitch(sim, "vs"), storage(sim, "st"),
          server(sim, "srv", vswitch, &storage, params())
    {
    }

    static core::BmServerParams
    params()
    {
        core::BmServerParams p;
        p.maxBoards = 2;
        return p;
    }

    Simulation sim;
    cloud::VSwitch vswitch;
    cloud::BlockService storage;
    core::BmHiveServer server;
};

TEST_F(FeatureTest, ConsoleOutputReachesHypervisor)
{
    auto &g = server.provision(core::InstanceCatalog::evaluated(),
                               0xA);
    sim.run(sim.now() + msToTicks(1));

    std::string captured;
    g.hypervisor().setConsoleSink(
        [&](const std::string &s) { captured += s; });

    EXPECT_TRUE(g.console().write("Linux version 3.10.0-514\n",
                                  g.os().cpu(0)));
    EXPECT_TRUE(g.console().write("login: ", g.os().cpu(0)));
    sim.run(sim.now() + msToTicks(2));
    EXPECT_EQ(captured, "Linux version 3.10.0-514\nlogin: ");
    EXPECT_EQ(g.console().bytesWritten(), captured.size());
}

TEST_F(FeatureTest, ConsoleInputReachesGuest)
{
    auto &g = server.provision(core::InstanceCatalog::evaluated(),
                               0xA);
    sim.run(sim.now() + msToTicks(1));

    std::string seen;
    g.console().setInputHandler(
        [&](const std::string &s) { seen += s; });
    g.hypervisor().consoleInput("root\n");
    g.hypervisor().consoleInput("ls -l\n");
    sim.run(sim.now() + msToTicks(2));
    EXPECT_EQ(seen, "root\nls -l\n");
    EXPECT_EQ(g.console().bytesRead(), seen.size());
}

TEST_F(FeatureTest, ConsoleEchoLoop)
{
    // A shell-like loop: hypervisor input is echoed back by the
    // guest, exercising both directions through the shadow rings.
    auto &g = server.provision(core::InstanceCatalog::evaluated(),
                               0xA);
    sim.run(sim.now() + msToTicks(1));

    std::string echoed;
    g.hypervisor().setConsoleSink(
        [&](const std::string &s) { echoed += s; });
    g.console().setInputHandler([&](const std::string &s) {
        g.console().write("echo: " + s, g.os().cpu(0));
    });
    g.hypervisor().consoleInput("hello");
    sim.run(sim.now() + msToTicks(3));
    EXPECT_EQ(echoed, "echo: hello");
}

TEST_F(FeatureTest, LiveUpgradeSwapsServiceQuickly)
{
    auto &vol = storage.createVolume("v", 32 * MiB);
    auto &g = server.provision(core::InstanceCatalog::evaluated(),
                               0xA, &vol);
    sim.run(sim.now() + msToTicks(1));

    auto *old_svc = &g.hypervisor().service();
    bool done = false;
    Tick downtime = 0;
    g.hypervisor().liveUpgrade([&](Tick d) {
        done = true;
        downtime = d;
    });
    sim.run(sim.now() + msToTicks(10));
    ASSERT_TRUE(done);
    EXPECT_NE(&g.hypervisor().service(), old_svc);
    EXPECT_EQ(g.hypervisor().upgrades(), 1u);
    // With an idle guest the swap is nearly instantaneous.
    EXPECT_LT(downtime, msToTicks(1));
}

TEST_F(FeatureTest, LiveUpgradeWaitsForInflightIo)
{
    auto &vol = storage.createVolume("v", 32 * MiB);
    auto &g = server.provision(core::InstanceCatalog::evaluated(),
                               0xA, &vol);
    sim.run(sim.now() + msToTicks(1));

    // Put several block I/Os in flight, then upgrade immediately.
    unsigned completed = 0;
    for (int i = 0; i < 8; ++i) {
        ASSERT_TRUE(g.blk()->read(
            std::uint64_t(i) * 8, 4 * KiB, g.os().cpu(1),
            [&](std::uint8_t st, Addr) {
                EXPECT_EQ(st, virtio::VIRTIO_BLK_S_OK);
                ++completed;
            }));
    }
    sim.run(sim.now() + usToTicks(50)); // I/Os now in flight

    Tick downtime = 0;
    bool done = false;
    g.hypervisor().liveUpgrade([&](Tick d) {
        done = true;
        downtime = d;
    });
    sim.run(sim.now() + msToTicks(30));
    ASSERT_TRUE(done);
    // Quiesce had to wait for storage round trips: real downtime.
    EXPECT_GT(downtime, usToTicks(100));
    EXPECT_EQ(completed, 8u); // nothing lost

    // The upgraded service keeps serving I/O.
    bool after = false;
    ASSERT_TRUE(g.blk()->read(0, 4 * KiB, g.os().cpu(1),
                              [&](std::uint8_t st, Addr) {
                                  EXPECT_EQ(
                                      st, virtio::VIRTIO_BLK_S_OK);
                                  after = true;
                              }));
    sim.run(sim.now() + msToTicks(30));
    EXPECT_TRUE(after);
}

TEST_F(FeatureTest, LiveUpgradePreservesNetworking)
{
    auto &a = server.provision(core::InstanceCatalog::evaluated(),
                               0xA);
    auto &b = server.provision(core::InstanceCatalog::evaluated(),
                               0xB);
    sim.run(sim.now() + msToTicks(1));

    std::vector<std::uint64_t> seqs;
    b.net().setRxHandler(
        [&](const cloud::Packet &p) { seqs.push_back(p.seq); });

    auto send = [&](std::uint64_t seq) {
        cloud::Packet p;
        p.src = 0xA;
        p.dst = 0xB;
        p.len = 64;
        p.seq = seq;
        ASSERT_TRUE(a.net().sendPacket(p, true, a.os().cpu(1)));
    };

    send(1);
    sim.run(sim.now() + msToTicks(2));
    // Upgrade BOTH ends mid-conversation.
    a.hypervisor().liveUpgrade(nullptr);
    b.hypervisor().liveUpgrade(nullptr);
    sim.run(sim.now() + msToTicks(2));
    send(2);
    send(3);
    sim.run(sim.now() + msToTicks(5));

    EXPECT_EQ(seqs, (std::vector<std::uint64_t>{1, 2, 3}));
    EXPECT_EQ(a.hypervisor().upgrades(), 1u);
}

TEST_F(FeatureTest, LiveUpgradeDeliversFramesSentWhileQuiescing)
{
    auto &vol = storage.createVolume("v", 32 * MiB);
    auto &a = server.provision(core::InstanceCatalog::evaluated(),
                               0xA);
    auto &b = server.provision(core::InstanceCatalog::evaluated(),
                               0xB, &vol);
    sim.run(sim.now() + msToTicks(1));

    std::vector<std::uint64_t> seqs;
    b.net().setRxHandler(
        [&](const cloud::Packet &p) { seqs.push_back(p.seq); });

    // Block reads in flight hold b's upgrade in its quiesce wait.
    unsigned reads = 0;
    for (int i = 0; i < 4; ++i) {
        ASSERT_TRUE(b.blk()->read(
            std::uint64_t(i) * 8, 4 * KiB, b.os().cpu(1),
            [&](std::uint8_t st, Addr) {
                EXPECT_EQ(st, virtio::VIRTIO_BLK_S_OK);
                ++reads;
            }));
    }
    sim.run(sim.now() + usToTicks(50));
    ASSERT_GT(b.hypervisor().service().blkInflight(), 0u);
    auto &old_svc = b.hypervisor().service();
    bool done = false;
    b.hypervisor().liveUpgrade([&](Tick) { done = true; });

    std::uint64_t forwarded = vswitch.forwarded();
    for (std::uint64_t seq = 1; seq <= 16; ++seq) {
        cloud::Packet p;
        p.src = 0xA;
        p.dst = 0xB;
        p.len = 64;
        p.seq = seq;
        ASSERT_TRUE(a.net().sendPacket(p, false, a.os().cpu(1)));
    }
    a.net().kickTx(a.os().cpu(1));
    sim.run(sim.now() + usToTicks(50));
    // Every frame reached b's stopped process before the swap.
    ASSERT_FALSE(done);
    EXPECT_EQ(vswitch.forwarded() - forwarded, 16u);
    EXPECT_TRUE(seqs.empty());

    sim.run(sim.now() + msToTicks(30));
    ASSERT_TRUE(done);
    EXPECT_EQ(reads, 4u);
    std::vector<std::uint64_t> want(16);
    std::iota(want.begin(), want.end(), 1);
    EXPECT_EQ(seqs, want);
    EXPECT_EQ(old_svc.rxDropped(), 0u);
    EXPECT_EQ(b.hypervisor().service().rxDropped(), 0u);
}

TEST_F(FeatureTest, CrashWhileQuiescingCompletesEveryReadOnce)
{
    auto &vol = storage.createVolume("v", 32 * MiB);
    auto &g = server.provision(core::InstanceCatalog::evaluated(),
                               0xA, &vol);
    sim.run(sim.now() + msToTicks(1));

    std::vector<unsigned> done(16, 0);
    unsigned completed = 0;
    for (unsigned i = 0; i < done.size(); ++i) {
        ASSERT_TRUE(g.blk()->read(
            std::uint64_t(i) * 8, 4 * KiB, g.os().cpu(1),
            [&, i](std::uint8_t st, Addr) {
                EXPECT_EQ(st, virtio::VIRTIO_BLK_S_OK);
                ++done[i];
                ++completed;
            }));
    }
    // Some reads back (in storage order, not submission order),
    // the rest in flight when the process dies mid-upgrade.
    while (completed < 6)
        sim.run(sim.now() + usToTicks(5));
    ASSERT_LT(completed, done.size());
    bool upgraded = false;
    g.hypervisor().liveUpgrade([&](Tick) { upgraded = true; });
    g.hypervisor().crash();
    sim.run(sim.now() + msToTicks(50));

    ASSERT_TRUE(upgraded);
    EXPECT_FALSE(g.hypervisor().crashed());
    for (unsigned i = 0; i < done.size(); ++i)
        EXPECT_EQ(done[i], 1u) << "read " << i;
}

TEST(FeatureMqTest, LiveUpgradeKeepsEveryQueuePair)
{
    Simulation sim(67);
    cloud::VSwitch vswitch(sim, "vs");
    core::BmServerParams params;
    params.maxBoards = 2;
    params.netQueuePairs = 4;
    core::BmHiveServer server(sim, "srv", vswitch, nullptr, params);
    auto &a = server.provision(core::InstanceCatalog::evaluated(),
                               0xA);
    auto &b = server.provision(core::InstanceCatalog::evaluated(),
                               0xB);
    sim.run(sim.now() + msToTicks(1));
    ASSERT_EQ(b.net().activeQueuePairs(), 4u);

    b.hypervisor().liveUpgrade(nullptr);
    sim.run(sim.now() + msToTicks(1));
    EXPECT_EQ(b.hypervisor().upgrades(), 1u);
    EXPECT_EQ(b.net().activeQueuePairs(), 4u);
    EXPECT_EQ(b.bond().function(0).activeQueuePairs(), 4u);
    EXPECT_EQ(b.hypervisor().service().netPairCount(), 4u);
    EXPECT_EQ(vswitch.portRssQueues(b.hypervisor().port()), 4u);

    // The backend's deliveries on each rx shadow ring.
    auto rx_used = [&](unsigned pair) {
        return b.bond()
            .shadowLayout(0, virtio::netRxQueue(pair))
            .usedIdx(b.bond().baseMemory());
    };
    std::array<std::uint16_t, 4> before{};
    for (unsigned p = 0; p < 4; ++p)
        before[p] = rx_used(p);
    unsigned got = 0;
    b.net().setRxHandler([&](const cloud::Packet &) { ++got; });
    for (unsigned i = 0; i < 64; ++i) {
        cloud::Packet p;
        p.src = 0xA;
        p.dst = 0xB;
        p.len = 64;
        p.seq = i;
        p.flow = i;
        ASSERT_TRUE(a.net().sendPacket(p, false, a.os().cpu(1)));
    }
    a.net().kickTx(a.os().cpu(1));
    sim.run(sim.now() + msToTicks(10));
    EXPECT_EQ(got, 64u);
    for (unsigned p = 0; p < 4; ++p)
        EXPECT_NE(rx_used(p), before[p]) << "rx queue " << p;
}

TEST_F(FeatureTest, RepeatedUpgradesAccumulate)
{
    auto &g = server.provision(core::InstanceCatalog::evaluated(),
                               0xA);
    sim.run(sim.now() + msToTicks(1));
    for (int i = 0; i < 5; ++i) {
        g.hypervisor().liveUpgrade(nullptr);
        sim.run(sim.now() + msToTicks(1));
    }
    EXPECT_EQ(g.hypervisor().upgrades(), 5u);
    // Console still works after five generations.
    std::string out;
    g.hypervisor().setConsoleSink(
        [&](const std::string &s) { out += s; });
    g.console().write("alive\n", g.os().cpu(0));
    sim.run(sim.now() + msToTicks(2));
    EXPECT_EQ(out, "alive\n");
}

} // namespace
} // namespace bmhive
