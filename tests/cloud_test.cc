/**
 * @file
 * Unit tests for the cloud substrate: vSwitch forwarding and
 * serialization, the inter-server fabric, the block service's
 * latency/content behaviour, and the dual rate limiters that
 * implement the paper's instance caps.
 */

#include <gtest/gtest.h>

#include <memory>
#include <utility>

#include "base/logging.hh"
#include "cloud/block_service.hh"
#include "cloud/rate_limiter.hh"
#include "cloud/vswitch.hh"

namespace bmhive {
namespace cloud {
namespace {

class VSwitchTest : public ::testing::Test
{
  protected:
    VSwitchTest() : sw(sim, "sw")
    {
        pa = sw.addPort(0xa, [&](const Packet &p) {
            gotA.push_back(p);
        });
        pb = sw.addPort(0xb, [&](const Packet &p) {
            gotB.push_back(p);
        });
    }

    Simulation sim;
    VSwitch sw;
    PortId pa = 0, pb = 0;
    std::vector<Packet> gotA, gotB;
};

TEST_F(VSwitchTest, ForwardsByMac)
{
    Packet p;
    p.src = 0xa;
    p.dst = 0xb;
    p.len = 100;
    p.seq = 9;
    sw.send(pa, p);
    sim.run();
    ASSERT_EQ(gotB.size(), 1u);
    EXPECT_EQ(gotB[0].seq, 9u);
    EXPECT_TRUE(gotA.empty());
    EXPECT_EQ(sw.forwarded(), 1u);
}

TEST_F(VSwitchTest, UnknownMacWithoutUplinkDrops)
{
    Packet p;
    p.src = 0xa;
    p.dst = 0xdead;
    p.len = 64;
    sw.send(pa, p);
    sim.run();
    EXPECT_EQ(sw.dropped(), 1u);
    EXPECT_TRUE(gotA.empty() && gotB.empty());
}

TEST_F(VSwitchTest, SwitchCoreSerializesPackets)
{
    // 100 packets injected at the same tick depart the switching
    // core one perPacketCost apart.
    std::vector<Tick> at;
    sw.removePort(pb);
    pb = sw.addPort(0xb2, [&](const Packet &) {
        at.push_back(sim.now());
    });
    for (int i = 0; i < 100; ++i) {
        Packet p;
        p.src = 0xa;
        p.dst = 0xb2;
        p.len = 64;
        sw.send(pa, p);
    }
    sim.run();
    ASSERT_EQ(at.size(), 100u);
    for (std::size_t i = 1; i < at.size(); ++i)
        EXPECT_EQ(at[i] - at[i - 1], nsToTicks(50));
}

TEST_F(VSwitchTest, RemovePortForgetsMacAndAllowsReuse)
{
    sw.removePort(pa);
    // Frames to the removed MAC now drop...
    Packet p;
    p.src = 0xb;
    p.dst = 0xa;
    p.len = 64;
    sw.send(pb, p);
    sim.run();
    EXPECT_TRUE(gotA.empty());
    // ...and the address can be re-registered.
    std::vector<Packet> got2;
    sw.addPort(0xa, [&](const Packet &q) { got2.push_back(q); });
    sw.send(pb, p);
    sim.run();
    EXPECT_EQ(got2.size(), 1u);
}

TEST_F(VSwitchTest, DuplicateMacPanics)
{
    Logger::global().setThrowOnDeath(true);
    EXPECT_THROW(sw.addPort(0xa, nullptr), PanicError);
    Logger::global().setThrowOnDeath(false);
}

TEST(NetFabricTest, RoutesBetweenSwitches)
{
    Simulation sim;
    VSwitch s1(sim, "s1"), s2(sim, "s2");
    NetFabric fabric(sim, "fabric", usToTicks(5));
    fabric.attach(s1);
    fabric.attach(s2);

    std::vector<Packet> got;
    Tick at = 0;
    PortId p1 = s1.addPort(0x1, nullptr);
    s2.addPort(0x2, [&](const Packet &p) {
        got.push_back(p);
        at = sim.now();
    });
    fabric.learn(0x1, s1);
    fabric.learn(0x2, s2);

    Packet p;
    p.src = 0x1;
    p.dst = 0x2; // not local to s1: goes via the uplink
    p.len = 1500;
    s1.send(p1, p);
    sim.run();
    ASSERT_EQ(got.size(), 1u);
    // Propagation (5 us) plus two wire times and switch costs.
    EXPECT_GE(at, usToTicks(5));
    EXPECT_LE(at, usToTicks(10));
}

class BlockServiceTest : public ::testing::Test
{
  protected:
    BlockServiceTest() : svc(sim, "svc"), vol(&svc.createVolume(
                                              "v", 16 * MiB))
    {
    }

    Tick
    oneIo(bool write, Bytes len)
    {
        Tick done = 0;
        BlockIo io;
        io.write = write;
        io.lba = 0;
        io.len = len;
        io.done = [&](bool) { done = sim.now(); };
        Tick t0 = sim.now();
        io.submittedAt = t0;
        svc.submit(*vol, std::move(io));
        sim.run();
        return done - t0;
    }

    Simulation sim;
    BlockService svc;
    Volume *vol;
};

TEST_F(BlockServiceTest, ReadLatencyCoversNetworkAndService)
{
    Tick lat = oneIo(false, 4 * KiB);
    // Two network traversals at 140 us plus SSD service.
    EXPECT_GE(lat, usToTicks(280));
    EXPECT_LE(lat, msToTicks(3));
}

TEST_F(BlockServiceTest, LargeIoStreamsAtFlashBandwidth)
{
    Tick small = oneIo(false, 4 * KiB);
    Tick big = oneIo(false, 1 * MiB);
    // 1 MiB at 16 Gbps adds ~ 520 us of streaming.
    EXPECT_GT(big, small + usToTicks(300));
}

TEST_F(BlockServiceTest, VolumeContentRoundTrip)
{
    std::vector<std::uint8_t> data(2048);
    for (std::size_t i = 0; i < data.size(); ++i)
        data[i] = std::uint8_t(i * 7);
    vol->writeData(10, data);
    EXPECT_EQ(vol->readData(10, 2048), data);
    // Sparse reads of never-written sectors return zeros.
    auto zeros = vol->readData(20000, 512);
    for (auto b : zeros)
        EXPECT_EQ(b, 0u);
}

TEST_F(BlockServiceTest, PartialSectorWriteZeroPads)
{
    std::vector<std::uint8_t> half(256, 0xEE);
    vol->writeData(5, half);
    auto sector = vol->readData(5, 512);
    EXPECT_EQ(sector[0], 0xEEu);
    EXPECT_EQ(sector[255], 0xEEu);
    EXPECT_EQ(sector[256], 0u);
}

TEST_F(BlockServiceTest, OutOfCapacityPanics)
{
    Logger::global().setThrowOnDeath(true);
    std::vector<std::uint8_t> data(512);
    EXPECT_THROW(vol->writeData(16 * MiB / 512, data), PanicError);
    EXPECT_THROW(vol->readData(16 * MiB / 512, 512), PanicError);
    Logger::global().setThrowOnDeath(false);
}

TEST_F(BlockServiceTest, ChannelsLimitParallelism)
{
    // 64 concurrent reads on 8 channels: the last completion is
    // pushed out by channel queueing well beyond a single read.
    Tick last = 0;
    unsigned done = 0;
    for (int i = 0; i < 64; ++i) {
        BlockIo io;
        io.write = false;
        io.lba = std::uint64_t(i) * 8;
        io.len = 4 * KiB;
        io.done = [&](bool) {
            ++done;
            last = sim.now();
        };
        io.submittedAt = sim.now();
        svc.submit(*vol, std::move(io));
    }
    sim.run();
    EXPECT_EQ(done, 64u);
    // 64 IOs / 8 channels = 8 serialized service times minimum.
    EXPECT_GE(last, usToTicks(280) + 7 * usToTicks(40));
}

TEST_F(BlockServiceTest, ReadsClaimFabricCorruptionAtTheService)
{
    fault::FaultSpec corrupt;
    corrupt.kind = fault::FaultKind::FabricCorrupt;
    corrupt.count = 1;
    ASSERT_TRUE(sim.faults().deliver("svc", corrupt));
    auto wireOf = [&](bool write) {
        bool fired = false, wire = false;
        BlockIo io;
        io.write = write;
        io.len = 4 * KiB;
        io.wantCorruption = true;
        io.submittedAt = sim.now();
        io.done = [&](bool w) {
            fired = true;
            wire = w;
        };
        svc.submit(*vol, std::move(io));
        sim.run();
        EXPECT_TRUE(fired);
        return wire;
    };
    // Only a read's payload crosses the return leg: a write leaves
    // the budget alone, the next read claims it, and the read after
    // that comes back clean.
    EXPECT_FALSE(wireOf(true));
    EXPECT_EQ(svc.fabricCorruptions(), 0u);
    EXPECT_TRUE(wireOf(false));
    EXPECT_EQ(svc.fabricCorruptions(), 1u);
    EXPECT_FALSE(wireOf(false));
    EXPECT_EQ(svc.fabricCorruptions(), 1u);
}

TEST(BlockServiceLegTest, RequestLegIsTimedFromSubmittedAt)
{
    // A read handed over as it leaves the server, or once its
    // request leg has elapsed (a cross-partition hop), reaches the
    // cluster at the same tick: same completion, same sample.
    auto run = [](bool after_leg) {
        Simulation sim(5);
        BlockService svc(sim, "svc");
        Volume &vol = svc.createVolume("v", 16 * MiB);
        Tick done = 0;
        auto io = std::make_shared<BlockIo>();
        io->len = 4 * KiB;
        io->submittedAt = usToTicks(10);
        io->done = [&](bool) { done = sim.now(); };
        Tick at = io->submittedAt;
        if (after_leg)
            at += svc.requestDelay(*io);
        sim.post(0, at, [&svc, &vol, io] {
            svc.submit(vol, std::move(*io));
        });
        sim.run();
        return std::make_pair(
            done, sim.metrics().latency("svc.service").maxUs());
    };
    auto direct = run(false);
    auto after_leg = run(true);
    EXPECT_GT(direct.first, usToTicks(290));
    EXPECT_EQ(after_leg.first, direct.first);
    EXPECT_EQ(after_leg.second, direct.second);
}

TEST(DualRateLimiterTest, UnlimitedAdmitsImmediately)
{
    auto lim = DualRateLimiter::unlimited();
    EXPECT_EQ(lim.admit(123, 1 << 20), 123u);
    EXPECT_FALSE(lim.limited());
}

TEST(DualRateLimiterTest, OpsDimensionPaces)
{
    // 1000 ops/s, effectively unlimited bytes.
    DualRateLimiter lim(1000.0, 0.0, 10.0, 0.0);
    Tick last = 0;
    for (int i = 0; i < 100; ++i)
        last = lim.admit(0, 100);
    // 100 ops at 1000/s with burst 10: ~90 ms of pacing.
    EXPECT_NEAR(ticksToMs(last), 90.0, 2.0);
}

TEST(DualRateLimiterTest, BytesDimensionPaces)
{
    // 1 MB/s, unlimited ops.
    DualRateLimiter lim(0.0, 1e6, 0.0, 1e4);
    Tick last = 0;
    for (int i = 0; i < 100; ++i)
        last = lim.admit(0, 10000); // 1 MB total
    EXPECT_NEAR(ticksToMs(last), 990.0, 15.0);
}

TEST(DualRateLimiterTest, StricterDimensionWins)
{
    // Network-style: the paper's 4M PPS + 10 Gbit/s. For 1400B
    // frames, bytes bind (10G/8/1400 = 893K PPS < 4M).
    auto lim = InstanceLimits::cloudNetwork();
    Tick last = 0;
    const int n = 20000;
    for (int i = 0; i < n; ++i)
        last = lim.admit(0, 1442);
    double pps = double(n) / ticksToSec(last);
    EXPECT_NEAR(pps, 10e9 / 8.0 / 1442.0, 5e4);

    // For 64B frames, PPS binds (measure past the 8K-op burst).
    auto lim2 = InstanceLimits::cloudNetwork();
    last = 0;
    const int m = 400000;
    for (int i = 0; i < m; ++i)
        last = lim2.admit(0, 64);
    pps = double(m) / ticksToSec(last);
    EXPECT_NEAR(pps, 4e6, 1.5e5);
}

TEST(DualRateLimiterTest, BurstDepthExhausts)
{
    // 1000 ops/s with burst 10: the bucket front-loads exactly the
    // burst depth at t=0, then the configured rate binds.
    DualRateLimiter lim(1000.0, 0.0, 10.0, 0.0);
    for (int i = 0; i < 10; ++i)
        EXPECT_EQ(lim.admit(0, 1), 0u) << "burst op " << i;
    // The 11th op waits one full token period (1 ms at 1000/s).
    EXPECT_NEAR(ticksToMs(lim.admit(0, 1)), 1.0, 0.05);
}

TEST(DualRateLimiterTest, RefillPacesAtConfiguredRate)
{
    // Drain the burst, go idle, come back: exactly rate * idle
    // tokens are available again, and a long idle never
    // accumulates more than the burst depth.
    DualRateLimiter lim(1000.0, 0.0, 10.0, 0.0);
    for (int i = 0; i < 10; ++i)
        lim.admit(0, 1);
    Tick now = msToTicks(5); // 5 ms idle refills 5 tokens
    for (int i = 0; i < 5; ++i)
        EXPECT_EQ(lim.admit(now, 1), now) << "refilled op " << i;
    EXPECT_NEAR(ticksToMs(lim.admit(now, 1)), 6.0, 0.05);

    DualRateLimiter lim2(1000.0, 0.0, 10.0, 0.0);
    for (int i = 0; i < 10; ++i)
        lim2.admit(0, 1);
    now = secToTicks(1); // a whole second: clamped at burst depth
    for (int i = 0; i < 10; ++i)
        EXPECT_EQ(lim2.admit(now, 1), now) << "clamped op " << i;
    EXPECT_GT(lim2.admit(now, 1), now);
}

TEST(DualRateLimiterTest, LongRunRateConvergesToCap)
{
    // Property: sustained admission rate equals the configured
    // IOPS cap regardless of arrival pattern.
    Rng rng(3);
    auto lim = InstanceLimits::cloudStorage(); // 25K IOPS
    Tick now = 0;
    Tick last = 0;
    const int n = 50000;
    for (int i = 0; i < n; ++i) {
        now += Tick(rng.uniform(0, 2 * 40e6)); // bursty arrivals
        last = std::max(last, lim.admit(now, 4096));
    }
    double iops = double(n) / ticksToSec(last);
    EXPECT_LE(iops, 25e3 * 1.02);
}

} // namespace
} // namespace cloud
} // namespace bmhive
