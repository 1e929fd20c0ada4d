/**
 * @file
 * Adversarial-tenant containment tests:
 *
 *  - every GuestFault kind triggered individually, with exact
 *    counter assertions;
 *  - doorbell-storm throttling and the containment state machine
 *    (healthy -> suspect -> quarantined -> released);
 *  - quarantine round-trip: the guest is parked, drained, reset
 *    and fully functional again after release;
 *  - seeded adversarial fuzz: 10k attack steps never panic and
 *    every contained violation lands in a .guest.faults.* counter;
 *  - determinism: two same-seed fuzz runs produce byte-identical
 *    metric snapshots;
 *  - a device reset cannot hand a shadow block to a new chain while
 *    the reset chain's mirror copy, or a storage read the backend
 *    took before the reset, is still in flight toward it.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "bench/common.hh"
#include "fault/guest_fault.hh"
#include "guest/packet_wire.hh"
#include "hv/bm_hypervisor.hh"
#include "hw/compute_board.hh"
#include "iobond/iobond.hh"
#include "pci/config_space.hh"
#include "virtio/virtio_blk.hh"
#include "virtio/virtio_net.hh"
#include "virtio/virtio_pci.hh"
#include "virtio/virtqueue.hh"
#include "workloads/adversarial.hh"

namespace bmhive {
namespace {

using fault::GuestFaultKind;
using workloads::AdversarialGuest;
using workloads::AdversarialGuestParams;

/** Programmed BAR0 of the bm-guest net function (slot 3). */
Addr
netBar(bench::Testbed &bed)
{
    auto &bus = bed.server.guest(0).board().pciBus();
    return bus.configRead(3, pci::REG_BAR0, 4) &
           ~std::uint32_t(0xf);
}

struct KindCase
{
    unsigned attack;        ///< AdversarialGuest catalogue index
    GuestFaultKind expect;  ///< counter that must move
    std::uint64_t delta;    ///< by exactly this much
};

class GuestFaultKinds : public ::testing::TestWithParam<KindCase>
{
};

TEST_P(GuestFaultKinds, EachKindContainedAndCounted)
{
    const KindCase c = GetParam();
    bench::Testbed bed(3000 + c.attack);
    bed.bmGuest(0xA0, 0);
    bed.sim.run(bed.sim.now() + msToTicks(1));

    auto &bond = bed.server.guest(0).bond();
    AdversarialGuest adv(bed.sim, "adv",
                         bed.server.guest(0).board(), {});

    std::uint64_t before = bond.guestFaults(c.expect);
    std::uint64_t total_before = bond.guestFaultsTotal();
    adv.attack(c.attack);
    bed.sim.run(bed.sim.now() + msToTicks(1));

    EXPECT_EQ(bond.guestFaults(c.expect) - before, c.delta)
        << "fault kind " << fault::guestFaultName(c.expect);
    // The violation is counted, never fatal: the server and the
    // honest machinery are still standing.
    EXPECT_GE(bond.guestFaultsTotal() - total_before, c.delta);
    EXPECT_EQ(bed.server.guestFaultEvents(),
              bond.guestFaultsTotal());
}

INSTANTIATE_TEST_SUITE_P(
    Catalogue, GuestFaultKinds,
    ::testing::Values(
        KindCase{0, GuestFaultKind::BadQueueIndex, 1},
        KindCase{2, GuestFaultKind::AvailIdxJump, 1},
        KindCase{3, GuestFaultKind::DescIndexRange, 1},
        KindCase{4, GuestFaultKind::DescAddrRange, 1},
        KindCase{5, GuestFaultKind::DescLenZero, 1},
        KindCase{6, GuestFaultKind::DescLoop, 1},
        KindCase{7, GuestFaultKind::DescWriteOrder, 1},
        KindCase{8, GuestFaultKind::IndirectMalformed, 1},
        KindCase{9, GuestFaultKind::DescLenOversized, 1},
        KindCase{10, GuestFaultKind::BadMsiVector, 1},
        KindCase{11, GuestFaultKind::BadQueueIndex, 1},
        KindCase{12, GuestFaultKind::BadFeatureWrite, 1},
        KindCase{13, GuestFaultKind::BadConfigAccess, 3},
        KindCase{14, GuestFaultKind::BadRingAddress, 1}));

TEST(DoorbellStorm, ThrottledCountedThenQuarantined)
{
    bench::Testbed bed(3100);
    bed.bmGuest(0xA1, 0);
    // Idle long enough for the per-queue token bucket to refill to
    // its full burst (it was nibbled during driver bring-up).
    bed.sim.run(bed.sim.now() + msToTicks(5));

    auto &bond = bed.server.guest(0).bond();
    auto &bus = bed.server.guest(0).board().pciBus();
    Addr bar = netBar(bed);

    // Hammer one valid doorbell 5000 times within a single tick.
    // The bucket holds exactly `doorbellBurst` tokens, so kicks
    // beyond it are storm faults until the containment score
    // (quarantine at 32) parks the guest; the rest are swallowed.
    const std::uint64_t kicks = 5000;
    const auto burst =
        std::uint64_t(bed.server.guest(0).bond().params()
                          .doorbellBurst);
    for (std::uint64_t i = 0; i < kicks; ++i)
        bus.memWrite(bar + virtio::notifyRegionOffset, 1, 4);

    EXPECT_EQ(bond.guestFaults(GuestFaultKind::DoorbellStorm), 32u);
    EXPECT_EQ(bed.server.quarantines(), 1u);
    EXPECT_EQ(bed.server.guestHealth(0),
              core::GuestHealth::Quarantined);
    EXPECT_EQ(bond.quarantineDrops(), kicks - burst - 32);
}

TEST(Quarantine, RoundTripGuestFunctionalAfterRelease)
{
    bench::Testbed bed(3200);
    auto a = bed.bmGuest(0xA, 0);
    auto b = bed.bmGuest(0xB, 0);
    bed.sim.run(bed.sim.now() + msToTicks(1));

    auto &bond = bed.server.guest(0).bond();
    ASSERT_EQ(bed.server.guestHealth(0), core::GuestHealth::Healthy);

    bed.server.quarantineGuest(0);
    EXPECT_EQ(bed.server.guestHealth(0),
              core::GuestHealth::Quarantined);
    EXPECT_TRUE(bond.quarantined());

    // Doorbells are swallowed while parked.
    auto &bus = bed.server.guest(0).board().pciBus();
    std::uint64_t drops = bond.quarantineDrops();
    bus.memWrite(netBar(bed) + virtio::notifyRegionOffset, 1, 4);
    EXPECT_EQ(bond.quarantineDrops(), drops + 1);

    // The dwell expires on its own; functions are reset so the
    // driver renegotiates onto clean rings.
    std::uint64_t resets = a.net->resets();
    bed.sim.run(bed.sim.now() + msToTicks(5));
    EXPECT_EQ(bed.server.guestHealth(0), core::GuestHealth::Healthy);
    EXPECT_FALSE(bond.quarantined());
    EXPECT_GT(a.net->resets(), resets);
    EXPECT_EQ(bed.server.quarantines(), 1u);

    // And the guest is genuinely back: traffic flows end to end.
    unsigned received = 0;
    b.net->setRxHandler(
        [&](const cloud::Packet &) { ++received; });
    for (unsigned i = 0; i < 20; ++i) {
        cloud::Packet p;
        p.src = 0xA;
        p.dst = 0xB;
        p.len = cloud::udpFrameBytes(256);
        p.seq = i;
        p.created = bed.sim.now();
        ASSERT_TRUE(a.net->sendPacket(p, false, a.cpu(1)));
    }
    a.net->kickTx(a.cpu(1));
    bed.sim.run(bed.sim.now() + msToTicks(10));
    EXPECT_EQ(received, 20u);
}

TEST(AdversarialFuzz, TenThousandStepsNeverFatal)
{
    bench::Testbed bed(3300);
    bed.bmGuest(0xA0, 0);
    auto victim = bed.bmGuest(0xB0, 0);
    bed.sim.run(bed.sim.now() + msToTicks(1));

    AdversarialGuestParams ap;
    ap.seed = bench::Session::faultSeed ? bench::Session::faultSeed
                                        : 0xfeed;
    ap.iterations = 10000;
    AdversarialGuest adv(bed.sim, "adv",
                         bed.server.guest(0).board(), ap);
    adv.start();
    bed.sim.run(bed.sim.now() + msToTicks(30));

    EXPECT_TRUE(adv.done());
    EXPECT_EQ(adv.steps(), 10000u);
    auto &bond = bed.server.guest(0).bond();
    EXPECT_GT(bond.guestFaultsTotal(), 0u);
    EXPECT_GT(bed.server.quarantines(), 0u);
    // Every contained violation is attributed to a specific kind:
    // the per-kind counters sum to the total.
    std::uint64_t sum = 0;
    for (std::size_t k = 0; k < fault::guestFaultKinds; ++k)
        sum += bond.guestFaults(GuestFaultKind(k));
    EXPECT_EQ(sum, bond.guestFaultsTotal());
    // The honest neighbour never saw a device failure.
    EXPECT_EQ(victim.net->resets(), 0u);
}

std::string
fuzzMetricsSnapshot(std::uint64_t seed)
{
    bench::Testbed bed(4000);
    bed.bmGuest(0xA0, 0);
    bed.bmGuest(0xB0, 0);
    bed.sim.run(bed.sim.now() + msToTicks(1));

    AdversarialGuestParams ap;
    ap.seed = seed;
    ap.iterations = 2000;
    AdversarialGuest adv(bed.sim, "adv",
                         bed.server.guest(0).board(), ap);
    adv.start();
    bed.sim.run(bed.sim.now() + msToTicks(10));
    return bed.sim.metrics().toJson();
}

TEST(AdversarialFuzz, SameSeedByteIdenticalMetrics)
{
    std::string one = fuzzMetricsSnapshot(99);
    std::string two = fuzzMetricsSnapshot(99);
    EXPECT_EQ(one, two);
    // And the attack stream really is a function of the seed.
    std::string other = fuzzMetricsSnapshot(100);
    EXPECT_NE(one, other);
}

/**
 * Bring a virtio function up through its BAR0 registers the way a
 * guest driver does: VERSION_1 only, @p queues rings of 8 entries
 * laid out 4 KiB apart from guest address @p rings, then DRIVER_OK.
 */
void
bringUpFunction(pci::PciBus &bus, int slot, Addr bar, unsigned queues,
                Addr rings)
{
    using namespace virtio;
    auto wr = [&](Addr off, std::uint32_t v, unsigned size) {
        bus.memWrite(bar + off, v, size);
    };
    bus.configWrite(slot, pci::REG_BAR0, std::uint32_t(bar), 4);
    bus.configWrite(slot, pci::REG_COMMAND,
                    pci::CMD_MEM_SPACE | pci::CMD_BUS_MASTER, 2);
    wr(COMMON_GFSELECT, 1, 4);
    wr(COMMON_GF, std::uint32_t(VIRTIO_F_VERSION_1 >> 32), 4);
    for (unsigned q = 0; q < queues; ++q) {
        VringLayout l = VringLayout::contiguous(8, rings + q * 0x1000);
        wr(COMMON_Q_SELECT, q, 2);
        wr(COMMON_Q_SIZE, 8, 2);
        wr(COMMON_Q_DESCLO, std::uint32_t(l.descAddr()), 4);
        wr(COMMON_Q_AVAILLO, std::uint32_t(l.availAddr()), 4);
        wr(COMMON_Q_USEDLO, std::uint32_t(l.usedAddr()), 4);
        wr(COMMON_Q_MSIX, q, 2);
        wr(COMMON_Q_ENABLE, 1, 2);
    }
    wr(COMMON_STATUS,
       STATUS_ACKNOWLEDGE | STATUS_DRIVER | STATUS_DRIVER_OK, 1);
}

/**
 * A guest posts a 1 MiB tx payload, resets its net function 5 us
 * later while the payload's mirror copy is still queued on the
 * bond's DMA engine, re-inits at once and posts a 2-segment
 * indirect chain; its backend re-attaches in between. The payload
 * is forged: every 16 bytes hold a well-formed descriptor naming
 * base-memory 48 MiB, outside the bond's shadow region. If the
 * stale chain's shadow block is freed before the copy lands (at
 * the reset, or at the re-attach), the new chain's buffers and
 * indirect table are carved from it, the late copy (~169 us) lands
 * on that table, and a backend polling every 2 us pops a buffer the
 * bond never gave out: on a real server, another slot's memory. The
 * scrubber would only repair the table a pass later, after the
 * backend used it.
 */
TEST(ResetContainment, StaleMirrorCopyCannotRewriteReusedShadowBlocks)
{
    using namespace virtio;
    Simulation sim(5);
    hw::ComputeBoard board(sim, "board",
                           hw::CpuCatalog::xeonE5_2682v4(), 32 * MiB,
                           paper::ioBondPciAccess);
    GuestMemory baseMem("base", 64 * MiB);
    iobond::IoBond bond(sim, "bond", board, baseMem, 0);
    bond.addNetFunction(3, 0xAB);
    // The ring block sits below 4 MiB, the shadow arena above it.
    const Addr regionEnd = 4 * MiB + bond.params().shadowArenaBytes;

    auto &bus = board.pciBus();
    auto wr = [&](Addr off, std::uint32_t v, unsigned size) {
        bus.memWrite(0xe0000000u + off, v, size);
    };
    auto bringUp = [&] {
        bringUpFunction(bus, 3, 0xe0000000u, 2, 0x10000);
    };
    bringUp();
    const VringLayout txRing = VringLayout::contiguous(8, 0x11000);

    const Addr payload = 0x100000;
    const VringDesc forged{48 * MiB, 64, 0, 0};
    for (Addr a = payload; a < payload + MiB; a += vringDescSize)
        writeDescAt(board.memory(), a, forged);
    VirtQueueDriver stale(board.memory(), txRing);
    ASSERT_TRUE(stale.submit({{payload, std::uint32_t(MiB), false}},
                             {}, 1)
                    .has_value());
    wr(notifyRegionOffset, NET_TXQ, 4);
    sim.run(sim.now() + usToTicks(5));
    ASSERT_FALSE(bond.dmaIdle()); // the 1 MiB copy is still queued

    wr(COMMON_STATUS, 0, 1);
    bringUp();
    // The backend re-attaches at once, as it does on re-init: only
    // the queued copy can still write the stale chain's block now.
    VirtQueueDevice dev(baseMem, bond.shadowLayout(0, NET_TXQ));
    bond.backendReattached(0);
    VirtQueueDriver fresh(board.memory(), txRing, /*indirect=*/true,
                          0x40000);
    const std::vector<Segment> out{{0x20000, 64, false},
                                   {0x20100, 64, false}};
    ASSERT_TRUE(fresh.submit(out, {}, 2).has_value());
    wr(notifyRegionOffset, NET_TXQ, 4);

    std::vector<DescChain> popped;
    for (Tick end = sim.now() + usToTicks(400); sim.now() < end;) {
        sim.run(sim.now() + usToTicks(2));
        while (auto c = dev.pop()) {
            popped.push_back(*c);
            dev.pushUsed(c->head, 0);
        }
        bond.backendCompleted(0, NET_TXQ);
    }

    // Only the post-reset chain reaches the backend, as posted, in
    // buffers the bond allocated for it.
    ASSERT_EQ(popped.size(), 1u);
    for (const auto &s : popped[0].segs) {
        EXPECT_GE(s.addr, 4 * MiB) << std::hex << s.addr;
        EXPECT_LE(s.addr + s.len, regionEnd) << std::hex << s.addr;
        EXPECT_EQ(s.len, 64u);
        EXPECT_FALSE(s.deviceWrites);
    }
    EXPECT_EQ(popped[0].segs.size(), out.size());
    // Nothing rotted, so the scrubber had nothing to repair.
    EXPECT_EQ(bond.scrubRepairs(), 0u);
    EXPECT_EQ(bond.malformedChains(), 0u);
}

/**
 * A blk read the backend has sent to storage keeps its shadow
 * buffer until storage answers (~150 us), whatever the guest does
 * meanwhile. The guest resets its blk function with a read in
 * flight and posts a 2-segment indirect rx chain on its net
 * function, which shares the bond's shadow arena. The volume holds
 * forged descriptors naming base-memory 48 MiB. If the reset hands
 * the read's block to the rx chain, the late read data lands on its
 * indirect table, and the next frame is written where the forgery
 * points: on a real server, another slot's memory. Nothing rotted
 * by the scrubber's lights, and it audits nothing then.
 */
TEST(ResetContainment, LateStorageReadCannotRewriteReusedShadowBlocks)
{
    using namespace virtio;
    Simulation sim(5);
    hw::ComputeBoard board(sim, "board",
                           hw::CpuCatalog::xeonE5_2682v4(), 32 * MiB,
                           paper::ioBondPciAccess);
    GuestMemory baseMem("base", 64 * MiB);
    iobond::IoBond bond(sim, "bond", board, baseMem, 0);
    bond.addNetFunction(3, 0xAB);
    bond.addBlkFunction(4, 2048);
    cloud::BlockService storage(sim, "storage");
    cloud::Volume &vol = storage.createVolume("vol", MiB);
    cloud::VSwitch vswitch(sim, "vswitch");
    hw::CpuExecutor core(sim, "core");
    hv::BmHypervisor hv(sim, "hv", board, bond, core, vswitch, 0xAB,
                        &storage, &vol, /*rate_limited=*/false);
    hv.powerOnGuest();

    const Addr forgedAt = 48 * MiB;
    for (Addr a = 0; a < 4096; a += vringDescSize)
        writeDescAt(board.memory(), 0x100000 + a,
                    {forgedAt, 256, VRING_DESC_F_WRITE, 0});
    const auto forged = board.memory().readBlob(0x100000, 4096);
    vol.writeData(0, forged);

    auto &bus = board.pciBus();
    const Addr netBar = 0xe0000000u, blkBar = 0xe1000000u;
    auto wr = [&](Addr bar, Addr off, std::uint32_t v, unsigned size) {
        bus.memWrite(bar + off, v, size);
    };
    bringUpFunction(bus, 3, netBar, 2, 0x10000);
    bringUpFunction(bus, 4, blkBar, 1, 0x20000);
    ASSERT_TRUE(hv.connectBackends());

    // One 4 KiB read of sector 0: the backend takes it to storage.
    auto postRead = [&] {
        VirtQueueDriver blk(board.memory(),
                            VringLayout::contiguous(8, 0x20000));
        VirtioBlkReqHdr{VIRTIO_BLK_T_IN, 0, 0}.writeTo(board.memory(),
                                                       0x50000);
        ASSERT_TRUE(blk.submit({{0x50000, 16, false}},
                               {{0x51000, 4096, true},
                                {0x53000, 1, true}},
                               1)
                        .has_value());
        wr(blkBar, notifyRegionOffset, 0, 4);
        sim.run(sim.now() + usToTicks(20));
    };
    postRead();
    ASSERT_EQ(hv.service().blkInflight(), 1u);
    const VringLayout blkShadow = bond.shadowLayout(1, 0);
    const Addr readBlock = readDescAt(baseMem, blkShadow.descAddr(0)).addr;

    wr(blkBar, COMMON_STATUS, 0, 1);
    VirtQueueDriver rx(board.memory(),
                       VringLayout::contiguous(8, 0x10000),
                       /*indirect=*/true, 0x40000);
    ASSERT_TRUE(rx.submit({}, {{0x30000, 1024, true},
                               {0x30400, 1024, true}},
                          2)
                    .has_value());
    wr(netBar, notifyRegionOffset, NET_RXQ, 4);
    // Storage answers the dropped read after all.
    for (Tick end = sim.now() + msToTicks(2);
         hv.service().blkIos() == 0 && sim.now() < end;)
        sim.run(sim.now() + usToTicks(1));
    ASSERT_EQ(hv.service().blkIos(), 1u);

    cloud::Packet pkt;
    pkt.src = 0xCD;
    pkt.dst = 0xAB;
    pkt.len = 64;
    pkt.seq = 77;
    hv.service().enqueueRx(pkt, 0);
    sim.run(sim.now() + usToTicks(50));

    // The frame lands in the buffer the guest posted, and nowhere
    // the forgery names.
    auto stray = baseMem.readBlob(forgedAt, 256);
    EXPECT_EQ(std::count(stray.begin(), stray.end(), 0), 256);
    auto used = rx.collectUsed();
    ASSERT_EQ(used.size(), 1u);
    EXPECT_EQ(guest::unpackPacket(board.memory(),
                                  0x30000 + VirtioNetHdr::wireSize)
                  .seq,
              77u);
    EXPECT_EQ(bond.scrubRepairs(), 0u);

    // The reset holds the dropped read's block until the backend
    // re-attaches, and the re-attach's fence returns it: the next
    // read is laid out in it again, and completes.
    EXPECT_EQ(bond.shadowBlocksLive(), 1u);
    bringUpFunction(bus, 4, blkBar, 1, 0x20000);
    EXPECT_EQ(bond.shadowBlocksLive(), 0u);
    postRead();
    EXPECT_EQ(readDescAt(baseMem, blkShadow.descAddr(0)).addr,
              readBlock);
    for (Tick end = sim.now() + msToTicks(2);
         hv.service().blkIos() == 1 && sim.now() < end;)
        sim.run(sim.now() + usToTicks(10));
    EXPECT_EQ(hv.service().blkIos(), 2u);
    EXPECT_EQ(board.memory().read8(0x53000), VIRTIO_BLK_S_OK);
    EXPECT_EQ(board.memory().readBlob(0x51000, 4096), forged);
}

} // namespace
} // namespace bmhive
