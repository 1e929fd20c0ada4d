/**
 * @file
 * Unit tests for IO-Bond, the paper's core hardware contribution:
 * shadow-vring mirroring (direct and indirect chains), the timing
 * of the doorbell -> mailbox -> DMA pipeline, completion
 * write-back, interrupt moderation and suppression, arena
 * accounting across load, reset behaviour, and the ASIC timing
 * variant.
 *
 * The tests drive IO-Bond directly, playing both the guest driver
 * (via a real VirtQueueDriver on the compute board) and the
 * bm-hypervisor backend (via a VirtQueueDevice on the shadow
 * ring) — no service loop in between, so every step is observable.
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "base/logging.hh"
#include "fault/fault.hh"
#include "hw/compute_board.hh"
#include "iobond/iobond.hh"
#include "virtio/virtio_net.hh"

namespace bmhive {
namespace iobond {
namespace {

using namespace virtio;
using obs::FlightEvent;

class IoBondTest : public ::testing::Test
{
  protected:
    IoBondTest()
        : sim(5),
          board(sim, "board", hw::CpuCatalog::xeonE5_2682v4(),
                32 * MiB, paper::ioBondPciAccess),
          baseMem("base", 64 * MiB),
          bond(sim, "bond", board, baseMem, 0)
    {
        fn = &bond.addNetFunction(3, 0xAB);
        // Guest-side bring-up: program BAR, negotiate, set queues.
        auto &bus = board.pciBus();
        bus.configWrite(3, pci::REG_BAR0, 0xe0000000u, 4);
        bus.configWrite(3, pci::REG_COMMAND,
                        pci::CMD_MEM_SPACE | pci::CMD_BUS_MASTER,
                        2);
        wr(COMMON_GFSELECT, 1, 4);
        wr(COMMON_GF, std::uint32_t(VIRTIO_F_VERSION_1 >> 32), 4);
        for (unsigned q = 0; q < 2; ++q) {
            wr(COMMON_Q_SELECT, q, 2);
            wr(COMMON_Q_SIZE, 8, 2);
            Addr base = 0x10000 + q * 0x1000;
            layouts[q] = VringLayout::contiguous(8, base);
            wr(COMMON_Q_DESCLO,
               std::uint32_t(layouts[q].descAddr()), 4);
            wr(COMMON_Q_AVAILLO,
               std::uint32_t(layouts[q].availAddr()), 4);
            wr(COMMON_Q_USEDLO,
               std::uint32_t(layouts[q].usedAddr()), 4);
            wr(COMMON_Q_MSIX, q, 2);
            wr(COMMON_Q_ENABLE, 1, 2);
        }
        wr(COMMON_STATUS,
           STATUS_ACKNOWLEDGE | STATUS_DRIVER | STATUS_DRIVER_OK,
           1);
        driver = std::make_unique<VirtQueueDriver>(
            board.memory(), layouts[NET_TXQ], /*indirect=*/false);
    }

    void
    wr(Addr off, std::uint32_t v, unsigned size)
    {
        board.pciBus().memWrite(0xe0000000u + off, v, size);
    }

    /** Ring the tx doorbell (functional). */
    void
    kick()
    {
        wr(notifyRegionOffset, NET_TXQ, 4);
    }

    /** Backend view of the tx shadow ring. */
    VirtQueueDevice
    shadowDev()
    {
        return VirtQueueDevice(baseMem,
                               bond.shadowLayout(0, NET_TXQ));
    }

    /** The mirrored chain carries every submitted segment's length
     *  and direction, in order. */
    static void
    expectSameSegments(const DescChain &shadow,
                       const std::vector<Segment> &guest)
    {
        ASSERT_EQ(shadow.segs.size(), guest.size());
        for (std::size_t i = 0; i < guest.size(); ++i) {
            EXPECT_EQ(shadow.segs[i].len, guest[i].len) << "seg " << i;
            EXPECT_EQ(shadow.segs[i].deviceWrites,
                      guest[i].deviceWrites)
                << "seg " << i;
        }
    }

    Simulation sim;
    hw::ComputeBoard board;
    GuestMemory baseMem;
    IoBond bond;
    IoBondFunction *fn = nullptr;
    VringLayout layouts[2];
    std::unique_ptr<VirtQueueDriver> driver;
};

TEST_F(IoBondTest, ShadowRingsCreatedOnDriverOk)
{
    EXPECT_TRUE(bond.shadowReady(0, NET_RXQ));
    EXPECT_TRUE(bond.shadowReady(0, NET_TXQ));
    // Shadow rings live in base memory with their own addresses.
    auto l = bond.shadowLayout(0, NET_TXQ);
    EXPECT_EQ(l.size(), 8u);
    EXPECT_NE(l.descAddr(), layouts[NET_TXQ].descAddr());
    EXPECT_EQ(l.usedIdx(baseMem), 0u);
}

TEST_F(IoBondTest, DirectChainMirroredWithPayload)
{
    // Guest fills a buffer and posts a 2-segment chain.
    GuestMemory &gmem = board.memory();
    std::vector<std::uint8_t> payload(300);
    for (std::size_t i = 0; i < payload.size(); ++i)
        payload[i] = std::uint8_t(i);
    gmem.writeBlob(0x20000, payload);

    std::vector<Segment> out{{0x20000, 300, false}};
    std::vector<Segment> in{{0x21000, 100, true}};
    auto head = driver->submit(out, in, 1);
    ASSERT_TRUE(head.has_value());
    kick();
    sim.run(sim.now() + msToTicks(1));

    // The backend pops the mirrored chain from base memory.
    auto dev = shadowDev();
    auto chain = dev.pop();
    ASSERT_TRUE(chain.has_value());
    ASSERT_NO_FATAL_FAILURE(expectSameSegments(*chain, {out[0], in[0]}));
    // Shadow addresses are in base memory and hold the payload.
    EXPECT_EQ(baseMem.readBlob(chain->segs[0].addr, 300), payload);
    EXPECT_EQ(bond.chainsForwarded(), 1u);
}

TEST_F(IoBondTest, IndirectChainMirrored)
{
    VirtQueueDriver ind(board.memory(), layouts[NET_TXQ],
                        /*indirect=*/true, 0x40000);
    board.memory().write64(0x22000, 0x1122334455667788ull);
    std::vector<Segment> out{{0x22000, 64, false},
                             {0x23000, 32, false}};
    std::vector<Segment> in{{0x24000, 16, true}};
    auto head = ind.submit(out, in, 2);
    ASSERT_TRUE(head.has_value());
    kick();
    sim.run(sim.now() + msToTicks(1));

    auto dev = shadowDev();
    auto chain = dev.pop();
    ASSERT_TRUE(chain.has_value());
    ASSERT_NO_FATAL_FAILURE(
        expectSameSegments(*chain, {out[0], out[1], in[0]}));
    EXPECT_EQ(baseMem.read64(chain->segs[0].addr),
              0x1122334455667788ull);
}

TEST_F(IoBondTest, DoorbellToShadowTimingMatchesPaper)
{
    driver->submit({{0x20000, 64, false}}, {}, 1);
    Tick t0 = sim.now();
    kick();
    // Not visible before the mailbox hop + DMA complete.
    sim.run(t0 + paper::ioBondMailboxAccess - 1);
    EXPECT_FALSE(shadowDev().hasWork());
    sim.run(t0 + usToTicks(3));
    EXPECT_TRUE(shadowDev().hasWork());
}

TEST_F(IoBondTest, CompletionWritesBackDataAndRaisesMsi)
{
    // Register an MSI observer on the board bus.
    unsigned msis = 0;
    board.pciBus().setMsiHandler(
        [&](int, unsigned) { ++msis; });

    auto head = driver->submit({{0x20000, 64, false}},
                               {{0x21000, 128, true}}, 7);
    ASSERT_TRUE(head.has_value());
    kick();
    sim.run(sim.now() + msToTicks(1));

    auto dev = shadowDev();
    auto chain = dev.pop();
    ASSERT_TRUE(chain.has_value());
    // Backend writes a reply into the writable shadow segment.
    std::vector<std::uint8_t> reply(128);
    for (std::size_t i = 0; i < reply.size(); ++i)
        reply[i] = std::uint8_t(0xF0 | (i & 0xf));
    baseMem.writeBlob(chain->segs[1].addr, reply);
    dev.pushUsed(chain->head, 64 + 128);
    bond.backendCompleted(0, NET_TXQ);
    sim.run(sim.now() + msToTicks(1));

    // The guest sees the completion, the data, and one MSI.
    auto done = driver->collectUsed();
    ASSERT_EQ(done.size(), 1u);
    EXPECT_EQ(done[0].cookie, 7u);
    EXPECT_EQ(done[0].len, 64u + 128u);
    // Write-back budget: only elem.len bytes flow, read seg (64)
    // consumed first, so all 128 writable bytes landed.
    EXPECT_EQ(board.memory().readBlob(0x21000, 128), reply);
    EXPECT_EQ(msis, 1u);
    EXPECT_EQ(bond.completionsReturned(), 1u);
}

TEST_F(IoBondTest, InterruptModerationOneMsiPerBatch)
{
    unsigned msis = 0;
    board.pciBus().setMsiHandler(
        [&](int, unsigned) { ++msis; });
    for (int i = 0; i < 4; ++i)
        driver->submit({{0x20000u + Addr(i) * 256, 64, false}}, {},
                       std::uint64_t(i));
    kick();
    sim.run(sim.now() + msToTicks(1));
    auto dev = shadowDev();
    unsigned popped = 0;
    while (auto c = dev.pop()) {
        dev.pushUsed(c->head, 0);
        ++popped;
    }
    EXPECT_EQ(popped, 4u);
    bond.backendCompleted(0, NET_TXQ);
    sim.run(sim.now() + msToTicks(1));
    EXPECT_EQ(driver->collectUsed().size(), 4u);
    EXPECT_EQ(msis, 1u); // one MSI for the whole batch
}

TEST_F(IoBondTest, InterruptSuppressionHonored)
{
    unsigned msis = 0;
    board.pciBus().setMsiHandler(
        [&](int, unsigned) { ++msis; });
    driver->setNoInterrupt(true);
    driver->submit({{0x20000, 64, false}}, {}, 1);
    kick();
    sim.run(sim.now() + msToTicks(1));
    auto dev = shadowDev();
    auto c = dev.pop();
    ASSERT_TRUE(c.has_value());
    dev.pushUsed(c->head, 0);
    bond.backendCompleted(0, NET_TXQ);
    sim.run(sim.now() + msToTicks(1));
    // Data/used still returned, but silently.
    EXPECT_EQ(driver->collectUsed().size(), 1u);
    EXPECT_EQ(msis, 0u);
}

TEST_F(IoBondTest, MalformedGuestChainDroppedAndCompleted)
{
    // Craft a loop directly in guest memory.
    GuestMemory &gmem = board.memory();
    auto &l = layouts[NET_TXQ];
    l.writeDesc(gmem, 4, {0x100, 8, VRING_DESC_F_NEXT, 5});
    l.writeDesc(gmem, 5, {0x200, 8, VRING_DESC_F_NEXT, 4});
    std::uint16_t avail = l.availIdx(gmem);
    l.setAvailRing(gmem, avail % l.size(), 4);
    l.setAvailIdx(gmem, avail + 1);
    kick();
    sim.run(sim.now() + msToTicks(1));
    EXPECT_EQ(bond.malformedChains(), 1u);
    EXPECT_FALSE(shadowDev().hasWork());
    // Completed back to the guest with len 0 (not leaked).
    EXPECT_EQ(l.usedIdx(gmem), 1u);
    EXPECT_EQ(l.usedRing(gmem, 0).len, 0u);
}

TEST_F(IoBondTest, ArenaAccountingBalancedUnderLoad)
{
    // Push many chains through; after everything completes the
    // pool must be back to empty (no leaked shadow buffers).
    auto dev = std::make_unique<VirtQueueDevice>(
        baseMem, bond.shadowLayout(0, NET_TXQ));
    unsigned completed = 0;
    for (int round = 0; round < 50; ++round) {
        for (int i = 0; i < 6; ++i) {
            driver->submit({{0x20000u + Addr(i) * 512, 256, false}},
                           {}, std::uint64_t(i));
        }
        kick();
        sim.run(sim.now() + msToTicks(1));
        while (auto c = dev->pop()) {
            dev->pushUsed(c->head, 0);
            ++completed;
        }
        bond.backendCompleted(0, NET_TXQ);
        sim.run(sim.now() + msToTicks(1));
        driver->collectUsed();
    }
    EXPECT_EQ(completed, 300u);
    EXPECT_EQ(bond.chainsForwarded(), 300u);
    EXPECT_EQ(bond.completionsReturned(), 300u);
    // DMA moved every payload byte at least once.
    EXPECT_GE(bond.dma().bytesMoved(), 300u * 256u);
    EXPECT_EQ(bond.shadowBlocksLive(), 0u);
}

TEST_F(IoBondTest, RepostedInFlightHeadIsContained)
{
    // A guest re-publishes a 1 MiB chain whose head the device
    // still owns. Mirroring each re-post would orphan the live
    // chain's shadow blocks until 16 of them pinned the whole
    // 16 MiB arena, for good: completions and resets free only
    // the newest. Each re-post is a contained fault instead.
    GuestMemory &gmem = board.memory();
    const VringLayout &l = layouts[NET_TXQ];
    auto post = [&](std::uint16_t head) {
        std::uint16_t idx = l.availIdx(gmem);
        l.setAvailRing(gmem, idx % l.size(), head);
        l.setAvailIdx(gmem, std::uint16_t(idx + 1));
        kick();
        sim.run(sim.now() + msToTicks(2));
    };
    l.writeDesc(gmem, 0, {0x100000, std::uint32_t(MiB), 0, 0});
    for (int i = 0; i < 20; ++i)
        post(0);
    EXPECT_EQ(bond.guestFaults(fault::GuestFaultKind::HeadInFlight),
              19u);
    EXPECT_EQ(bond.malformedChains(), 0u);
    EXPECT_EQ(bond.chainsForwarded(), 1u);

    // The backend runs the chain once, and its completion empties
    // the arena.
    auto dev = shadowDev();
    unsigned popped = 0;
    while (auto c = dev.pop()) {
        dev.pushUsed(c->head, 0);
        ++popped;
    }
    EXPECT_EQ(popped, 1u);
    bond.backendCompleted(0, NET_TXQ);
    sim.run(sim.now() + msToTicks(1));
    EXPECT_EQ(bond.inflightChains(), 0u);

    // So a chain of the 4 MiB per-chain maximum still mirrors.
    l.writeDesc(gmem, 1, {0x400000, std::uint32_t(4 * MiB), 0, 0});
    post(1);
    EXPECT_EQ(bond.malformedChains(), 0u);
    auto big = dev.pop();
    ASSERT_TRUE(big.has_value());
    EXPECT_EQ(big->segs[0].len, 4 * MiB);
}

TEST_F(IoBondTest, ScrubCountsOneRepairPerRottedDescriptor)
{
    // DmaCorruptMeta flips the len of a live chain's first buffer
    // descriptor; the next scrub pass rewrites that one descriptor
    // and counts exactly one repair. First a 3-descriptor direct
    // chain on tx, parked next to a second one through 1 ms of clean
    // passes before the rot lands, then a 3-entry indirect table on
    // rx.
    auto rot = [&] {
        fault::FaultSpec f;
        f.kind = fault::FaultKind::DmaCorruptMeta;
        ASSERT_TRUE(sim.faults().deliver("bond", f));
    };
    auto &checked =
        sim.metrics().counter("bond.integrity.scrub.checked");
    std::vector<Segment> out{{0x20000, 64, false},
                             {0x20100, 64, false}};
    std::vector<Segment> in{{0x21000, 64, true}};
    ASSERT_TRUE(driver->submit(out, in, 1).has_value());
    ASSERT_TRUE(driver->submit({{0x20200, 64, false}}, {}, 2)
                    .has_value());
    kick();
    sim.run(sim.now() + msToTicks(1));
    EXPECT_EQ(bond.scrubRuns(), 19u);
    EXPECT_EQ(checked.value(), 38u);
    EXPECT_EQ(bond.scrubRepairs(), 0u);
    rot();
    sim.run(sim.now() + usToTicks(100));
    EXPECT_EQ(bond.metaFaultsInjected(), 1u);
    EXPECT_EQ(bond.scrubRuns(), 21u);
    EXPECT_EQ(checked.value(), 42u);
    EXPECT_EQ(bond.scrubRepairs(), 1u);
    // The repaired chain reaches the backend intact; completing both
    // leaves the rx chain below the only one live.
    auto dev = shadowDev();
    auto chain = dev.pop();
    ASSERT_TRUE(chain.has_value());
    ASSERT_NO_FATAL_FAILURE(
        expectSameSegments(*chain, {out[0], out[1], in[0]}));
    dev.pushUsed(chain->head, 0);
    auto parked = dev.pop();
    ASSERT_TRUE(parked.has_value());
    dev.pushUsed(parked->head, 0);
    bond.backendCompleted(0, NET_TXQ);
    sim.run(sim.now() + usToTicks(10));
    ASSERT_EQ(bond.inflightChains(), 0u);

    VirtQueueDriver rx(board.memory(), layouts[NET_RXQ],
                       /*indirect=*/true, 0x40000);
    ASSERT_TRUE(rx.submit({}, {{0x30000, 64, true},
                               {0x30100, 64, true},
                               {0x30200, 64, true}},
                          2)
                    .has_value());
    wr(notifyRegionOffset, NET_RXQ, 4);
    sim.run(sim.now() + usToTicks(10));
    rot();
    sim.run(sim.now() + usToTicks(100));
    EXPECT_EQ(bond.metaFaultsInjected(), 2u);
    EXPECT_EQ(bond.scrubRepairs(), 2u);
    EXPECT_EQ(bond.integrityQueueResets(), 0u);
}

TEST_F(IoBondTest, ScrubSeesSlotSharedByTwoLiveChains)
{
    // The guest links slots 0 -> 1 into one chain, then publishes
    // slot 1 as a head of its own: one shadow slot now belongs to
    // two live chains, and each chain's audit rewrites it back to
    // its own descriptor, two repairs a pass. The second dirty
    // pass escalates to a function reset, which ends the audits.
    GuestMemory &gmem = board.memory();
    const VringLayout &l = layouts[NET_TXQ];
    auto post = [&](std::uint16_t head) {
        std::uint16_t idx = l.availIdx(gmem);
        l.setAvailRing(gmem, idx % l.size(), head);
        l.setAvailIdx(gmem, std::uint16_t(idx + 1));
        kick();
        sim.run(sim.now() + usToTicks(10));
    };
    l.writeDesc(gmem, 0, {0x20000, 64, VRING_DESC_F_NEXT, 1});
    l.writeDesc(gmem, 1, {0x20100, 64, 0, 0});
    post(0);
    post(1);
    EXPECT_EQ(bond.chainsForwarded(), 2u);
    EXPECT_EQ(bond.guestFaultsTotal(), 0u);
    sim.run(sim.now() + usToTicks(200));
    EXPECT_EQ(bond.scrubRuns(), 2u);
    EXPECT_EQ(
        sim.metrics().counter("bond.integrity.scrub.checked").value(),
        4u);
    EXPECT_EQ(bond.scrubRepairs(), 4u);
    EXPECT_EQ(bond.integrityQueueResets(), 1u);
    EXPECT_EQ(bond.inflightChains(), 0u);
}

TEST_F(IoBondTest, ResetDropsInflightAndStopsSync)
{
    driver->submit({{0x20000, 64, false}}, {}, 1);
    kick();
    sim.run(sim.now() + msToTicks(1));
    ASSERT_TRUE(shadowDev().hasWork());

    // Guest resets the device (status = 0).
    wr(COMMON_STATUS, 0, 1);
    EXPECT_FALSE(bond.shadowReady(0, NET_TXQ));
    // Doorbells after reset are ignored (queue disabled).
    kick();
    sim.run(sim.now() + msToTicks(1));
    EXPECT_EQ(bond.malformedChains(), 0u);
}

TEST_F(IoBondTest, AsicParamsCutPciTiming)
{
    IoBondParams asic = IoBondParams::asic();
    EXPECT_EQ(asic.pciAccess, paper::ioBondAsicPciAccess);
    EXPECT_EQ(asic.mailboxAccess, paper::ioBondAsicPciAccess);
    EXPECT_EQ(asic.pciAccess * 4, paper::ioBondPciAccess);
}

TEST_F(IoBondTest, FlightRecorderObservesDatapath)
{
    obs::FlightRecorder flight("bond.flight", sim.metrics(), 64);
    bond.setFlightRecorder(&flight);
    driver->submit({{0x20000, 64, false}}, {}, 1);
    kick();
    sim.run(sim.now() + msToTicks(1));
    // The doorbell is accepted first; the chain then lands on the
    // kicked queue's shadow vring.
    auto events = flight.lastEvents();
    auto onTxq = [](FlightEvent ev) {
        return [ev](const obs::FlightRecorder::Record &r) {
            return r.ev == ev && r.fn == 0 && r.q == NET_TXQ;
        };
    };
    auto bell = std::find_if(events.begin(), events.end(),
                             onTxq(FlightEvent::DoorbellAccept));
    ASSERT_NE(bell, events.end());
    auto sync = std::find_if(bell, events.end(),
                             onTxq(FlightEvent::AvailSync));
    ASSERT_NE(sync, events.end());
    EXPECT_EQ(sync->a, 1u); // one chain in the burst
}

TEST_F(IoBondTest, DeviceConfigExposesMac)
{
    // MAC bytes are readable through the device-config window.
    std::uint32_t lo =
        board.pciBus().memRead(0xe0000000u + deviceCfgOffset, 4);
    EXPECT_EQ(lo & 0xff, 0xABu);
}

TEST_F(IoBondTest, BatchedDoorbellIsOneDoorbell)
{
    // A driver batching many chains behind one notify must look
    // like exactly one doorbell to the storm throttle: repeated
    // full-ring bursts must forward everything and classify zero
    // DoorbellStorm faults.
    auto dev = shadowDev();
    unsigned forwarded = 0;
    for (unsigned round = 0; round < 200; ++round) {
        for (unsigned i = 0; i < 8; ++i) {
            auto h = driver->submit(
                {{0x20000u + Addr(i) * 256, 64, false}}, {},
                round * 8 + i);
            ASSERT_TRUE(h.has_value());
        }
        kick(); // one doorbell for the whole burst
        sim.run(sim.now() + usToTicks(50));
        while (auto c = dev.pop()) {
            dev.pushUsed(c->head, 0);
            ++forwarded;
        }
        bond.backendCompleted(0, NET_TXQ);
        sim.run(sim.now() + usToTicks(50));
        for (const auto &c : driver->collectUsed())
            (void)c;
    }
    EXPECT_EQ(forwarded, 1600u);
    EXPECT_EQ(bond.guestFaults(fault::GuestFaultKind::DoorbellStorm),
              0u);
    EXPECT_EQ(bond.chainsForwarded(), 1600u);
    EXPECT_EQ(bond.completionsReturned(), 1600u);
}

/**
 * Regression rig for 16-bit ring-index wraparound: negotiates
 * VIRTIO_RING_F_EVENT_IDX (the fixture's bring-up does not), then
 * pushes far more than 65536 chains through a size-8 queue so
 * every shadow-side cursor and the guest-facing avail_event cross
 * the index wrap several times, with dropped-doorbell faults and
 * crash-recovery sweeps in the hottest region.
 *
 * On the pre-fix logic the device half never advanced the guest's
 * avail_event, so an event-idx driver stopped kicking as soon as
 * its avail index left the first 2^16 window — the queue wedged on
 * round one.
 */
TEST(IoBondWrapTest, EventIdxSurvivesIndexWrapUnderFaults)
{
    Simulation sim(5);
    hw::ComputeBoard board(sim, "board",
                           hw::CpuCatalog::xeonE5_2682v4(), 32 * MiB,
                           paper::ioBondPciAccess);
    GuestMemory baseMem("base", 64 * MiB);
    IoBond bond(sim, "bond", board, baseMem, 0);
    bond.addNetFunction(3, 0xAB);

    auto &bus = board.pciBus();
    auto wr = [&](Addr off, std::uint32_t v, unsigned size) {
        bus.memWrite(0xe0000000u + off, v, size);
    };
    bus.configWrite(3, pci::REG_BAR0, 0xe0000000u, 4);
    bus.configWrite(3, pci::REG_COMMAND,
                    pci::CMD_MEM_SPACE | pci::CMD_BUS_MASTER, 2);
    wr(COMMON_GFSELECT, 0, 4);
    wr(COMMON_GF, std::uint32_t(VIRTIO_RING_F_EVENT_IDX), 4);
    wr(COMMON_GFSELECT, 1, 4);
    wr(COMMON_GF, std::uint32_t(VIRTIO_F_VERSION_1 >> 32), 4);
    VringLayout layouts[2];
    for (unsigned q = 0; q < 2; ++q) {
        wr(COMMON_Q_SELECT, q, 2);
        wr(COMMON_Q_SIZE, 8, 2);
        layouts[q] =
            VringLayout::contiguous(8, 0x10000 + q * 0x1000);
        wr(COMMON_Q_DESCLO, std::uint32_t(layouts[q].descAddr()), 4);
        wr(COMMON_Q_AVAILLO, std::uint32_t(layouts[q].availAddr()),
           4);
        wr(COMMON_Q_USEDLO, std::uint32_t(layouts[q].usedAddr()), 4);
        wr(COMMON_Q_MSIX, q, 2);
        wr(COMMON_Q_ENABLE, 1, 2);
    }
    wr(COMMON_STATUS,
       STATUS_ACKNOWLEDGE | STATUS_DRIVER | STATUS_DRIVER_OK, 1);
    VirtQueueDriver driver(board.memory(), layouts[NET_TXQ],
                           /*indirect=*/false, 0,
                           /*event_idx=*/true);

    auto dev = std::make_unique<VirtQueueDevice>(
        baseMem, bond.shadowLayout(0, NET_TXQ));

    const unsigned kPerRound = 8;
    const unsigned kRounds = 8400; // 67200 chains > 65536
    std::uint64_t nextCookie = 0, expect = 0, completed = 0;
    for (unsigned round = 0; round < kRounds; ++round) {
        for (unsigned i = 0; i < kPerRound; ++i) {
            auto h = driver.submit(
                {{0x20000u + Addr(i) * 256, 64, false}}, {},
                nextCookie);
            ASSERT_TRUE(h.has_value()) << "round " << round;
            ++nextCookie;
        }
        bool fault_round = (round % 1024) == 1000;
        if (fault_round) {
            // Lose the doorbell; the resync sweep picks the work
            // up once the injected loss budget is spent.
            sim.faults().deliver(
                "bond",
                fault::FaultSpec{fault::FaultKind::DropDoorbell, 1,
                                 0, 0.0});
        }
        if (driver.shouldKick())
            wr(notifyRegionOffset, NET_TXQ, 4);
        sim.run(sim.now() +
                (fault_round ? usToTicks(200) : usToTicks(50)));
        // Crash-recovery sweeps right around the wrap region.
        if (round >= 8190 && round <= 8194) {
            dev = std::make_unique<VirtQueueDevice>(
                baseMem, bond.shadowLayout(0, NET_TXQ));
            bond.recoverQueue(0, NET_TXQ);
            sim.run(sim.now() + usToTicks(50));
        }
        unsigned got = 0;
        while (auto c = dev->pop()) {
            dev->pushUsed(c->head, 0);
            ++got;
        }
        ASSERT_EQ(got, kPerRound)
            << "round " << round << " avail="
            << layouts[NET_TXQ].availIdx(board.memory());
        bond.backendCompleted(0, NET_TXQ);
        sim.run(sim.now() + usToTicks(50));
        for (const auto &c : driver.collectUsed()) {
            // In-order, exactly-once completion across the wrap.
            ASSERT_EQ(c.cookie, expect) << "round " << round;
            ++expect;
            ++completed;
        }
    }
    EXPECT_EQ(completed, nextCookie);
    EXPECT_EQ(bond.chainsForwarded(), std::uint64_t(completed));
    EXPECT_EQ(bond.completionsReturned(), std::uint64_t(completed));
}

} // namespace
} // namespace iobond
} // namespace bmhive
