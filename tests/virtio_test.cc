/**
 * @file
 * Unit tests for the virtio substrate: the split-ring byte layout
 * against hand-computed offsets from the virtio 1.0 spec, the
 * driver/device queue views, malformed-chain robustness, and the
 * virtio-pci transport.
 */

#include <gtest/gtest.h>

#include "base/logging.hh"
#include "mem/guest_memory.hh"
#include "sim/sim_object.hh"
#include "virtio/virtio_blk.hh"
#include "virtio/virtio_net.hh"
#include "virtio/virtio_pci.hh"
#include "virtio/virtqueue.hh"
#include "virtio/vring.hh"

namespace bmhive {
namespace virtio {
namespace {

TEST(VringLayoutTest, SpecOffsets)
{
    // virtio 1.0 section 2.4: desc 16B each; avail = flags(2) +
    // idx(2) + ring(2*N) + used_event(2); used = flags(2) + idx(2)
    // + ring(8*N) + avail_event(2).
    VringLayout l = VringLayout::contiguous(8, 0);
    EXPECT_EQ(l.descAddr(), 0u);
    EXPECT_EQ(l.availAddr(), 8u * 16u);
    // avail ends at 128 + 4 + 16 + 2 = 150; used aligns to 4.
    EXPECT_EQ(l.usedAddr(), 152u);
    EXPECT_EQ(l.descBytes(), 128u);
    EXPECT_EQ(l.availBytes(), 22u);
    EXPECT_EQ(l.usedBytes(), 70u);
    EXPECT_EQ(VringLayout::bytesNeeded(8), 152u + 70u);
}

TEST(VringLayoutTest, DescRoundTripAtExactOffsets)
{
    GuestMemory m("m", 4096);
    VringLayout l = VringLayout::contiguous(4, 0x100);
    VringDesc d{0x123456789abcdef0ull, 0xcafebabe,
                VRING_DESC_F_NEXT | VRING_DESC_F_WRITE, 3};
    l.writeDesc(m, 2, d);
    // Raw bytes at descAddr + 2*16.
    Addr a = l.descAddr() + 32;
    EXPECT_EQ(m.read64(a), d.addr);
    EXPECT_EQ(m.read32(a + 8), d.len);
    EXPECT_EQ(m.read16(a + 12), d.flags);
    EXPECT_EQ(m.read16(a + 14), d.next);
    VringDesc r = l.readDesc(m, 2);
    EXPECT_EQ(r.addr, d.addr);
    EXPECT_EQ(r.len, d.len);
    EXPECT_EQ(r.flags, d.flags);
    EXPECT_EQ(r.next, d.next);
}

TEST(VringLayoutTest, AvailUsedFieldsIndependent)
{
    GuestMemory m("m", 4096);
    VringLayout l = VringLayout::contiguous(4, 0);
    l.setAvailFlags(m, 1);
    l.setAvailIdx(m, 7);
    l.setAvailRing(m, 3, 2);
    l.setUsedEvent(m, 5);
    l.setUsedFlags(m, 1);
    l.setUsedIdx(m, 9);
    l.setUsedRing(m, 0, {2, 100});
    l.setAvailEvent(m, 6);
    EXPECT_EQ(l.availFlags(m), 1u);
    EXPECT_EQ(l.availIdx(m), 7u);
    EXPECT_EQ(l.availRing(m, 3), 2u);
    EXPECT_EQ(l.usedEvent(m), 5u);
    EXPECT_EQ(l.usedFlags(m), 1u);
    EXPECT_EQ(l.usedIdx(m), 9u);
    EXPECT_EQ(l.usedRing(m, 0).id, 2u);
    EXPECT_EQ(l.usedRing(m, 0).len, 100u);
    EXPECT_EQ(l.availEvent(m), 6u);
}

TEST(VringLayoutTest, NonPowerOfTwoSizePanics)
{
    Logger::global().setThrowOnDeath(true);
    EXPECT_THROW(VringLayout::contiguous(6, 0), PanicError);
    EXPECT_THROW(VringLayout::contiguous(0, 0), PanicError);
    Logger::global().setThrowOnDeath(false);
}

class QueuePairTest : public ::testing::TestWithParam<bool>
{
  protected:
    QueuePairTest()
        : mem("m", 1 * MiB),
          layout(VringLayout::contiguous(8, 0x1000)),
          drv(mem, layout, GetParam(), 0x8000),
          dev(mem, layout)
    {
    }

    GuestMemory mem;
    VringLayout layout;
    VirtQueueDriver drv;
    VirtQueueDevice dev;
};

TEST_P(QueuePairTest, SubmitPopCompleteCollect)
{
    // Driver posts [out 100B @0x20000][in 50B @0x21000].
    auto head = drv.submit({{0x20000, 100, false}},
                           {{0x21000, 50, true}}, 0x77);
    ASSERT_TRUE(head.has_value());
    EXPECT_TRUE(dev.hasWork());

    auto chain = dev.pop();
    ASSERT_TRUE(chain.has_value());
    ASSERT_EQ(chain->segs.size(), 2u);
    EXPECT_EQ(chain->segs[0].addr, 0x20000u);
    EXPECT_EQ(chain->segs[0].len, 100u);
    EXPECT_FALSE(chain->segs[0].deviceWrites);
    EXPECT_EQ(chain->segs[1].addr, 0x21000u);
    EXPECT_TRUE(chain->segs[1].deviceWrites);
    EXPECT_EQ(chain->readLen(), 100u);
    EXPECT_EQ(chain->writeLen(), 50u);
    EXPECT_FALSE(dev.hasWork());

    dev.pushUsed(chain->head, 50);
    auto done = drv.collectUsed();
    ASSERT_EQ(done.size(), 1u);
    EXPECT_EQ(done[0].cookie, 0x77u);
    EXPECT_EQ(done[0].len, 50u);
    EXPECT_EQ(drv.freeDescs(), 8u);
}

TEST_P(QueuePairTest, RingFillsAndRecovers)
{
    // With direct descriptors a 2-seg request takes 2 descs (4
    // requests fill the ring); with indirect each takes 1.
    std::vector<std::uint16_t> heads;
    int submitted = 0;
    while (true) {
        auto h = drv.submit({{0x20000, 10, false}},
                            {{0x21000, 10, true}},
                            std::uint64_t(submitted));
        if (!h)
            break;
        ++submitted;
        ASSERT_LT(submitted, 100);
    }
    EXPECT_EQ(submitted, GetParam() ? 8 : 4);

    while (auto c = dev.pop())
        dev.pushUsed(c->head, 10);
    auto done = drv.collectUsed();
    EXPECT_EQ(int(done.size()), submitted);
    EXPECT_EQ(drv.freeDescs(), 8u);

    // The ring is usable again (indices wrapped correctly).
    auto h2 = drv.submit({{0x20000, 10, false}}, {}, 999);
    ASSERT_TRUE(h2.has_value());
    auto c2 = dev.pop();
    ASSERT_TRUE(c2.has_value());
    dev.pushUsed(c2->head, 0);
    EXPECT_EQ(drv.collectUsed().at(0).cookie, 999u);
}

TEST_P(QueuePairTest, IndexWrapAround16Bit)
{
    // Push enough traffic through an 8-entry ring to wrap the
    // 16-bit indices several times.
    for (int round = 0; round < 20000; ++round) {
        auto h = drv.submit({{0x20000, 8, false}}, {},
                            std::uint64_t(round));
        ASSERT_TRUE(h.has_value()) << round;
        auto c = dev.pop();
        ASSERT_TRUE(c.has_value()) << round;
        dev.pushUsed(c->head, 0);
        auto done = drv.collectUsed();
        ASSERT_EQ(done.size(), 1u);
        ASSERT_EQ(done[0].cookie, std::uint64_t(round));
    }
}

INSTANTIATE_TEST_SUITE_P(DirectAndIndirect, QueuePairTest,
                         ::testing::Values(false, true),
                         [](const auto &info) {
                             return info.param ? "Indirect"
                                               : "Direct";
                         });

TEST(VirtQueueDeviceTest, MalformedLoopDropsChain)
{
    GuestMemory mem("m", 64 * KiB);
    VringLayout l = VringLayout::contiguous(4, 0);
    VirtQueueDevice dev(mem, l);

    // Hand-craft a looping chain: 0 -> 1 -> 0.
    l.writeDesc(mem, 0, {0x100, 8, VRING_DESC_F_NEXT, 1});
    l.writeDesc(mem, 1, {0x200, 8, VRING_DESC_F_NEXT, 0});
    l.setAvailRing(mem, 0, 0);
    l.setAvailIdx(mem, 1);

    EXPECT_FALSE(dev.pop().has_value());
    EXPECT_EQ(dev.badChains(), 1u);
    // The chain was completed back with len 0, not leaked.
    EXPECT_EQ(l.usedIdx(mem), 1u);
    EXPECT_EQ(l.usedRing(mem, 0).id, 0u);
    EXPECT_EQ(l.usedRing(mem, 0).len, 0u);
}

TEST(VirtQueueDeviceTest, OutOfRangeIndexDropsChain)
{
    GuestMemory mem("m", 64 * KiB);
    VringLayout l = VringLayout::contiguous(4, 0);
    VirtQueueDevice dev(mem, l);
    l.setAvailRing(mem, 0, 9); // head out of range
    l.setAvailIdx(mem, 1);
    EXPECT_FALSE(dev.pop().has_value());
    EXPECT_EQ(dev.badChains(), 1u);
}

TEST(VirtQueueDeviceTest, NestedIndirectRejected)
{
    GuestMemory mem("m", 64 * KiB);
    VringLayout l = VringLayout::contiguous(4, 0);
    VirtQueueDevice dev(mem, l);
    // Indirect table whose entry is itself indirect.
    Addr tbl = 0x4000;
    mem.write64(tbl, 0x5000);
    mem.write32(tbl + 8, 16);
    mem.write16(tbl + 12, VRING_DESC_F_INDIRECT);
    mem.write16(tbl + 14, 0);
    l.writeDesc(mem, 0, {tbl, 16, VRING_DESC_F_INDIRECT, 0});
    l.setAvailRing(mem, 0, 0);
    l.setAvailIdx(mem, 1);
    EXPECT_FALSE(dev.pop().has_value());
    EXPECT_EQ(dev.badChains(), 1u);
}

TEST(VirtQueueDeviceTest, NotifySuppressionFlags)
{
    GuestMemory mem("m", 64 * KiB);
    VringLayout l = VringLayout::contiguous(4, 0);
    VirtQueueDriver drv(mem, l);
    VirtQueueDevice dev(mem, l);

    EXPECT_TRUE(drv.deviceWantsKick());
    dev.setNoNotify(true);
    EXPECT_FALSE(drv.deviceWantsKick());

    EXPECT_TRUE(dev.driverWantsInterrupt());
    drv.setNoInterrupt(true);
    EXPECT_FALSE(dev.driverWantsInterrupt());
    drv.setNoInterrupt(false);
    EXPECT_TRUE(dev.driverWantsInterrupt());
}

TEST(WalkDescChainTest, ReportsPathAndIndirectInfo)
{
    GuestMemory mem("m", 64 * KiB);
    VringLayout l = VringLayout::contiguous(8, 0);
    VirtQueueDriver drv(mem, l, true, 0x8000);
    drv.submit({{0x100, 10, false}, {0x200, 20, false}},
               {{0x300, 30, true}}, 1);
    // Indirect: head descriptor points at a 3-entry table.
    ChainWalk w = walkDescChain(mem, l, 0);
    ASSERT_TRUE(w.ok);
    EXPECT_TRUE(w.indirect);
    EXPECT_EQ(w.path.size(), 1u);
    ASSERT_EQ(w.chain.segs.size(), 3u);
    EXPECT_EQ(w.chain.segs[2].len, 30u);
    EXPECT_TRUE(w.chain.segs[2].deviceWrites);
}

// --- virtio-pci transport ---

class TestVirtioDevice : public VirtioPciDevice
{
  public:
    using VirtioPciDevice::VirtioPciDevice;
    unsigned notifies = 0;
    unsigned lastQueue = 0;
    bool ready = false;

  protected:
    void
    onQueueNotify(unsigned q) override
    {
        ++notifies;
        lastQueue = q;
    }
    void onDriverOk() override { ready = true; }
};

class VirtioPciTest : public ::testing::Test
{
  protected:
    VirtioPciTest()
        : bus(sim, "bus", nsToTicks(100)),
          dev(sim, "dev", DeviceType::Net, 2,
              std::uint64_t(VIRTIO_NET_F_MAC) |
                  VIRTIO_RING_F_INDIRECT_DESC)
    {
        bus.attach(dev, 3);
        // Program BAR0 and enable memory decoding.
        bus.configWrite(3, pci::REG_BAR0, 0xe0000000u, 4);
        bus.configWrite(3, pci::REG_COMMAND,
                        pci::CMD_MEM_SPACE | pci::CMD_BUS_MASTER, 2);
    }

    std::uint32_t
    rd(Addr off, unsigned size)
    {
        return bus.memRead(0xe0000000u + off, size);
    }
    void
    wr(Addr off, std::uint32_t v, unsigned size)
    {
        bus.memWrite(0xe0000000u + off, v, size);
    }

    Simulation sim;
    pci::PciBus bus;
    TestVirtioDevice dev;
};

TEST_F(VirtioPciTest, IdsAndBarProbing)
{
    EXPECT_EQ(bus.configRead(3, pci::REG_VENDOR_ID, 2), 0x1af4u);
    EXPECT_EQ(bus.configRead(3, pci::REG_DEVICE_ID, 2), 0x1041u);
    // Probing an absent slot returns all-ones.
    EXPECT_EQ(bus.configRead(9, pci::REG_VENDOR_ID, 2), 0xffffu);
    // Capability list present.
    EXPECT_NE(bus.configRead(3, pci::REG_CAP_PTR, 1), 0u);
}

TEST_F(VirtioPciTest, FeatureNegotiationMasksOffer)
{
    wr(COMMON_DFSELECT, 0, 4);
    std::uint64_t offered = rd(COMMON_DF, 4);
    wr(COMMON_DFSELECT, 1, 4);
    offered |= std::uint64_t(rd(COMMON_DF, 4)) << 32;
    EXPECT_TRUE(offered & VIRTIO_F_VERSION_1);
    EXPECT_TRUE(offered & VIRTIO_NET_F_MAC);

    // Ask for something not offered: it must be masked away.
    wr(COMMON_GFSELECT, 0, 4);
    wr(COMMON_GF, 0xffffffffu, 4);
    wr(COMMON_GFSELECT, 1, 4);
    wr(COMMON_GF, 0xffffffffu, 4);
    EXPECT_EQ(dev.negotiatedFeatures(), offered);
}

TEST_F(VirtioPciTest, QueueProgrammingAndNotify)
{
    EXPECT_EQ(rd(COMMON_NUMQ, 2), 2u);
    wr(COMMON_Q_SELECT, 1, 2);
    wr(COMMON_Q_SIZE, 64, 2);
    wr(COMMON_Q_DESCLO, 0x10000, 4);
    wr(COMMON_Q_AVAILLO, 0x10400, 4);
    wr(COMMON_Q_USEDLO, 0x10500, 4);
    wr(COMMON_Q_ENABLE, 1, 2);
    const QueueState &qs = dev.queueState(1);
    EXPECT_TRUE(qs.enabled);
    EXPECT_EQ(qs.size, 64u);
    EXPECT_EQ(qs.descAddr, 0x10000u);

    wr(COMMON_STATUS,
       STATUS_ACKNOWLEDGE | STATUS_DRIVER | STATUS_DRIVER_OK, 1);
    EXPECT_TRUE(dev.ready);

    wr(notifyRegionOffset, 1, 4);
    EXPECT_EQ(dev.notifies, 1u);
    EXPECT_EQ(dev.lastQueue, 1u);
    // Notify on a disabled queue is ignored.
    wr(notifyRegionOffset, 0, 4);
    EXPECT_EQ(dev.notifies, 1u);
}

TEST_F(VirtioPciTest, InvalidQueueSizeRejected)
{
    wr(COMMON_Q_SELECT, 0, 2);
    std::uint32_t max = rd(COMMON_Q_SIZE, 2);
    wr(COMMON_Q_SIZE, 48, 2); // not a power of two
    EXPECT_EQ(rd(COMMON_Q_SIZE, 2), max);
    wr(COMMON_Q_SIZE, 4096, 2); // above max
    EXPECT_EQ(rd(COMMON_Q_SIZE, 2), max);
}

TEST_F(VirtioPciTest, ResetClearsState)
{
    wr(COMMON_Q_SELECT, 0, 2);
    wr(COMMON_Q_ENABLE, 1, 2);
    wr(COMMON_GFSELECT, 0, 4);
    wr(COMMON_GF, 0xff, 4);
    wr(COMMON_STATUS, 0, 1); // reset
    EXPECT_EQ(dev.status(), 0u);
    EXPECT_EQ(dev.negotiatedFeatures(), 0u);
    EXPECT_FALSE(dev.queueState(0).enabled);
}

TEST_F(VirtioPciTest, IsrReadToAck)
{
    wr(COMMON_Q_SELECT, 0, 2);
    wr(COMMON_Q_ENABLE, 1, 2);
    dev.notifyGuest(0);
    EXPECT_EQ(rd(isrOffset, 1), 1u);
    EXPECT_EQ(rd(isrOffset, 1), 0u); // cleared by the read
    sim.run(); // drain the pending MSI event
}

TEST(VirtioWireTest, NetHdrRoundTrip)
{
    GuestMemory m("m", 64);
    VirtioNetHdr h;
    h.flags = 1;
    h.gsoType = 2;
    h.hdrLen = 34;
    h.numBuffers = 3;
    h.writeTo(m, 4);
    VirtioNetHdr r = VirtioNetHdr::readFrom(m, 4);
    EXPECT_EQ(r.flags, 1u);
    EXPECT_EQ(r.gsoType, 2u);
    EXPECT_EQ(r.hdrLen, 34u);
    EXPECT_EQ(r.numBuffers, 3u);
    EXPECT_EQ(VirtioNetHdr::wireSize, 12u);
}

TEST(VirtioWireTest, BlkReqHdrRoundTrip)
{
    GuestMemory m("m", 64);
    VirtioBlkReqHdr h;
    h.type = VIRTIO_BLK_T_OUT;
    h.sector = 0x123456789aull;
    h.writeTo(m, 0);
    auto r = VirtioBlkReqHdr::readFrom(m, 0);
    EXPECT_EQ(r.type, VIRTIO_BLK_T_OUT);
    EXPECT_EQ(r.sector, 0x123456789aull);
    EXPECT_EQ(VirtioBlkReqHdr::wireSize, 16u);
}

} // namespace
} // namespace virtio
} // namespace bmhive
