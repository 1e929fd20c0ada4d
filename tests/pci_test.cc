/**
 * @file
 * Unit tests for the PCI substrate: config space semantics (BAR
 * sizing protocol, capability lists, read-only regions), bus
 * address decoding, MSI delivery timing, and latency accounting.
 */

#include <gtest/gtest.h>

#include "base/logging.hh"
#include "pci/config_space.hh"
#include "pci/pci_device.hh"
#include "sim/sim_object.hh"

namespace bmhive {
namespace pci {
namespace {

TEST(ConfigSpaceTest, IdsAndClassCode)
{
    ConfigSpace cs;
    cs.setIds(0x1af4, 0x1041, 0x1af4, 0x0001, 0x020000, 3);
    EXPECT_EQ(cs.read(REG_VENDOR_ID, 2), 0x1af4u);
    EXPECT_EQ(cs.read(REG_DEVICE_ID, 2), 0x1041u);
    EXPECT_EQ(cs.read(REG_REVISION, 1), 3u);
    // Class code 0x02 (network) in the top byte of dword 0x08.
    EXPECT_EQ(cs.read(0x0b, 1), 0x02u);
    EXPECT_EQ(cs.read(REG_SUBSYS_ID, 2), 0x0001u);
}

TEST(ConfigSpaceTest, IdsAreReadOnly)
{
    ConfigSpace cs;
    cs.setIds(0x1af4, 0x1041, 0, 0, 0, 0);
    cs.write(REG_VENDOR_ID, 0xdead, 2);
    EXPECT_EQ(cs.read(REG_VENDOR_ID, 2), 0x1af4u);
}

TEST(ConfigSpaceTest, BarSizingProtocol)
{
    ConfigSpace cs;
    cs.addMemBar(0, 0x4000);
    // Standard probe: write all ones, read back the size mask.
    cs.write(REG_BAR0, 0xffffffffu, 4);
    EXPECT_EQ(cs.read(REG_BAR0, 4), ~std::uint32_t(0x4000 - 1));
    // Program a base; low bits are masked off.
    cs.write(REG_BAR0, 0xe0001234u, 4);
    EXPECT_EQ(cs.barBase(0), 0xe0000000u);
    EXPECT_EQ(cs.barSize(0), 0x4000u);
}

TEST(ConfigSpaceTest, UnimplementedBarIsHardwiredZero)
{
    ConfigSpace cs;
    cs.write(REG_BAR2, 0xffffffffu, 4);
    EXPECT_EQ(cs.read(REG_BAR2, 4), 0u);
    EXPECT_EQ(cs.barSize(2), 0u);
}

TEST(ConfigSpaceTest, BadBarSizePanics)
{
    Logger::global().setThrowOnDeath(true);
    ConfigSpace cs;
    EXPECT_THROW(cs.addMemBar(0, 100), PanicError);  // not pow2
    EXPECT_THROW(cs.addMemBar(1, 8), PanicError);    // too small
    EXPECT_THROW(cs.addMemBar(6, 4096), PanicError); // bad index
    Logger::global().setThrowOnDeath(false);
}

TEST(ConfigSpaceTest, CapabilityListChains)
{
    ConfigSpace cs;
    EXPECT_EQ(cs.read(REG_CAP_PTR, 1), 0u);
    EXPECT_FALSE(cs.read(REG_STATUS, 2) & STATUS_CAP_LIST);

    std::uint8_t c1 = cs.addCapability(CAP_ID_VENDOR, 16);
    std::uint8_t c2 = cs.addCapability(CAP_ID_MSI, 12);

    EXPECT_TRUE(cs.read(REG_STATUS, 2) & STATUS_CAP_LIST);
    EXPECT_EQ(cs.read(REG_CAP_PTR, 1), c1);
    // Walk the list: c1 -> c2 -> end.
    EXPECT_EQ(cs.read(c1, 1), CAP_ID_VENDOR);
    EXPECT_EQ(cs.read(std::uint16_t(c1 + 1), 1), c2);
    EXPECT_EQ(cs.read(c2, 1), CAP_ID_MSI);
    EXPECT_EQ(cs.read(std::uint16_t(c2 + 1), 1), 0u);
}

TEST(ConfigSpaceTest, CommandBitsControlDecoding)
{
    ConfigSpace cs;
    cs.addMemBar(0, 0x1000);
    cs.write(REG_BAR0, 0xe0000000u, 4);
    EXPECT_FALSE(cs.memEnabled());
    EXPECT_FALSE(cs.busMasterEnabled());
    cs.write(REG_COMMAND, CMD_MEM_SPACE | CMD_BUS_MASTER, 2);
    EXPECT_TRUE(cs.memEnabled());
    EXPECT_TRUE(cs.busMasterEnabled());
}

/** Minimal device: a single BAR of registers backed by an array. */
class ScratchDevice : public PciDevice
{
  public:
    ScratchDevice(Simulation &sim, std::string name, Bytes bar_size)
        : PciDevice(sim, std::move(name)), regs_(bar_size / 4, 0)
    {
        config().setIds(0x1234, 0x5678, 0, 0, 0xff0000, 1);
        config().addMemBar(0, bar_size);
    }

    std::uint32_t
    barRead(int bar, Addr offset, unsigned size) override
    {
        (void)size;
        if (bar != 0 || offset / 4 >= regs_.size())
            return 0xffffffffu;
        return regs_[offset / 4];
    }

    void
    barWrite(int bar, Addr offset, std::uint32_t value,
             unsigned size) override
    {
        (void)size;
        if (bar == 0 && offset / 4 < regs_.size())
            regs_[offset / 4] = value;
    }

  private:
    std::vector<std::uint32_t> regs_;
};

class PciBusTest : public ::testing::Test
{
  protected:
    PciBusTest()
        : bus(sim, "bus", usToTicks(0.8)),
          devA(sim, "devA", 0x1000), devB(sim, "devB", 0x1000)
    {
        bus.attach(devA, 0);
        bus.attach(devB, 5);
        // Program non-overlapping BARs and enable decoding.
        bus.configWrite(0, REG_BAR0, 0xe0000000u, 4);
        bus.configWrite(5, REG_BAR0, 0xe0001000u, 4);
        for (int slot : {0, 5})
            bus.configWrite(slot, REG_COMMAND,
                            CMD_MEM_SPACE | CMD_BUS_MASTER, 2);
    }

    Simulation sim;
    PciBus bus;
    ScratchDevice devA, devB;
};

TEST_F(PciBusTest, DecodesByProgrammedBars)
{
    bus.memWrite(0xe0000010u, 0xaaaa, 4);
    bus.memWrite(0xe0001010u, 0xbbbb, 4);
    EXPECT_EQ(bus.memRead(0xe0000010u, 4), 0xaaaau);
    EXPECT_EQ(bus.memRead(0xe0001010u, 4), 0xbbbbu);
    // Unclaimed address reads all-ones (PCI master abort).
    EXPECT_EQ(bus.memRead(0xd0000000u, 4), 0xffffffffu);
}

TEST_F(PciBusTest, DisabledDecodingIgnoresAccess)
{
    bus.configWrite(0, REG_COMMAND, 0, 2);
    bus.memWrite(0xe0000010u, 0x1234, 4);
    EXPECT_EQ(bus.memRead(0xe0000010u, 4), 0xffffffffu);
}

TEST_F(PciBusTest, EmptySlotConfigReadsAllOnes)
{
    EXPECT_EQ(bus.configRead(9, REG_VENDOR_ID, 2), 0xffffu);
    EXPECT_EQ(bus.configRead(31, REG_BAR0, 4), 0xffffffffu);
    // Config write to an empty slot is harmless.
    bus.configWrite(9, REG_COMMAND, 0xffff, 2);
}

TEST_F(PciBusTest, DoubleAttachPanics)
{
    Logger::global().setThrowOnDeath(true);
    ScratchDevice other(sim, "other", 0x1000);
    EXPECT_THROW(bus.attach(other, 0), PanicError);
    EXPECT_THROW(bus.attach(other, 99), PanicError);
    Logger::global().setThrowOnDeath(false);
}

TEST_F(PciBusTest, MsiDeliveredAfterLatency)
{
    int got_slot = -1;
    unsigned got_vec = 0;
    Tick at = 0;
    bus.setMsiHandler([&](int slot, unsigned vec) {
        got_slot = slot;
        got_vec = vec;
        at = sim.now();
    });
    devB.raiseMsi(3);
    EXPECT_EQ(got_slot, -1); // asynchronous
    sim.run();
    EXPECT_EQ(got_slot, 5);
    EXPECT_EQ(got_vec, 3u);
    EXPECT_EQ(at, nsToTicks(200)); // default MSI latency
    EXPECT_EQ(bus.msiCount(), 1u);
}

TEST_F(PciBusTest, MsiLatencyIsConfigurable)
{
    Tick at = 0;
    bus.setMsiHandler([&](int, unsigned) { at = sim.now(); });
    bus.setMsiLatency(usToTicks(2));
    devA.raiseMsi(0);
    sim.run();
    EXPECT_EQ(at, usToTicks(2));
}

TEST_F(PciBusTest, AccessLatencyMatchesIoBondFpga)
{
    EXPECT_EQ(bus.accessLatency(), usToTicks(0.8));
    std::uint64_t before = bus.accessCount();
    bus.memRead(0xe0000000u, 4);
    bus.configRead(0, REG_VENDOR_ID, 2);
    EXPECT_EQ(bus.accessCount(), before + 2);
}

TEST(PciDeviceTest, RaiseMsiWhileDetachedPanics)
{
    Logger::global().setThrowOnDeath(true);
    Simulation sim;
    ScratchDevice dev(sim, "lonely", 0x1000);
    EXPECT_THROW(dev.raiseMsi(0), PanicError);
    Logger::global().setThrowOnDeath(false);
}

} // namespace
} // namespace pci
} // namespace bmhive
