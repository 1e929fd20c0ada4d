#include "pci/pci_device.hh"

#include <utility>

#include "base/logging.hh"

namespace bmhive {
namespace pci {

PciDevice::PciDevice(Simulation &sim, std::string name)
    : SimObject(sim, std::move(name))
{
}

void
PciDevice::attached(PciBus &bus, int slot)
{
    bus_ = &bus;
    slot_ = slot;
}

void
PciDevice::raiseMsi(unsigned vec)
{
    panic_if(bus_ == nullptr,
             name(), ": raising MSI while detached");
    bus_->deliverMsi(slot_, vec);
}

PciBus::PciBus(Simulation &sim, std::string name, Tick access_latency,
               Tick msi_latency)
    : SimObject(sim, std::move(name)), accessLatency_(access_latency),
      msiLatency_(msi_latency)
{
}

void
PciBus::attach(PciDevice &dev, int slot)
{
    panic_if(slot < 0 || slot > 31, "invalid PCI slot: ", slot);
    panic_if(devices_.count(slot),
             name(), ": slot ", slot, " already occupied");
    devices_[slot] = &dev;
    dev.attached(*this, slot);
}

PciDevice *
PciBus::deviceAt(int slot) const
{
    auto it = devices_.find(slot);
    return it == devices_.end() ? nullptr : it->second;
}

std::uint32_t
PciBus::configRead(int slot, std::uint16_t offset, unsigned size)
{
    accesses_.inc();
    PciDevice *dev = deviceAt(slot);
    if (dev == nullptr)
        return size == 4 ? 0xffffffffu
                         : (size == 2 ? 0xffffu : 0xffu);
    return dev->config().read(offset, size);
}

void
PciBus::configWrite(int slot, std::uint16_t offset, std::uint32_t value,
                    unsigned size)
{
    accesses_.inc();
    PciDevice *dev = deviceAt(slot);
    if (dev != nullptr)
        dev->config().write(offset, value, size);
}

PciDevice *
PciBus::decode(Addr addr, int &bar, Addr &offset)
{
    for (auto &[slot, dev] : devices_) {
        if (!dev->config().memEnabled())
            continue;
        for (int b = 0; b < 6; ++b) {
            Bytes sz = dev->config().barSize(b);
            if (sz == 0)
                continue;
            Addr base = dev->config().barBase(b);
            if (base == 0)
                continue;
            if (addr >= base && addr < base + sz) {
                bar = b;
                offset = addr - base;
                return dev;
            }
        }
    }
    return nullptr;
}

std::uint32_t
PciBus::memRead(Addr addr, unsigned size)
{
    accesses_.inc();
    int bar;
    Addr offset;
    PciDevice *dev = decode(addr, bar, offset);
    if (dev == nullptr)
        return size == 4 ? 0xffffffffu
                         : (size == 2 ? 0xffffu : 0xffu);
    return dev->barRead(bar, offset, size);
}

void
PciBus::memWrite(Addr addr, std::uint32_t value, unsigned size)
{
    accesses_.inc();
    int bar;
    Addr offset;
    PciDevice *dev = decode(addr, bar, offset);
    if (dev != nullptr)
        dev->barWrite(bar, offset, value, size);
}

void
PciBus::deliverMsi(int slot, unsigned vec)
{
    msis_.inc();
    if (!msiHandler_)
        return;
    // Deliver after the interrupt latency via a one-shot event.
    scheduleIn(new OneShotEvent(
                   [this, slot, vec] {
                       if (msiHandler_)
                           msiHandler_(slot, vec);
                   },
                   "pci.msi"),
               msiLatency_);
}

} // namespace pci
} // namespace bmhive
