/**
 * @file
 * PciDevice and PciBus.
 *
 * The bus models a point of attachment with a fixed per-access
 * latency and a link bandwidth. Register (config/MMIO) accesses are
 * functionally immediate; callers that model timing read the bus's
 * accessLatency() and schedule continuations accordingly — this
 * keeps driver code linear while preserving the paper's 0.8 µs
 * per-PCI-access cost on IO-Bond's FPGA (section 3.4.3).
 *
 * MSI delivery is asynchronous with a small configurable latency.
 */

#ifndef BMHIVE_PCI_PCI_DEVICE_HH
#define BMHIVE_PCI_PCI_DEVICE_HH

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "base/stats.hh"
#include "base/units.hh"
#include "pci/config_space.hh"
#include "sim/sim_object.hh"

namespace bmhive {
namespace pci {

class PciBus;

/**
 * A PCI function attached to a PciBus. Subclasses implement BAR
 * (MMIO) register behaviour.
 */
class PciDevice : public SimObject
{
  public:
    PciDevice(Simulation &sim, std::string name);

    ConfigSpace &config() { return config_; }
    const ConfigSpace &config() const { return config_; }

    /** MMIO access within BAR @p bar at @p offset. */
    virtual std::uint32_t barRead(int bar, Addr offset,
                                  unsigned size) = 0;
    virtual void barWrite(int bar, Addr offset, std::uint32_t value,
                          unsigned size) = 0;

    /** Called when the device is attached to a bus. */
    virtual void attached(PciBus &bus, int slot);

    PciBus *bus() const { return bus_; }
    int slot() const { return slot_; }

    /** Raise MSI vector @p vec toward the bus's interrupt target. */
    void raiseMsi(unsigned vec);

  private:
    ConfigSpace config_;
    PciBus *bus_ = nullptr;
    int slot_ = -1;
};

/**
 * A PCI segment: a set of slots, an address map of programmed
 * BARs, per-access latency, link bandwidth, and an MSI sink.
 */
class PciBus : public SimObject
{
  public:
    /** Receives (slot, vector) for each delivered MSI. */
    using MsiHandler = std::function<void(int, unsigned)>;

    /**
     * @param access_latency  time for one config/MMIO access (one
     *                        non-posted TLP round trip)
     */
    PciBus(Simulation &sim, std::string name, Tick access_latency,
           Tick msi_latency = nsToTicks(200));

    /** Attach @p dev at @p slot (0-31). */
    void attach(PciDevice &dev, int slot);

    PciDevice *deviceAt(int slot) const;

    /** Config space access by slot. */
    std::uint32_t configRead(int slot, std::uint16_t offset,
                             unsigned size);
    void configWrite(int slot, std::uint16_t offset,
                     std::uint32_t value, unsigned size);

    /**
     * Memory-space access routed by programmed BAR ranges.
     * Unclaimed reads return all-ones like real PCI.
     */
    std::uint32_t memRead(Addr addr, unsigned size);
    void memWrite(Addr addr, std::uint32_t value, unsigned size);

    /** Cost of one register access (caller-accounted). */
    Tick accessLatency() const { return accessLatency_; }

    /** Register the MSI sink (e.g. the guest's LAPIC model). */
    void setMsiHandler(MsiHandler h) { msiHandler_ = std::move(h); }

    /** Interrupt delivery latency (injection vs hardware MSI). */
    void setMsiLatency(Tick t) { msiLatency_ = t; }
    Tick msiLatency() const { return msiLatency_; }

    /** Called by devices; delivers after msi_latency. */
    void deliverMsi(int slot, unsigned vec);

    /** Register accesses performed (for latency accounting checks). */
    std::uint64_t accessCount() const { return accesses_.value(); }
    std::uint64_t msiCount() const { return msis_.value(); }

  private:
    /** Find the device+BAR claiming @p addr, or nullptr. */
    PciDevice *decode(Addr addr, int &bar, Addr &offset);

    std::map<int, PciDevice *> devices_;
    Tick accessLatency_;
    Tick msiLatency_;
    MsiHandler msiHandler_;
    Counter accesses_;
    Counter msis_;
};

} // namespace pci
} // namespace bmhive

#endif // BMHIVE_PCI_PCI_DEVICE_HH
