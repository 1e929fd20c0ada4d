/**
 * @file
 * Virtio-over-PCI transport (virtio 1.0 "modern" interface).
 *
 * VirtioPciDevice is a PciDevice exposing the standard virtio
 * common configuration structure in BAR0, the notify region and ISR
 * in BAR0 at fixed offsets, and device-specific config after them.
 * The guest driver programs queue addresses here; subclasses (the
 * IO-Bond front-end function, the KVM-baseline virtio device)
 * receive onQueueNotify()/onDriverOk() hooks.
 *
 * Register layout inside BAR0:
 *   0x0000  common config (virtio 1.0 section 4.1.4.3 layout)
 *   0x1000  queue notify (one 4-byte doorbell, value = queue index)
 *   0x2000  ISR status (read to ack)
 *   0x3000  device-specific config
 */

#ifndef BMHIVE_VIRTIO_VIRTIO_PCI_HH
#define BMHIVE_VIRTIO_VIRTIO_PCI_HH

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "fault/guest_fault.hh"
#include "pci/pci_device.hh"
#include "virtio/vring.hh"

namespace bmhive {
namespace virtio {

/** Virtio device types (virtio 1.0 section 5). */
enum class DeviceType : std::uint16_t {
    Net = 1,
    Block = 2,
    Console = 3,
};

/** Device status bits (virtio 1.0 section 2.1). */
enum StatusBits : std::uint8_t {
    STATUS_ACKNOWLEDGE = 1,
    STATUS_DRIVER = 2,
    STATUS_DRIVER_OK = 4,
    STATUS_FEATURES_OK = 8,
    STATUS_NEEDS_RESET = 64,
    STATUS_FAILED = 128,
};

/** Feature bits used by the model. */
enum FeatureBits : std::uint64_t {
    VIRTIO_RING_F_INDIRECT_DESC = 1ull << 28,
    VIRTIO_RING_F_EVENT_IDX = 1ull << 29,
    VIRTIO_F_VERSION_1 = 1ull << 32,
};

/** Common-config register offsets within BAR0. */
enum CommonCfg : Addr {
    COMMON_DFSELECT = 0x00,
    COMMON_DF = 0x04,
    COMMON_GFSELECT = 0x08,
    COMMON_GF = 0x0c,
    COMMON_MSIX_CONFIG = 0x10,
    COMMON_NUMQ = 0x12,
    COMMON_STATUS = 0x14,
    COMMON_CFGGEN = 0x15,
    COMMON_Q_SELECT = 0x16,
    COMMON_Q_SIZE = 0x18,
    COMMON_Q_MSIX = 0x1a,
    COMMON_Q_ENABLE = 0x1c,
    COMMON_Q_NOFF = 0x1e,
    COMMON_Q_DESCLO = 0x20,
    COMMON_Q_DESCHI = 0x24,
    COMMON_Q_AVAILLO = 0x28,
    COMMON_Q_AVAILHI = 0x2c,
    COMMON_Q_USEDLO = 0x30,
    COMMON_Q_USEDHI = 0x34,
};

constexpr Addr notifyRegionOffset = 0x1000;
constexpr Addr isrOffset = 0x2000;
constexpr Addr deviceCfgOffset = 0x3000;

/** PCI vendor/device IDs: the virtio 1.0 "modern" ID space. */
constexpr std::uint16_t virtioVendorId = 0x1af4;
constexpr std::uint16_t
virtioDeviceId(DeviceType t)
{
    return std::uint16_t(0x1040 + std::uint16_t(t));
}

/** Per-queue transport state programmed by the driver. */
struct QueueState
{
    std::uint16_t sizeMax = 256; ///< device-advertised maximum
    std::uint16_t size = 256;    ///< driver-selected size
    bool enabled = false;
    std::uint16_t msixVector = 0;
    std::uint64_t descAddr = 0;
    std::uint64_t availAddr = 0;
    std::uint64_t usedAddr = 0;

    /** Ring layout from the programmed addresses. */
    VringLayout
    layout() const
    {
        return VringLayout(size, descAddr, availAddr, usedAddr);
    }
};

/**
 * Base class for virtio PCI functions.
 */
class VirtioPciDevice : public pci::PciDevice
{
  public:
    /**
     * @param type        virtio device type (net, block, ...)
     * @param num_queues  virtqueue count (e.g. 2 for net: rx+tx)
     * @param features    device-offered feature bits
     */
    VirtioPciDevice(Simulation &sim, std::string name, DeviceType type,
                    unsigned num_queues, std::uint64_t features);

    std::uint32_t barRead(int bar, Addr offset, unsigned size) override;
    void barWrite(int bar, Addr offset, std::uint32_t value,
                  unsigned size) override;

    DeviceType deviceType() const { return type_; }
    std::uint8_t status() const { return status_; }
    bool driverOk() const { return status_ & STATUS_DRIVER_OK; }
    std::uint64_t negotiatedFeatures() const { return guestFeatures_; }
    bool
    featureNegotiated(std::uint64_t f) const
    {
        return (guestFeatures_ & f) == f;
    }

    /** Device-specific config contents (MAC, capacity, ...); the
     *  driver reads them byte by byte, zero past the end. */
    void setDeviceCfgBytes(std::vector<std::uint8_t> bytes)
    {
        devCfg_ = std::move(bytes);
    }

    unsigned numQueues() const { return unsigned(queues_.size()); }
    QueueState &queueState(unsigned q);
    const QueueState &queueState(unsigned q) const;

    /**
     * MSI vector table size: one vector per queue plus the config
     * vector. Guest writes of Q_MSIX beyond this are contained as
     * BadMsiVector guest faults.
     */
    unsigned msiTableSize() const { return unsigned(queues_.size()) + 1; }

    /**
     * Observe contained guest faults on this function's register
     * interface (malformed doorbells, config accesses, feature
     * writes...). The transport never panics on them; the owner —
     * IO-Bond in the bridged topology — accounts and escalates.
     */
    using GuestFaultHandler = std::function<void(fault::GuestFaultKind)>;
    void
    setGuestFaultHandler(GuestFaultHandler h)
    {
        guestFaultHandler_ = std::move(h);
    }

    /** Raise the configured MSI vector for queue @p q. */
    void notifyGuest(unsigned q);

    /**
     * Device-fatal error (virtio 1.0 section 2.1.2): set
     * DEVICE_NEEDS_RESET and interrupt the driver so it notices.
     * The driver's only way out is a full reset + reinit.
     */
    void markNeedsReset();

  protected:
    /** Driver wrote the doorbell for queue @p q. */
    virtual void onQueueNotify(unsigned q) = 0;
    /** Driver completed initialization (DRIVER_OK written). */
    virtual void onDriverOk() {}
    /** Device reset requested (status written to 0). */
    virtual void onReset() {}

    /** Device-specific config space writes (offset-relative);
     *  the default ignores them (the config is read-only). */
    virtual void deviceCfgWrite(Addr offset, std::uint32_t value,
                                unsigned size);
    /** Store @p v little-endian at config offset @p offset, if the
     *  config is that long. */
    void setDeviceCfg16(Addr offset, std::uint16_t v);

    /** Record a contained guest fault (forwards to the handler). */
    void
    reportGuestFault(fault::GuestFaultKind k)
    {
        if (guestFaultHandler_)
            guestFaultHandler_(k);
    }

  private:
    std::uint32_t commonRead(Addr offset, unsigned size);
    std::uint32_t deviceCfgRead(Addr offset, unsigned size);
    void commonWrite(Addr offset, std::uint32_t value, unsigned size);
    void resetDevice();

    DeviceType type_;
    std::uint64_t deviceFeatures_;
    std::uint64_t guestFeatures_ = 0;
    std::uint32_t dfSelect_ = 0;
    std::uint32_t gfSelect_ = 0;
    std::uint8_t status_ = 0;
    std::uint8_t isr_ = 0;
    std::uint16_t queueSelect_ = 0;
    std::vector<QueueState> queues_;
    std::vector<std::uint8_t> devCfg_;
    GuestFaultHandler guestFaultHandler_;
};

} // namespace virtio
} // namespace bmhive

#endif // BMHIVE_VIRTIO_VIRTIO_PCI_HH
