#include "virtio/virtio_pci.hh"

#include <algorithm>
#include <utility>

#include "base/logging.hh"

namespace bmhive {
namespace virtio {

VirtioPciDevice::VirtioPciDevice(Simulation &sim, std::string name,
                                 DeviceType type, unsigned num_queues,
                                 std::uint64_t features)
    : pci::PciDevice(sim, std::move(name)), type_(type),
      deviceFeatures_(features | VIRTIO_F_VERSION_1),
      queues_(num_queues)
{
    panic_if(num_queues == 0, "virtio device needs >= 1 queue");
    // Class code 0x0780: "simple communication controller, other".
    config().setIds(virtioVendorId, virtioDeviceId(type),
                    virtioVendorId, std::uint16_t(type), 0x078000, 1);
    // BAR0 covers common cfg + notify + ISR + device cfg.
    config().addMemBar(0, 0x4000);
    // A vendor capability marks the modern layout; an MSI cap
    // carries the vector count. Contents are informational in the
    // model but the list structure is real (probe-able).
    config().addCapability(pci::CAP_ID_VENDOR, 16);
    config().addCapability(pci::CAP_ID_MSI, 12);
    config().setViolationHandler([this]() {
        reportGuestFault(fault::GuestFaultKind::BadConfigAccess);
    });
}

QueueState &
VirtioPciDevice::queueState(unsigned q)
{
    panic_if(q >= queues_.size(), name(), ": bad queue index ", q);
    return queues_[q];
}

const QueueState &
VirtioPciDevice::queueState(unsigned q) const
{
    panic_if(q >= queues_.size(), name(), ": bad queue index ", q);
    return queues_[q];
}

void
VirtioPciDevice::notifyGuest(unsigned q)
{
    isr_ |= 1;
    raiseMsi(queueState(q).msixVector);
}

void
VirtioPciDevice::markNeedsReset()
{
    if (status_ & STATUS_NEEDS_RESET)
        return; // already pending; the driver will get there
    status_ |= STATUS_NEEDS_RESET;
    if (!driverOk())
        return; // no driver to interrupt yet
    // Kick every enabled queue's vector (deduplicated) so the
    // driver observes the condition from any interrupt handler.
    isr_ |= 1;
    std::vector<std::uint16_t> raised;
    for (const auto &q : queues_) {
        if (!q.enabled)
            continue;
        if (std::find(raised.begin(), raised.end(),
                      q.msixVector) != raised.end())
            continue;
        raised.push_back(q.msixVector);
        raiseMsi(q.msixVector);
    }
}

std::uint32_t
VirtioPciDevice::barRead(int bar, Addr offset, unsigned size)
{
    if (bar != 0)
        return 0xffffffffu;
    if (offset < notifyRegionOffset)
        return commonRead(offset, size);
    if (offset >= isrOffset && offset < deviceCfgOffset) {
        std::uint8_t v = isr_;
        isr_ = 0; // read-to-ack
        return v;
    }
    if (offset >= deviceCfgOffset)
        return deviceCfgRead(offset - deviceCfgOffset, size);
    return 0; // notify region reads as zero
}

void
VirtioPciDevice::barWrite(int bar, Addr offset, std::uint32_t value,
                          unsigned size)
{
    if (bar != 0)
        return;
    if (offset < notifyRegionOffset) {
        commonWrite(offset, value, size);
        return;
    }
    if (offset >= notifyRegionOffset && offset < isrOffset) {
        unsigned q = value;
        if (q >= queues_.size()) {
            reportGuestFault(fault::GuestFaultKind::BadQueueIndex);
            return;
        }
        if (queues_[q].enabled)
            onQueueNotify(q);
        return;
    }
    if (offset >= deviceCfgOffset)
        deviceCfgWrite(offset - deviceCfgOffset, value, size);
}

std::uint32_t
VirtioPciDevice::commonRead(Addr offset, unsigned size)
{
    // queueSelect_ is guest-controlled and may point past the last
    // queue. Per the spec the device then reports Q_SIZE = 0
    // ("queue unavailable"); probing is legitimate, so reads of the
    // per-queue registers return zero rather than fault.
    QueueState *qs = queueSelect_ < queues_.size()
                         ? &queues_[queueSelect_]
                         : nullptr;
    switch (offset) {
      case COMMON_DFSELECT:
        return dfSelect_;
      case COMMON_DF:
        return std::uint32_t(deviceFeatures_ >> (32 * dfSelect_));
      case COMMON_GFSELECT:
        return gfSelect_;
      case COMMON_GF:
        return std::uint32_t(guestFeatures_ >> (32 * gfSelect_));
      case COMMON_NUMQ:
        return std::uint32_t(queues_.size());
      case COMMON_STATUS:
        return status_;
      case COMMON_CFGGEN:
        return 0;
      case COMMON_Q_SELECT:
        return queueSelect_;
      case COMMON_Q_SIZE:
        return qs ? qs->size : 0;
      case COMMON_Q_MSIX:
        return qs ? qs->msixVector : 0;
      case COMMON_Q_ENABLE:
        return (qs && qs->enabled) ? 1 : 0;
      case COMMON_Q_NOFF:
        return queueSelect_;
      case COMMON_Q_DESCLO:
        return qs ? std::uint32_t(qs->descAddr) : 0;
      case COMMON_Q_DESCHI:
        return qs ? std::uint32_t(qs->descAddr >> 32) : 0;
      case COMMON_Q_AVAILLO:
        return qs ? std::uint32_t(qs->availAddr) : 0;
      case COMMON_Q_AVAILHI:
        return qs ? std::uint32_t(qs->availAddr >> 32) : 0;
      case COMMON_Q_USEDLO:
        return qs ? std::uint32_t(qs->usedAddr) : 0;
      case COMMON_Q_USEDHI:
        return qs ? std::uint32_t(qs->usedAddr >> 32) : 0;
      default:
        (void)size;
        return 0;
    }
}

void
VirtioPciDevice::commonWrite(Addr offset, std::uint32_t value,
                             unsigned size)
{
    (void)size;
    // Guest-controlled select: writes to per-queue registers with
    // an out-of-range selector are a contained guest fault (reads
    // are probing and stay silent, see commonRead).
    QueueState *qs = queueSelect_ < queues_.size()
                         ? &queues_[queueSelect_]
                         : nullptr;
    auto select_ok = [this, qs]() {
        if (!qs)
            reportGuestFault(fault::GuestFaultKind::BadQueueIndex);
        return qs != nullptr;
    };
    auto set_lo = [](std::uint64_t &r, std::uint32_t v) {
        r = (r & 0xffffffff00000000ull) | v;
    };
    auto set_hi = [](std::uint64_t &r, std::uint32_t v) {
        r = (r & 0xffffffffull) | (std::uint64_t(v) << 32);
    };

    switch (offset) {
      case COMMON_DFSELECT:
        dfSelect_ = value & 1;
        break;
      case COMMON_GFSELECT:
        gfSelect_ = value & 1;
        break;
      case COMMON_GF: {
        if (status_ & STATUS_FEATURES_OK) {
            // Renegotiating after FEATURES_OK is a spec violation;
            // freeze the negotiated set and flag the driver.
            reportGuestFault(fault::GuestFaultKind::BadFeatureWrite);
            break;
        }
        std::uint64_t mask = 0xffffffffull << (32 * gfSelect_);
        std::uint64_t bits = std::uint64_t(value) << (32 * gfSelect_);
        // The driver may only accept offered features.
        guestFeatures_ =
            (guestFeatures_ & ~mask) | (bits & deviceFeatures_);
        break;
      }
      case COMMON_STATUS: {
        if (value == 0) {
            resetDevice();
            break;
        }
        std::uint8_t v = std::uint8_t(value);
        // NEEDS_RESET is device-owned: only a full reset clears it.
        v |= status_ & STATUS_NEEDS_RESET;
        if ((v & STATUS_FEATURES_OK) &&
            !(status_ & STATUS_FEATURES_OK) &&
            !(guestFeatures_ & VIRTIO_F_VERSION_1)) {
            // A modern device must reject FEATURES_OK unless
            // VERSION_1 was accepted (virtio 1.0 section 6.1); the
            // driver reads back status to discover the refusal.
            reportGuestFault(fault::GuestFaultKind::BadFeatureWrite);
            v &= std::uint8_t(~STATUS_FEATURES_OK);
        }
        status_ = v;
        if (status_ & STATUS_DRIVER_OK)
            onDriverOk();
        break;
      }
      case COMMON_Q_SELECT:
        queueSelect_ = std::uint16_t(value);
        break;
      case COMMON_Q_SIZE:
        if (!select_ok())
            break;
        if (value > 0 && value <= qs->sizeMax &&
            (value & (value - 1)) == 0)
            qs->size = std::uint16_t(value);
        break;
      case COMMON_Q_MSIX:
        if (!select_ok())
            break;
        if (value >= msiTableSize()) {
            reportGuestFault(fault::GuestFaultKind::BadMsiVector);
            break;
        }
        qs->msixVector = std::uint16_t(value);
        break;
      case COMMON_Q_ENABLE:
        if (!select_ok())
            break;
        qs->enabled = (value != 0);
        break;
      case COMMON_Q_DESCLO:
        if (select_ok())
            set_lo(qs->descAddr, value);
        break;
      case COMMON_Q_DESCHI:
        if (select_ok())
            set_hi(qs->descAddr, value);
        break;
      case COMMON_Q_AVAILLO:
        if (select_ok())
            set_lo(qs->availAddr, value);
        break;
      case COMMON_Q_AVAILHI:
        if (select_ok())
            set_hi(qs->availAddr, value);
        break;
      case COMMON_Q_USEDLO:
        if (select_ok())
            set_lo(qs->usedAddr, value);
        break;
      case COMMON_Q_USEDHI:
        if (select_ok())
            set_hi(qs->usedAddr, value);
        break;
      default:
        break;
    }
}

void
VirtioPciDevice::resetDevice()
{
    status_ = 0;
    isr_ = 0;
    guestFeatures_ = 0;
    dfSelect_ = gfSelect_ = 0;
    queueSelect_ = 0;
    for (auto &q : queues_) {
        std::uint16_t max = q.sizeMax;
        q = QueueState{};
        q.sizeMax = max;
        q.size = max;
    }
    onReset();
}

std::uint32_t
VirtioPciDevice::deviceCfgRead(Addr offset, unsigned size)
{
    std::uint32_t v = 0;
    for (unsigned i = 0; i < size; ++i) {
        Addr idx = offset + i;
        std::uint8_t b = idx < devCfg_.size() ? devCfg_[idx] : 0;
        v |= std::uint32_t(b) << (8 * i);
    }
    return v;
}

void
VirtioPciDevice::setDeviceCfg16(Addr offset, std::uint16_t v)
{
    if (devCfg_.size() < offset + 2)
        return;
    devCfg_[offset] = std::uint8_t(v);
    devCfg_[offset + 1] = std::uint8_t(v >> 8);
}

void
VirtioPciDevice::deviceCfgWrite(Addr offset, std::uint32_t value,
                                unsigned size)
{
    (void)offset;
    (void)value;
    (void)size;
}

} // namespace virtio
} // namespace bmhive
