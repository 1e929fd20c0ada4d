#include "workloads/adversarial.hh"

#include <utility>

#include "pci/config_space.hh"
#include "virtio/virtio_pci.hh"
#include "virtio/vring.hh"

namespace bmhive {
namespace workloads {

using namespace virtio;

namespace {

/** The standard bm-guest function slots (see BmHiveServer). */
constexpr int netSlot = 3;
constexpr int consoleSlot = 5;

} // namespace

AdversarialGuest::AdversarialGuest(Simulation &sim, std::string name,
                                   hw::ComputeBoard &board,
                                   AdversarialGuestParams params)
    : SimObject(sim, std::move(name)), board_(board),
      params_(params), rng_(params.seed),
      attacks_(metrics().counter(this->name() + ".attacks"))
{
}

void
AdversarialGuest::start()
{
    stopped_ = false;
    scheduleIn(new OneShotEvent([this] { step(); }, "adversary.step"),
               params_.period);
}

Addr
AdversarialGuest::bar0(int slot)
{
    auto &bus = board_.pciBus();
    if (bus.configRead(slot, pci::REG_VENDOR_ID, 2) == 0xffff)
        return 0;
    return bus.configRead(slot, pci::REG_BAR0, 4) &
           ~std::uint32_t(0xf);
}

AdversarialGuest::RingInfo
AdversarialGuest::ringInfo(Addr bar, unsigned q)
{
    auto &bus = board_.pciBus();
    bus.memWrite(bar + COMMON_Q_SELECT, q, 2);
    RingInfo ri;
    ri.size = std::uint16_t(bus.memRead(bar + COMMON_Q_SIZE, 2));
    bool enabled = bus.memRead(bar + COMMON_Q_ENABLE, 2) != 0;
    ri.desc = Addr(bus.memRead(bar + COMMON_Q_DESCLO, 4)) |
              Addr(bus.memRead(bar + COMMON_Q_DESCHI, 4)) << 32;
    ri.avail = Addr(bus.memRead(bar + COMMON_Q_AVAILLO, 4)) |
               Addr(bus.memRead(bar + COMMON_Q_AVAILHI, 4)) << 32;
    // The attacker must not crash its own simulation: only
    // scribble rings that really live in this board's memory.
    Bytes msize = board_.memory().size();
    ri.ok = enabled && ri.size > 0 &&
            ri.desc + Bytes(ri.size) * vringDescSize <= msize &&
            ri.avail + 6 + 2 * Bytes(ri.size) <= msize;
    return ri;
}

void
AdversarialGuest::scribbleDesc(const RingInfo &ri, std::uint16_t i,
                               std::uint64_t addr,
                               std::uint32_t len,
                               std::uint16_t flags,
                               std::uint16_t next)
{
    GuestMemory &m = board_.memory();
    Addr a = ri.desc + Addr(i % ri.size) * vringDescSize;
    m.write64(a, addr);
    m.write32(a + 8, len);
    m.write16(a + 12, flags);
    m.write16(a + 14, next);
}

void
AdversarialGuest::publish(Addr bar, const RingInfo &ri, unsigned q,
                          std::uint16_t head)
{
    GuestMemory &m = board_.memory();
    std::uint16_t idx = m.read16(ri.avail + 2);
    m.write16(ri.avail + 4 + 2 * Addr(idx % ri.size), head);
    m.write16(ri.avail + 2, std::uint16_t(idx + 1));
    board_.pciBus().memWrite(bar + notifyRegionOffset, q, 4);
}

void
AdversarialGuest::attack(unsigned kind)
{
    auto &bus = board_.pciBus();
    Addr bar = bar0(netSlot);
    if (bar == 0)
        return;
    unsigned q = unsigned(rng_.uniformInt(0, 1));
    attacks_.inc();

    switch (kind % attackKinds) {
      case 0: {
        // Doorbell with an out-of-range queue index.
        unsigned bogus = unsigned(rng_.uniformInt(8, 0xffff));
        bus.memWrite(bar + notifyRegionOffset, bogus, 4);
        break;
      }
      case 1: {
        // Doorbell storm: hammer a valid doorbell far beyond any
        // honest batching.
        for (int i = 0; i < 64; ++i)
            bus.memWrite(bar + notifyRegionOffset, q, 4);
        break;
      }
      case 2: {
        // Avail-index jump wider than the ring.
        RingInfo ri = ringInfo(bar, q);
        if (!ri.ok)
            break;
        GuestMemory &m = board_.memory();
        std::uint16_t idx = m.read16(ri.avail + 2);
        m.write16(ri.avail + 2,
                  std::uint16_t(idx + 2 * ri.size + 3));
        bus.memWrite(bar + notifyRegionOffset, q, 4);
        break;
      }
      case 3: {
        // Publish a head index past the descriptor table.
        RingInfo ri = ringInfo(bar, q);
        if (!ri.ok)
            break;
        publish(bar, ri, q,
                std::uint16_t(rng_.uniformInt(ri.size, 0xfffe)));
        break;
      }
      case 4: {
        // Descriptor pointing outside guest memory.
        RingInfo ri = ringInfo(bar, q);
        if (!ri.ok)
            break;
        auto i = std::uint16_t(rng_.uniformInt(0, ri.size - 1));
        scribbleDesc(ri, i, board_.memory().size() + 0x10000, 512,
                     0, 0);
        publish(bar, ri, q, i);
        break;
      }
      case 5: {
        // Zero-length descriptor.
        RingInfo ri = ringInfo(bar, q);
        if (!ri.ok)
            break;
        auto i = std::uint16_t(rng_.uniformInt(0, ri.size - 1));
        scribbleDesc(ri, i, 0x1000, 0, 0, 0);
        publish(bar, ri, q, i);
        break;
      }
      case 6: {
        // Self-referencing descriptor chain.
        RingInfo ri = ringInfo(bar, q);
        if (!ri.ok)
            break;
        auto i = std::uint16_t(rng_.uniformInt(0, ri.size - 1));
        scribbleDesc(ri, i, 0x1000, 64, VRING_DESC_F_NEXT, i);
        publish(bar, ri, q, i);
        break;
      }
      case 7: {
        // Device-writable segment before a device-readable one.
        RingInfo ri = ringInfo(bar, q);
        if (!ri.ok || ri.size < 2)
            break;
        auto i = std::uint16_t(rng_.uniformInt(0, ri.size - 2));
        auto j = std::uint16_t(i + 1);
        scribbleDesc(ri, i, 0x1000, 64,
                     VRING_DESC_F_WRITE | VRING_DESC_F_NEXT, j);
        scribbleDesc(ri, j, 0x2000, 64, 0, 0);
        publish(bar, ri, q, i);
        break;
      }
      case 8: {
        // INDIRECT combined with NEXT (forbidden by the spec).
        RingInfo ri = ringInfo(bar, q);
        if (!ri.ok)
            break;
        auto i = std::uint16_t(rng_.uniformInt(0, ri.size - 1));
        scribbleDesc(ri, i, 0x1000, 16 * 8,
                     VRING_DESC_F_INDIRECT | VRING_DESC_F_NEXT, 0);
        publish(bar, ri, q, i);
        break;
      }
      case 9: {
        // Arithmetically valid but absurdly large buffer.
        RingInfo ri = ringInfo(bar, q);
        if (!ri.ok)
            break;
        auto i = std::uint16_t(rng_.uniformInt(0, ri.size - 1));
        Bytes msize = board_.memory().size();
        std::uint32_t len = std::uint32_t(
            std::min<Bytes>(msize, 8 * MiB));
        scribbleDesc(ri, i, 0, len, 0, 0);
        publish(bar, ri, q, i);
        break;
      }
      case 10: {
        // MSI vector past the table.
        bus.memWrite(bar + COMMON_Q_SELECT, q, 2);
        bus.memWrite(bar + COMMON_Q_MSIX,
                     unsigned(rng_.uniformInt(8, 0xffff)), 2);
        break;
      }
      case 11: {
        // Per-queue register write behind a bad queue selector.
        bus.memWrite(bar + COMMON_Q_SELECT,
                     unsigned(rng_.uniformInt(4, 0xff)), 2);
        bus.memWrite(bar + COMMON_Q_SIZE, 64, 2);
        bus.memWrite(bar + COMMON_Q_SELECT, q, 2);
        break;
      }
      case 12: {
        // Feature renegotiation after FEATURES_OK.
        std::uint32_t st = bus.memRead(bar + COMMON_STATUS, 1);
        if (st & STATUS_FEATURES_OK) {
            bus.memWrite(bar + COMMON_GFSELECT, 0, 4);
            bus.memWrite(bar + COMMON_GF,
                         std::uint32_t(rng_.uniformInt(0, 0xffff)),
                         4);
        }
        break;
      }
      case 13: {
        // Config-space accesses off the end / with a bad size.
        bus.configRead(netSlot, 0xfe, 4);
        bus.configWrite(netSlot, 0xff, 0xff, 4);
        bus.configRead(netSlot, 0x10, 3);
        break;
      }
      case 14: {
        // Renegotiate the console function onto rings far outside
        // guest memory (sacrifices the attacker's own console).
        Addr cbar = bar0(consoleSlot);
        if (cbar == 0)
            break;
        bus.memWrite(cbar + COMMON_STATUS, 0, 1);
        bus.memWrite(cbar + COMMON_STATUS,
                     STATUS_ACKNOWLEDGE | STATUS_DRIVER, 1);
        bus.memWrite(cbar + COMMON_GFSELECT, 1, 4);
        bus.memWrite(cbar + COMMON_GF,
                     std::uint32_t(VIRTIO_F_VERSION_1 >> 32), 4);
        bus.memWrite(cbar + COMMON_STATUS,
                     STATUS_ACKNOWLEDGE | STATUS_DRIVER |
                         STATUS_FEATURES_OK,
                     1);
        bus.memWrite(cbar + COMMON_Q_SELECT, 0, 2);
        bus.memWrite(cbar + COMMON_Q_SIZE, 64, 2);
        bus.memWrite(cbar + COMMON_Q_DESCLO, 0xffff0000u, 4);
        bus.memWrite(cbar + COMMON_Q_DESCHI, 0xffu, 4);
        bus.memWrite(cbar + COMMON_Q_AVAILLO, 0x1000, 4);
        bus.memWrite(cbar + COMMON_Q_USEDLO, 0x2000, 4);
        bus.memWrite(cbar + COMMON_Q_ENABLE, 1, 2);
        bus.memWrite(cbar + COMMON_STATUS,
                     STATUS_ACKNOWLEDGE | STATUS_DRIVER |
                         STATUS_FEATURES_OK | STATUS_DRIVER_OK,
                     1);
        break;
      }
      default:
        break;
    }
}

void
AdversarialGuest::step()
{
    if (stopped_)
        return;
    attack(unsigned(rng_.uniformInt(0, attackKinds - 1)));
    ++steps_;
    if (params_.iterations > 0 && steps_ >= params_.iterations) {
        stopped_ = true;
        return;
    }
    scheduleIn(new OneShotEvent([this] { step(); }, "adversary.step"),
               params_.period);
}

} // namespace workloads
} // namespace bmhive
