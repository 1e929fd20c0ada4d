/**
 * @file
 * Virtio 1.0 split-ring ("vring") memory layout.
 *
 * The ring lives in simulated guest memory with the exact byte
 * layout of the virtio 1.0 specification (section 2.4): a
 * descriptor table, an available ring written by the driver, and a
 * used ring written by the device. IO-Bond's shadow vrings (paper
 * Fig. 4) are a second instance of this same layout in hypervisor
 * memory, kept in sync by DMA.
 */

#ifndef BMHIVE_VIRTIO_VRING_HH
#define BMHIVE_VIRTIO_VRING_HH

#include <cstdint>
#include <optional>

#include "base/units.hh"
#include "mem/guest_memory.hh"

namespace bmhive {
namespace virtio {

/** Descriptor flags (virtio 1.0 section 2.4.4). */
enum DescFlags : std::uint16_t {
    VRING_DESC_F_NEXT = 1,     ///< chained to the 'next' field
    VRING_DESC_F_WRITE = 2,    ///< device writes (vs reads) buffer
    VRING_DESC_F_INDIRECT = 4, ///< buffer holds an indirect table
};

/** Available-ring flags. */
enum AvailFlags : std::uint16_t {
    VRING_AVAIL_F_NO_INTERRUPT = 1,
};

/** Used-ring flags. */
enum UsedFlags : std::uint16_t {
    VRING_USED_F_NO_NOTIFY = 1,
};

/** One descriptor: 16 bytes on the wire. */
struct VringDesc
{
    std::uint64_t addr;  ///< guest-physical buffer address
    std::uint32_t len;   ///< buffer length
    std::uint16_t flags; ///< DescFlags
    std::uint16_t next;  ///< next descriptor if F_NEXT

    bool operator==(const VringDesc &) const = default;
};

static constexpr Bytes vringDescSize = 16;

/** The descriptor at byte address @p a: the one place its 16-byte
 *  wire format is read or written. */
VringDesc readDescAt(const GuestMemory &m, Addr a);
void writeDescAt(GuestMemory &m, Addr a, const VringDesc &d);

/** One buffer segment of a descriptor chain. */
struct Segment
{
    Addr addr;
    std::uint32_t len;
    bool deviceWrites; ///< VRING_DESC_F_WRITE
};

/**
 * Event-index notification test (virtio 1.0 section 2.4.7.2):
 * with VIRTIO_RING_F_EVENT_IDX, a notification is needed iff the
 * index just passed the other side's published event index. All
 * arithmetic is modulo 2^16.
 */
constexpr bool
vringNeedEvent(std::uint16_t event, std::uint16_t new_idx,
               std::uint16_t old_idx)
{
    return std::uint16_t(new_idx - event - 1) <
           std::uint16_t(new_idx - old_idx);
}

/** One used-ring element: 8 bytes on the wire. */
struct VringUsedElem
{
    std::uint32_t id;  ///< head index of the completed chain
    std::uint32_t len; ///< bytes written into device-writable parts
};

/**
 * Address map of one vring of @c size entries based at the three
 * area addresses the driver programs into the device (queue_desc /
 * queue_driver / queue_device in the virtio-pci common config).
 */
class VringLayout
{
  public:
    VringLayout() = default;

    VringLayout(std::uint16_t size, Addr desc, Addr avail, Addr used)
        : size_(size), desc_(desc), avail_(avail), used_(used) {}

    /**
     * Compute a contiguous layout starting at @p base with the
     * spec's alignment rules; convenient for drivers allocating a
     * ring in one block.
     */
    static VringLayout contiguous(std::uint16_t size, Addr base);

    /** Total bytes of a contiguous ring of @p size entries. */
    static Bytes bytesNeeded(std::uint16_t size);

    std::uint16_t size() const { return size_; }
    Addr descAddr() const { return desc_; }
    Addr availAddr() const { return avail_; }
    Addr usedAddr() const { return used_; }
    bool valid() const { return size_ != 0; }

    /**
     * True if all three ring areas lie inside a memory of
     * @p mem_size bytes (overflow-safe). The area addresses are
     * guest-programmed and must be validated before any accessor
     * touches memory through this layout.
     */
    bool fitsIn(Bytes mem_size) const;

    // --- Descriptor table ---
    /** Byte address of descriptor @p i. */
    Addr descAddr(std::uint16_t i) const;
    VringDesc readDesc(const GuestMemory &m, std::uint16_t i) const;
    void writeDesc(GuestMemory &m, std::uint16_t i,
                   const VringDesc &d) const;

    // --- Available ring (driver -> device) ---
    std::uint16_t availFlags(const GuestMemory &m) const;
    std::uint16_t availIdx(const GuestMemory &m) const;
    std::uint16_t availRing(const GuestMemory &m,
                            std::uint16_t slot) const;
    void setAvailFlags(GuestMemory &m, std::uint16_t v) const;
    void setAvailIdx(GuestMemory &m, std::uint16_t v) const;
    void setAvailRing(GuestMemory &m, std::uint16_t slot,
                      std::uint16_t v) const;
    /** used_event field (F_EVENT_IDX), after the ring entries. */
    std::uint16_t usedEvent(const GuestMemory &m) const;
    void setUsedEvent(GuestMemory &m, std::uint16_t v) const;

    // --- Used ring (device -> driver) ---
    std::uint16_t usedFlags(const GuestMemory &m) const;
    std::uint16_t usedIdx(const GuestMemory &m) const;
    VringUsedElem usedRing(const GuestMemory &m,
                           std::uint16_t slot) const;
    void setUsedFlags(GuestMemory &m, std::uint16_t v) const;
    void setUsedIdx(GuestMemory &m, std::uint16_t v) const;
    void setUsedRing(GuestMemory &m, std::uint16_t slot,
                     const VringUsedElem &e) const;
    /** avail_event field, after the used entries. */
    std::uint16_t availEvent(const GuestMemory &m) const;
    void setAvailEvent(GuestMemory &m, std::uint16_t v) const;

    /** Byte sizes of the three areas (for shadow-ring DMA sync). */
    Bytes descBytes() const { return Bytes(size_) * vringDescSize; }
    Bytes availBytes() const { return 4 + 2 * Bytes(size_) + 2; }
    Bytes usedBytes() const { return 4 + 8 * Bytes(size_) + 2; }

  private:
    std::uint16_t size_ = 0;
    Addr desc_ = 0;
    Addr avail_ = 0;
    Addr used_ = 0;
};

/**
 * The split-ring chain layout (virtio 1.0 sections 2.4.5 and
 * 2.4.5.3), the one place the WRITE/NEXT/INDIRECT link rule lives:
 * calls @p emit(addr, desc) for every descriptor of a chain of
 * @p n buffers, head first, where buffer i is @p buf(i), a Segment.
 * A direct chain puts buffer i in ring slot @p ids[i], linked to
 * ids[i + 1]. With an indirect @p table the head slot ids[0] holds
 * {table, n * 16, INDIRECT, 0} and buffer i fills table entry i,
 * linked to entry i + 1. A device-writable buffer sets WRITE, and
 * every buffer but the last sets NEXT.
 */
template <typename Buf, typename Emit>
void
encodeChain(const VringLayout &ring, const std::uint16_t *ids,
            std::optional<Addr> table, std::uint16_t n, Buf buf,
            Emit emit)
{
    auto link = [&](std::uint16_t i, Addr at, std::uint16_t next) {
        Segment s = buf(i);
        bool more = i + 1 < n;
        emit(at, VringDesc{s.addr, s.len,
                           std::uint16_t(
                               (s.deviceWrites ? VRING_DESC_F_WRITE
                                               : 0) |
                               (more ? VRING_DESC_F_NEXT : 0)),
                           more ? next : std::uint16_t(0)});
    };
    if (table) {
        emit(ring.descAddr(ids[0]),
             VringDesc{*table,
                       std::uint32_t(n) * std::uint32_t(vringDescSize),
                       VRING_DESC_F_INDIRECT, 0});
        for (std::uint16_t i = 0; i < n; ++i)
            link(i, *table + Addr(i) * vringDescSize,
                 std::uint16_t(i + 1));
    } else {
        for (std::uint16_t i = 0; i < n; ++i)
            link(i, ring.descAddr(ids[i]),
                 i + 1 < n ? ids[i + 1] : std::uint16_t(0));
    }
}

} // namespace virtio
} // namespace bmhive

#endif // BMHIVE_VIRTIO_VRING_HH
