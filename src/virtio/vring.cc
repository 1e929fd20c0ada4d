#include "virtio/vring.hh"

#include "base/logging.hh"

namespace bmhive {
namespace virtio {

namespace {

constexpr Addr
alignUp(Addr a, Addr align)
{
    return (a + align - 1) & ~(align - 1);
}

} // namespace

VringLayout
VringLayout::contiguous(std::uint16_t size, Addr base)
{
    panic_if(size == 0 || (size & (size - 1)) != 0,
             "vring size must be a power of two, got ", size);
    Addr desc = alignUp(base, 16);
    Addr avail = alignUp(desc + Bytes(size) * vringDescSize, 2);
    // avail: flags + idx + ring[size] + used_event
    Addr used = alignUp(avail + 4 + 2 * Bytes(size) + 2, 4);
    return VringLayout(size, desc, avail, used);
}

Bytes
VringLayout::bytesNeeded(std::uint16_t size)
{
    VringLayout l = contiguous(size, 0);
    return l.usedAddr() + l.usedBytes();
}

bool
VringLayout::fitsIn(Bytes mem_size) const
{
    auto area_ok = [mem_size](Addr base, Bytes len) {
        return base + len >= base && base + len <= mem_size;
    };
    return valid() && area_ok(desc_, descBytes()) &&
           area_ok(avail_, availBytes()) &&
           area_ok(used_, usedBytes());
}

VringDesc
readDescAt(const GuestMemory &m, Addr a)
{
    return {m.read64(a), m.read32(a + 8), m.read16(a + 12),
            m.read16(a + 14)};
}

void
writeDescAt(GuestMemory &m, Addr a, const VringDesc &d)
{
    m.write64(a, d.addr);
    m.write32(a + 8, d.len);
    m.write16(a + 12, d.flags);
    m.write16(a + 14, d.next);
}

Addr
VringLayout::descAddr(std::uint16_t i) const
{
    panic_if(i >= size_, "descriptor index out of range: ", i);
    return desc_ + Addr(i) * vringDescSize;
}

VringDesc
VringLayout::readDesc(const GuestMemory &m, std::uint16_t i) const
{
    return readDescAt(m, descAddr(i));
}

void
VringLayout::writeDesc(GuestMemory &m, std::uint16_t i,
                       const VringDesc &d) const
{
    writeDescAt(m, descAddr(i), d);
}

std::uint16_t
VringLayout::availFlags(const GuestMemory &m) const
{
    return m.read16(avail_);
}

std::uint16_t
VringLayout::availIdx(const GuestMemory &m) const
{
    return m.read16(avail_ + 2);
}

std::uint16_t
VringLayout::availRing(const GuestMemory &m, std::uint16_t slot) const
{
    panic_if(slot >= size_, "avail slot out of range: ", slot);
    return m.read16(avail_ + 4 + 2 * Addr(slot));
}

void
VringLayout::setAvailFlags(GuestMemory &m, std::uint16_t v) const
{
    m.write16(avail_, v);
}

void
VringLayout::setAvailIdx(GuestMemory &m, std::uint16_t v) const
{
    m.write16(avail_ + 2, v);
}

void
VringLayout::setAvailRing(GuestMemory &m, std::uint16_t slot,
                          std::uint16_t v) const
{
    panic_if(slot >= size_, "avail slot out of range: ", slot);
    m.write16(avail_ + 4 + 2 * Addr(slot), v);
}

std::uint16_t
VringLayout::usedEvent(const GuestMemory &m) const
{
    return m.read16(avail_ + 4 + 2 * Addr(size_));
}

void
VringLayout::setUsedEvent(GuestMemory &m, std::uint16_t v) const
{
    m.write16(avail_ + 4 + 2 * Addr(size_), v);
}

std::uint16_t
VringLayout::usedFlags(const GuestMemory &m) const
{
    return m.read16(used_);
}

std::uint16_t
VringLayout::usedIdx(const GuestMemory &m) const
{
    return m.read16(used_ + 2);
}

VringUsedElem
VringLayout::usedRing(const GuestMemory &m, std::uint16_t slot) const
{
    panic_if(slot >= size_, "used slot out of range: ", slot);
    Addr a = used_ + 4 + 8 * Addr(slot);
    VringUsedElem e;
    e.id = m.read32(a);
    e.len = m.read32(a + 4);
    return e;
}

void
VringLayout::setUsedFlags(GuestMemory &m, std::uint16_t v) const
{
    m.write16(used_, v);
}

void
VringLayout::setUsedIdx(GuestMemory &m, std::uint16_t v) const
{
    m.write16(used_ + 2, v);
}

void
VringLayout::setUsedRing(GuestMemory &m, std::uint16_t slot,
                         const VringUsedElem &e) const
{
    panic_if(slot >= size_, "used slot out of range: ", slot);
    Addr a = used_ + 4 + 8 * Addr(slot);
    m.write32(a, e.id);
    m.write32(a + 4, e.len);
}

std::uint16_t
VringLayout::availEvent(const GuestMemory &m) const
{
    return m.read16(used_ + 4 + 8 * Addr(size_));
}

void
VringLayout::setAvailEvent(GuestMemory &m, std::uint16_t v) const
{
    m.write16(used_ + 4 + 8 * Addr(size_), v);
}

} // namespace virtio
} // namespace bmhive
