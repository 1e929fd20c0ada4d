/**
 * @file
 * GuestMemory: a flat simulated physical memory.
 *
 * In BM-Hive the bm-guest (compute board) and the bm-hypervisor
 * (base board) have *separate* physical memories — the property
 * that forces IO-Bond's shadow-vring design (paper section 3.4.1).
 * Each board therefore owns its own GuestMemory instance; nothing
 * in the simulator can alias them.
 *
 * Addresses are guest-physical. Multi-byte accessors are
 * little-endian, matching the virtio 1.0 wire format.
 *
 * The bytes live in one private anonymous mapping, so the host
 * backs a page only when the model first writes it: an untouched
 * page costs no resident memory and reads as zero. A server's
 * memories map about 0.9 GiB, of which its guests touch a few MiB.
 */

#ifndef BMHIVE_MEM_GUEST_MEMORY_HH
#define BMHIVE_MEM_GUEST_MEMORY_HH

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "base/logging.hh"
#include "base/units.hh"

namespace bmhive {

class GuestMemory
{
  public:
    /**
     * @param name human-readable label for diagnostics
     * @param size memory size in bytes
     */
    GuestMemory(std::string name, Bytes size);
    ~GuestMemory();

    GuestMemory(const GuestMemory &) = delete;
    GuestMemory &operator=(const GuestMemory &) = delete;

    const std::string &name() const { return name_; }
    Bytes size() const { return size_; }

    /** Raw byte access. */
    void read(Addr addr, void *dst, Bytes len) const;
    void write(Addr addr, const void *src, Bytes len);

    /** Typed little-endian accessors. */
    std::uint8_t read8(Addr addr) const { return readT<std::uint8_t>(addr); }
    std::uint16_t read16(Addr addr) const { return readT<std::uint16_t>(addr); }
    std::uint32_t read32(Addr addr) const { return readT<std::uint32_t>(addr); }
    std::uint64_t read64(Addr addr) const { return readT<std::uint64_t>(addr); }

    void write8(Addr addr, std::uint8_t v) { writeT(addr, v); }
    void write16(Addr addr, std::uint16_t v) { writeT(addr, v); }
    void write32(Addr addr, std::uint32_t v) { writeT(addr, v); }
    void write64(Addr addr, std::uint64_t v) { writeT(addr, v); }

    /** Read a region into a fresh vector. */
    std::vector<std::uint8_t> readBlob(Addr addr, Bytes len) const;

    /** Write a vector into memory. */
    void writeBlob(Addr addr, const std::vector<std::uint8_t> &blob);

    /**
     * Sticky mark: something may have written bytes here that their
     * owner did not lay out (injected metadata rot, or a device
     * acting on a rotted descriptor length, which can write past
     * its buffer into a neighbour's). IO-Bond trusts the shadow
     * metadata it wrote itself to be intact only while the memory
     * holding it is unmarked.
     */
    void taint() { tainted_ = true; }
    bool tainted() const { return tainted_; }

  private:
    template <typename T>
    T
    readT(Addr addr) const
    {
        T v;
        read(addr, &v, sizeof(T));
        return v;
    }

    template <typename T>
    void
    writeT(Addr addr, T v)
    {
        write(addr, &v, sizeof(T));
    }

    std::string name_;
    Bytes size_;
    std::uint8_t *data_ = nullptr;
    bool tainted_ = false;
};

/**
 * Trivial bump allocator over a GuestMemory, used by
 * tests and guest models to lay out rings and buffers without a
 * full memory manager. Allocations are aligned and never freed
 * individually (reset() releases everything).
 */
class BumpAllocator
{
  public:
    BumpAllocator(GuestMemory &mem, Addr base = 0)
        : mem_(&mem), base_(base), next_(base) {}

    /** Allocate @p len bytes aligned to @p align. */
    Addr alloc(Bytes len, Bytes align = 16);

    /** Release everything. */
    void reset() { next_ = base_; }

    /**
     * Re-point the allocator at a different memory/region and
     * release everything — used when a shadow region migrates to
     * another base server's memory.
     */
    void
    reseat(GuestMemory &mem, Addr base)
    {
        mem_ = &mem;
        base_ = base;
        next_ = base;
    }

    Bytes used() const { return next_ - base_; }

  private:
    GuestMemory *mem_;
    Addr base_;
    Addr next_;
};

} // namespace bmhive

#endif // BMHIVE_MEM_GUEST_MEMORY_HH
