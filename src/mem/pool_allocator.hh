/**
 * @file
 * First-fit free-list allocator with coalescing over a region of a
 * GuestMemory. IO-Bond uses one to manage its shadow-buffer arena
 * in base-board memory: every in-flight descriptor chain borrows
 * shadow buffers for the duration of the request.
 */

#ifndef BMHIVE_MEM_POOL_ALLOCATOR_HH
#define BMHIVE_MEM_POOL_ALLOCATOR_HH

#include <cstdint>
#include <map>

#include "base/units.hh"

namespace bmhive {

class PoolAllocator
{
  public:
    /** Manage [base, base+size) (addresses, no memory touched). */
    PoolAllocator(Addr base, Bytes size);

    /**
     * Allocate @p len bytes (aligned to @p align).
     * @return address, or nullAddr on exhaustion/fragmentation.
     */
    Addr alloc(Bytes len, Bytes align = 16);

    /** Return a block from alloc(); coalesces with neighbours. */
    void free(Addr addr);

    Bytes bytesFree() const { return free_; }
    std::size_t liveAllocations() const { return live_.size(); }

    static constexpr Addr nullAddr = ~Addr(0);

  private:
    Bytes free_;
    /** start -> length of each free extent, sorted. */
    std::map<Addr, Bytes> extents_;
    /** returned address -> (extent start, extent length). */
    std::map<Addr, std::pair<Addr, Bytes>> live_;
};

} // namespace bmhive

#endif // BMHIVE_MEM_POOL_ALLOCATOR_HH
