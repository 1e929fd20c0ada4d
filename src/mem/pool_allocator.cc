#include "mem/pool_allocator.hh"

#include "base/logging.hh"

namespace bmhive {

PoolAllocator::PoolAllocator(Addr base, Bytes size)
    : free_(size)
{
    panic_if(size == 0, "empty pool");
    extents_[base] = size;
}

Addr
PoolAllocator::alloc(Bytes len, Bytes align)
{
    panic_if(len == 0, "zero-length allocation");
    panic_if(align == 0 || (align & (align - 1)) != 0,
             "bad alignment: ", align);
    for (auto it = extents_.begin(); it != extents_.end(); ++it) {
        Addr start = it->first;
        Bytes ext_len = it->second;
        Addr aligned = (start + align - 1) & ~(align - 1);
        Bytes waste = aligned - start;
        if (ext_len < waste + len)
            continue;
        // Carve [aligned, aligned+len) out of the extent. The
        // pre-waste and the tail go back to the free map.
        extents_.erase(it);
        if (waste > 0)
            extents_[start] = waste;
        Bytes tail = ext_len - waste - len;
        if (tail > 0)
            extents_[aligned + len] = tail;
        // free() returns just [aligned, aligned+len): the waste
        // went back to the free map above.
        live_[aligned] = {aligned, len};
        free_ -= len;
        return aligned;
    }
    return nullAddr;
}

void
PoolAllocator::free(Addr addr)
{
    auto it = live_.find(addr);
    panic_if(it == live_.end(), "freeing unknown address ", addr);
    Addr start = it->second.first;
    Bytes len = it->second.second;
    live_.erase(it);
    free_ += len;

    // Insert and coalesce with the previous and next extents.
    auto ins = extents_.emplace(start, len).first;
    if (ins != extents_.begin()) {
        auto prev = std::prev(ins);
        if (prev->first + prev->second == ins->first) {
            prev->second += ins->second;
            extents_.erase(ins);
            ins = prev;
        }
    }
    auto next = std::next(ins);
    if (next != extents_.end() &&
        ins->first + ins->second == next->first) {
        ins->second += next->second;
        extents_.erase(next);
    }
}

} // namespace bmhive
