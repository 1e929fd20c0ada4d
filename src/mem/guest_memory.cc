#include "mem/guest_memory.hh"

#include <sys/mman.h>

#include <cerrno>
#include <cstring>

namespace bmhive {

GuestMemory::GuestMemory(std::string name, Bytes size)
    : name_(std::move(name)), size_(size)
{
    // NORESERVE: no swap is set aside for pages the model may
    // never touch.
    void *p = mmap(nullptr, size_, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
    fatal_if(p == MAP_FAILED, name_, ": cannot map ", size_,
             " bytes: ", std::strerror(errno));
    data_ = static_cast<std::uint8_t *>(p);
    // Under THP "always" one written byte would make a whole 2 MiB
    // huge page resident; keep residency per 4 KiB page. Advisory:
    // a kernel without THP refuses it, and nothing changes.
    madvise(p, size_, MADV_NOHUGEPAGE);
}

GuestMemory::~GuestMemory()
{
    munmap(data_, size_);
}

void
GuestMemory::read(Addr addr, void *dst, Bytes len) const
{
    panic_if(addr + len > size_ || addr + len < addr,
             name_, ": out-of-bounds read [", addr, ", ", addr + len,
             ") of ", size_, " bytes");
    std::memcpy(dst, data_ + addr, len);
}

void
GuestMemory::write(Addr addr, const void *src, Bytes len)
{
    panic_if(addr + len > size_ || addr + len < addr,
             name_, ": out-of-bounds write [", addr, ", ", addr + len,
             ") of ", size_, " bytes");
    std::memcpy(data_ + addr, src, len);
}

std::vector<std::uint8_t>
GuestMemory::readBlob(Addr addr, Bytes len) const
{
    std::vector<std::uint8_t> blob(len);
    read(addr, blob.data(), len);
    return blob;
}

void
GuestMemory::writeBlob(Addr addr, const std::vector<std::uint8_t> &blob)
{
    write(addr, blob.data(), blob.size());
}

Addr
BumpAllocator::alloc(Bytes len, Bytes align)
{
    panic_if(align == 0 || (align & (align - 1)) != 0,
             "alignment must be a power of two: ", align);
    Addr aligned = (next_ + align - 1) & ~(align - 1);
    panic_if(aligned + len > mem_->size(),
             mem_->name(), ": bump allocator exhausted (",
             aligned + len, " > ", mem_->size(), ")");
    next_ = aligned + len;
    return aligned;
}

} // namespace bmhive
