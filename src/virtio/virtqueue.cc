#include "virtio/virtqueue.hh"

#include "base/logging.hh"

namespace bmhive {
namespace virtio {

std::uint32_t
DescChain::readLen() const
{
    std::uint32_t n = 0;
    for (const auto &s : segs)
        if (!s.deviceWrites)
            n += s.len;
    return n;
}

std::uint32_t
DescChain::writeLen() const
{
    std::uint32_t n = 0;
    for (const auto &s : segs)
        if (s.deviceWrites)
            n += s.len;
    return n;
}

VirtQueueDriver::VirtQueueDriver(GuestMemory &mem,
                                 const VringLayout &layout,
                                 bool indirect, Addr indirect_base,
                                 bool event_idx)
    : mem_(mem), layout_(layout), indirect_(indirect),
      indirectBase_(indirect_base), eventIdx_(event_idx),
      cookies_(layout.size(), 0), chainLen_(layout.size(), 0)
{
    panic_if(!layout.valid(), "driver created on an invalid ring");
    freeList_.reserve(layout.size());
    // Populate the free list high-to-low so allocation starts at 0.
    for (int i = layout.size() - 1; i >= 0; --i)
        freeList_.push_back(std::uint16_t(i));
    // Initialize ring indices.
    layout_.setAvailFlags(mem_, 0);
    layout_.setAvailIdx(mem_, 0);
    layout_.setUsedFlags(mem_, 0);
    layout_.setUsedIdx(mem_, 0);
}

Addr
VirtQueueDriver::indirectTable(std::uint16_t head) const
{
    return indirectBase_ +
           Addr(head) * Addr(maxIndirect) * vringDescSize;
}

std::optional<std::uint16_t>
VirtQueueDriver::submit(const std::vector<Segment> &out,
                        const std::vector<Segment> &in,
                        std::uint64_t cookie)
{
    std::size_t total = out.size() + in.size();
    panic_if(total == 0, "empty virtio request");

    bool use_indirect = indirect_ && total > 1;
    std::size_t direct_needed = use_indirect ? 1 : total;
    if (freeList_.size() < direct_needed)
        return std::nullopt;
    if (use_indirect && total > maxIndirect)
        return std::nullopt;

    // Allocate descriptors from the free list.
    std::vector<std::uint16_t> ids(direct_needed);
    for (auto &id : ids) {
        id = freeList_.back();
        freeList_.pop_back();
    }
    std::uint16_t head = ids[0];
    cookies_[head] = cookie;
    chainLen_[head] = std::uint16_t(direct_needed);

    // An indirect chain goes into this head's private table area.
    std::optional<Addr> table;
    if (use_indirect)
        table = indirectTable(head);
    encodeChain(
        layout_, ids.data(), table, std::uint16_t(total),
        [&](std::uint16_t i) {
            return i < out.size() ? out[i] : in[i - out.size()];
        },
        [this](Addr a, const VringDesc &d) { writeDescAt(mem_, a, d); });

    // Publish on the available ring; idx wraps naturally at 2^16.
    layout_.setAvailRing(mem_, availIdx_ % layout_.size(), head);
    ++availIdx_;
    layout_.setAvailIdx(mem_, availIdx_);
    return head;
}

bool
VirtQueueDriver::freeChain(std::uint16_t head)
{
    if (chainLen_[head] == 0) {
        // The device completed a head we never submitted (or
        // completed one twice). Linux virtio treats this as a
        // BAD_RING condition and carries on; so do we.
        warn("virtqueue: device returned unowned head ", head);
        return false;
    }
    // Walk the direct chain to recover all ids. The descriptor
    // table lives in ring memory, so the next pointers may have
    // been scribbled since submission; a corrupted link must not
    // index outside the table (Linux virtio's BAD_RING stance).
    std::uint16_t id = head;
    std::uint16_t remaining = chainLen_[head];
    chainLen_[head] = 0;
    while (remaining-- > 0) {
        freeList_.push_back(id);
        VringDesc d = layout_.readDesc(mem_, id);
        if (!(d.flags & VRING_DESC_F_NEXT))
            break;
        if (d.next >= layout_.size()) {
            warn("virtqueue: corrupted chain link ", d.next,
                 " from desc ", id);
            if (metaFaults_)
                metaFaults_->inc();
            break;
        }
        id = d.next;
    }
    return true;
}

std::vector<UsedCompletion>
VirtQueueDriver::collectUsed()
{
    std::vector<UsedCompletion> done;
    std::uint16_t used_idx = layout_.usedIdx(mem_);
    if (eventIdx_ && lastUsed_ != used_idx) {
        // Re-arm: interrupt us once anything beyond used_idx lands.
        layout_.setUsedEvent(mem_, used_idx);
    }
    while (lastUsed_ != used_idx) {
        VringUsedElem e =
            layout_.usedRing(mem_, lastUsed_ % layout_.size());
        ++lastUsed_;
        if (e.id >= layout_.size()) {
            warn("virtqueue: device returned bad used id ", e.id);
            continue;
        }
        auto head = std::uint16_t(e.id);
        if (!freeChain(head))
            continue;
        done.push_back({head, e.len, cookies_[head]});
    }
    return done;
}

bool
VirtQueueDriver::deviceWantsKick() const
{
    if (eventIdx_) {
        return vringNeedEvent(layout_.availEvent(mem_), availIdx_,
                              lastKickAvail_);
    }
    return !(layout_.usedFlags(mem_) & VRING_USED_F_NO_NOTIFY);
}

bool
VirtQueueDriver::shouldKick()
{
    bool need = deviceWantsKick();
    if (eventIdx_)
        lastKickAvail_ = availIdx_;
    return need;
}

void
VirtQueueDriver::setNoInterrupt(bool suppress)
{
    if (eventIdx_) {
        // Suppress by parking used_event half a ring away; enable
        // by asking for the very next completion.
        layout_.setUsedEvent(
            mem_, suppress ? std::uint16_t(lastUsed_ + 0x8000)
                           : lastUsed_);
        return;
    }
    layout_.setAvailFlags(mem_,
                          suppress ? VRING_AVAIL_F_NO_INTERRUPT : 0);
}

VirtQueueDevice::VirtQueueDevice(GuestMemory &mem,
                                 const VringLayout &layout,
                                 bool event_idx)
    : mem_(mem), layout_(layout), eventIdx_(event_idx)
{
    panic_if(!layout.valid(), "device created on an invalid ring");
    // Resume from what the ring says rather than assuming zero: a
    // device view attached over a live ring (backend respawn after
    // a crash) must continue where its predecessor stopped. The
    // republished avail window starts at the used index. Fresh
    // rings are zeroed by their creator, so this is 0 for them.
    usedIdx_ = layout_.usedIdx(mem_);
    lastAvail_ = usedIdx_;
    lastIntrUsed_ = usedIdx_;
}

bool
VirtQueueDevice::hasWork() const
{
    return layout_.availIdx(mem_) != lastAvail_;
}

ChainWalk
walkDescChain(const GuestMemory &mem, const VringLayout &layout,
              std::uint16_t head)
{
    using fault::GuestFaultKind;
    ChainWalk w;
    w.chain.head = head;

    auto fail = [&w](GuestFaultKind k) -> ChainWalk & {
        w.fault = k;
        return w;
    };
    // Every buffer segment — direct or from an indirect table — is
    // attacker-controlled: the address must fall inside guest
    // memory (with overflow checked), the length must be non-zero,
    // and device-readable segments must precede device-writable
    // ones (virtio 1.0 section 2.4.4.2).
    bool seen_write = false;
    auto check_seg = [&](const VringDesc &d,
                         GuestFaultKind &k) -> bool {
        if (d.len == 0) {
            k = GuestFaultKind::DescLenZero;
            return false;
        }
        if (d.addr + d.len < d.addr ||
            d.addr + d.len > mem.size()) {
            k = GuestFaultKind::DescAddrRange;
            return false;
        }
        bool write = d.flags & VRING_DESC_F_WRITE;
        if (!write && seen_write) {
            k = GuestFaultKind::DescWriteOrder;
            return false;
        }
        seen_write = seen_write || write;
        return true;
    };

    std::uint16_t id = head;
    unsigned steps = 0;
    while (true) {
        if (id >= layout.size())
            return fail(GuestFaultKind::DescIndexRange);
        if (++steps > layout.size())
            return fail(GuestFaultKind::DescLoop);
        VringDesc d = layout.readDesc(mem, id);
        w.path.push_back(id);

        if (d.flags & VRING_DESC_F_INDIRECT) {
            // Indirect must be the sole descriptor (spec: a driver
            // MUST NOT set both INDIRECT and NEXT) and well-formed.
            if (d.flags & VRING_DESC_F_NEXT)
                return fail(GuestFaultKind::IndirectMalformed);
            if (steps != 1)
                return fail(GuestFaultKind::IndirectMalformed);
            if (d.len == 0 || d.len % vringDescSize != 0)
                return fail(GuestFaultKind::IndirectMalformed);
            auto n =
                std::uint16_t(d.len / std::uint32_t(vringDescSize));
            if (d.addr + d.len < d.addr ||
                d.addr + d.len > mem.size())
                return fail(GuestFaultKind::IndirectMalformed);
            w.indirect = true;
            // Follow the table's next pointers with the same
            // containment as the direct walk: a hostile guest can
            // write a self-referencing or cyclic table, and the
            // step bound is what keeps the walk finite.
            std::uint16_t idx = 0;
            unsigned ind_steps = 0;
            while (true) {
                if (idx >= n)
                    // next points outside the table
                    return fail(GuestFaultKind::IndirectMalformed);
                if (++ind_steps > n)
                    // cyclic indirect table
                    return fail(GuestFaultKind::DescLoop);
                VringDesc ind = readDescAt(
                    mem, d.addr + Addr(idx) * vringDescSize);
                if (ind.flags & VRING_DESC_F_INDIRECT)
                    // nesting forbidden by the spec
                    return fail(GuestFaultKind::IndirectMalformed);
                GuestFaultKind k;
                if (!check_seg(ind, k))
                    return fail(k);
                w.chain.segs.push_back(
                    {ind.addr, ind.len,
                     bool(ind.flags & VRING_DESC_F_WRITE)});
                if (!(ind.flags & VRING_DESC_F_NEXT))
                    break;
                idx = ind.next;
            }
            w.ok = true;
            return w;
        }

        GuestFaultKind k;
        if (!check_seg(d, k))
            return fail(k);
        w.chain.segs.push_back(
            {d.addr, d.len, bool(d.flags & VRING_DESC_F_WRITE)});

        if (!(d.flags & VRING_DESC_F_NEXT)) {
            w.ok = true;
            return w;
        }
        id = d.next;
    }
}

std::optional<DescChain>
VirtQueueDevice::take()
{
    std::uint16_t head =
        layout_.availRing(mem_, lastAvail_ % layout_.size());
    ++lastAvail_;
    ChainWalk w = walkDescChain(mem_, layout_, head);
    if (!w.ok) {
        badChains_.inc();
        if (head < layout_.size())
            pushUsed(head, 0);
        return std::nullopt;
    }
    popped_.inc();
    return std::move(w.chain);
}

std::optional<DescChain>
VirtQueueDevice::pop()
{
    if (!hasWork())
        return std::nullopt;
    std::optional<DescChain> c = take();
    if (c && eventIdx_ && !notifySuppressed_) {
        // Re-arm: kick us once anything beyond lastAvail_ appears.
        layout_.setAvailEvent(mem_, lastAvail_);
    }
    return c;
}

std::vector<DescChain>
VirtQueueDevice::popBatch(unsigned max)
{
    std::vector<DescChain> out;
    bool consumed = false;
    while (out.size() < max && hasWork()) {
        consumed = true;
        if (std::optional<DescChain> c = take())
            out.push_back(std::move(*c));
    }
    if (consumed && eventIdx_ && !notifySuppressed_) {
        // One re-arm covers the whole drain: kick us once anything
        // beyond lastAvail_ appears.
        layout_.setAvailEvent(mem_, lastAvail_);
    }
    return out;
}

void
VirtQueueDevice::pushUsed(std::uint16_t head, std::uint32_t written)
{
    layout_.setUsedRing(mem_, usedIdx_ % layout_.size(),
                        VringUsedElem{head, written});
    ++usedIdx_;
    layout_.setUsedIdx(mem_, usedIdx_);
}

void
VirtQueueDevice::pushUsedBatch(const std::vector<VringUsedElem> &elems)
{
    if (elems.empty())
        return;
    for (const auto &e : elems) {
        layout_.setUsedRing(mem_, usedIdx_ % layout_.size(), e);
        ++usedIdx_;
    }
    layout_.setUsedIdx(mem_, usedIdx_);
}

bool
VirtQueueDevice::driverWantsInterrupt() const
{
    if (eventIdx_) {
        return vringNeedEvent(layout_.usedEvent(mem_), usedIdx_,
                              lastIntrUsed_);
    }
    return !(layout_.availFlags(mem_) & VRING_AVAIL_F_NO_INTERRUPT);
}

bool
VirtQueueDevice::shouldInterrupt()
{
    bool need = driverWantsInterrupt();
    if (eventIdx_)
        lastIntrUsed_ = usedIdx_;
    return need;
}

void
VirtQueueDevice::setNoNotify(bool suppress)
{
    notifySuppressed_ = suppress;
    if (eventIdx_) {
        layout_.setAvailEvent(
            mem_, suppress ? std::uint16_t(lastAvail_ + 0x8000)
                           : lastAvail_);
        return;
    }
    layout_.setUsedFlags(mem_,
                         suppress ? VRING_USED_F_NO_NOTIFY : 0);
}

} // namespace virtio
} // namespace bmhive
