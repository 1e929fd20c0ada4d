/**
 * @file
 * Driver- and device-side views of one virtqueue.
 *
 * VirtQueueDriver is what a guest's virtio-net/blk driver uses: it
 * owns the descriptor free list, writes descriptor chains (direct
 * or indirect), publishes them on the available ring, and reaps
 * completions from the used ring.
 *
 * VirtQueueDevice is what a backend uses: it pops available chains
 * (walking descriptor tables, resolving indirect tables) and pushes
 * used elements. In BM-Hive the device view operates on the shadow
 * vring in hypervisor memory; in the KVM baseline it operates on
 * the guest's own ring. Malformed chains (loops, out-of-range
 * indices) are counted and dropped, never fatal: a malicious guest
 * must not be able to take down the backend (paper's security
 * requirement, section 3.1).
 */

#ifndef BMHIVE_VIRTIO_VIRTQUEUE_HH
#define BMHIVE_VIRTIO_VIRTQUEUE_HH

#include <cstdint>
#include <optional>
#include <vector>

#include "base/stats.hh"
#include "fault/guest_fault.hh"
#include "mem/guest_memory.hh"
#include "virtio/vring.hh"

namespace bmhive {
namespace virtio {

/** A popped descriptor chain, device side. */
struct DescChain
{
    std::uint16_t head = 0;
    std::vector<Segment> segs;

    /** Total bytes the device may read (driver-filled buffers). */
    std::uint32_t readLen() const;
    /** Total bytes the device may write (driver-empty buffers). */
    std::uint32_t writeLen() const;
};

/** A reaped completion, driver side. */
struct UsedCompletion
{
    std::uint16_t head;
    std::uint32_t len;     ///< bytes the device wrote
    std::uint64_t cookie;  ///< driver-supplied request tag
};

/**
 * Full result of walking a descriptor chain, including structure
 * information IO-Bond needs to mirror the chain into a shadow
 * ring: the direct descriptor ids visited and whether the head
 * points at an indirect table.
 */
struct ChainWalk
{
    bool ok = false;
    DescChain chain;
    std::vector<std::uint16_t> path; ///< direct desc ids, in order
    bool indirect = false;
    /** Violation classification; meaningful only when !ok. */
    fault::GuestFaultKind fault = fault::GuestFaultKind::kCount;
};

/**
 * Walk the chain starting at @p head. Handles fully-direct chains
 * and single-indirect-descriptor chains (the two forms virtio 1.0
 * drivers produce); malformed input (loops, range errors, buffers
 * outside guest memory, zero-length or misordered segments, nested
 * indirect) yields ok == false with `fault` naming the violation.
 */
ChainWalk walkDescChain(const GuestMemory &mem,
                        const VringLayout &layout,
                        std::uint16_t head);

/**
 * Guest-driver view of a virtqueue.
 */
class VirtQueueDriver
{
  public:
    /**
     * @param mem    the guest memory holding the ring
     * @param layout ring addresses (as programmed into the device)
     * @param indirect  use indirect descriptors for chains > 1
     * @param event_idx VIRTIO_RING_F_EVENT_IDX negotiated: kick
     *        and interrupt decisions use the event-index fields
     *        instead of the flag bits
     */
    VirtQueueDriver(GuestMemory &mem, const VringLayout &layout,
                    bool indirect = false, Addr indirect_base = 0,
                    bool event_idx = false);

    /** Descriptors currently free. */
    std::uint16_t freeDescs() const
    {
        return std::uint16_t(freeList_.size());
    }

    /**
     * Submit one request: @p out segments the device reads, then
     * @p in segments the device writes.
     * @param cookie  tag returned with the completion
     * @return head descriptor index, or nullopt if out of
     *         descriptors.
     */
    std::optional<std::uint16_t>
    submit(const std::vector<Segment> &out,
           const std::vector<Segment> &in, std::uint64_t cookie);

    /** Reap all completions currently on the used ring. */
    std::vector<UsedCompletion> collectUsed();

    /**
     * True if the device asked for a notification ("kick") — i.e.
     * VRING_USED_F_NO_NOTIFY is clear in the used ring (or, with
     * event-idx, the avail index just crossed avail_event).
     */
    bool deviceWantsKick() const;

    /**
     * Kick decision point: like deviceWantsKick(), but in
     * event-idx mode it also records that everything published so
     * far has been signalled. Call exactly once per doorbell
     * opportunity.
     */
    bool shouldKick();

    /** Suppress or enable the device's completion interrupt. */
    void setNoInterrupt(bool suppress);

    const VringLayout &layout() const { return layout_; }
    /** used->idx value collectUsed() has consumed up to. */
    std::uint16_t usedIdxSeen() const { return lastUsed_; }

    /**
     * Count detected ring-metadata corruption (a chain link
     * scribbled outside the table) in @p c instead of log-only.
     * The driver has no registry of its own, so the owner donates
     * a counter (typically named `...integrity.meta_faults`).
     */
    void setMetaFaultCounter(Counter *c) { metaFaults_ = c; }

  private:
    GuestMemory &mem_;
    VringLayout layout_;
    Counter *metaFaults_ = nullptr;
    bool indirect_;
    Addr indirectBase_;
    bool eventIdx_;
    std::uint16_t lastKickAvail_ = 0;

    std::vector<std::uint16_t> freeList_;
    std::vector<std::uint64_t> cookies_;   ///< by head index
    std::vector<std::uint16_t> chainLen_;  ///< descs used per head
    std::uint16_t availIdx_ = 0; ///< driver's shadow of avail->idx
    std::uint16_t lastUsed_ = 0; ///< last used->idx seen

    /** Max segments per indirect table (preallocated per head). */
    static constexpr std::uint16_t maxIndirect = 16;

    Addr indirectTable(std::uint16_t head) const;
    /** @return false if the head was not owned by the driver. */
    bool freeChain(std::uint16_t head);
};

/**
 * Device/backend view of a virtqueue.
 */
class VirtQueueDevice
{
  public:
    VirtQueueDevice(GuestMemory &mem, const VringLayout &layout,
                    bool event_idx = false);

    /**
     * Pop the next available chain; nullopt when the ring is empty
     * or the next chain is malformed (counted in badChains()).
     */
    std::optional<DescChain> pop();

    /**
     * Drain up to @p max available chains in one batched visit.
     * Unlike repeated pop(), malformed chains are completed with
     * zero length and skipped (they do not end the drain), and in
     * event-idx mode the kick threshold (avail_event) is re-armed
     * once at the end of the drain instead of per chain.
     */
    std::vector<DescChain> popBatch(unsigned max);

    /** True if any unprocessed avail entries exist. */
    bool hasWork() const;

    /** Complete a chain: @p written bytes placed in in-segments. */
    void pushUsed(std::uint16_t head, std::uint32_t written);

    /**
     * Complete a batch of chains with one used-index publish: all
     * used elements are written, then used->idx advances once over
     * the whole batch — the single tail write a backend pays per
     * completion batch.
     */
    void pushUsedBatch(const std::vector<VringUsedElem> &elems);

    /**
     * True if the driver wants a completion interrupt (i.e.
     * VRING_AVAIL_F_NO_INTERRUPT is clear; with event-idx, the
     * used index just crossed used_event).
     */
    bool driverWantsInterrupt() const;

    /**
     * Interrupt decision point after a completion batch: like
     * driverWantsInterrupt(), but in event-idx mode it also
     * records the signalled position. Call once per batch.
     */
    bool shouldInterrupt();

    /** Suppress or enable driver kicks. */
    void setNoNotify(bool suppress);

    std::uint64_t badChains() const { return badChains_.value(); }
    std::uint64_t popped() const { return popped_.value(); }
    const VringLayout &layout() const { return layout_; }

  private:
    /** Consume the next avail entry (the caller checked hasWork()):
     *  its chain, or nullopt for a malformed one, which is counted
     *  and completed with zero length so the driver's descriptors
     *  are not leaked. */
    std::optional<DescChain> take();

    GuestMemory &mem_;
    VringLayout layout_;
    bool eventIdx_;
    bool notifySuppressed_ = false;
    std::uint16_t lastAvail_ = 0; ///< next avail slot to consume
    std::uint16_t usedIdx_ = 0;   ///< device's shadow of used->idx
    std::uint16_t lastIntrUsed_ = 0; ///< used idx at last IRQ
    Counter badChains_;
    Counter popped_;
};

} // namespace virtio
} // namespace bmhive

#endif // BMHIVE_VIRTIO_VIRTQUEUE_HH
