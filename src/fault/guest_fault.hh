/**
 * @file
 * Typed taxonomy of guest-inflicted protocol violations.
 *
 * Everything a bm-guest writes — config space, BAR registers,
 * doorbells, descriptors, avail rings, indirect tables — crosses
 * the IO-Bond trust boundary as attacker-controlled input (paper
 * sections 3.3-3.4). Each violation the untrusted-input audit can
 * detect is one GuestFaultKind; detection sites count the fault
 * under "<component>.guest.faults.<kind>" and contain it per queue
 * or per guest, never fatally for the server.
 */

#ifndef BMHIVE_FAULT_GUEST_FAULT_HH
#define BMHIVE_FAULT_GUEST_FAULT_HH

#include <cstddef>

namespace bmhive {
namespace fault {

enum class GuestFaultKind {
    /** Doorbell or queue-register access naming a queue the
     *  function does not have. */
    BadQueueIndex,
    /** MSI vector write beyond the function's vector table. */
    BadMsiVector,
    /** Feature-negotiation protocol violation: FEATURES_OK without
     *  VIRTIO_F_VERSION_1, or feature writes after FEATURES_OK. */
    BadFeatureWrite,
    /** Config-space access with a bad size or out-of-range offset. */
    BadConfigAccess,
    /** Queue enabled with ring areas outside guest memory. */
    BadRingAddress,
    /** avail->idx advanced further than the ring size in one
     *  doorbell: the ring content cannot all be valid. */
    AvailIdxJump,
    /** Descriptor chain references an index outside the table. */
    DescIndexRange,
    /** Descriptor chain loops (visits more entries than exist). */
    DescLoop,
    /** Descriptor buffer lies (partly) outside guest memory. */
    DescAddrRange,
    /** Zero-length descriptor buffer. */
    DescLenZero,
    /** Chain total exceeds the per-request budget. */
    DescLenOversized,
    /** Device-readable segment after a device-writable one
     *  (write-flag abuse; the spec orders read-first). */
    DescWriteOrder,
    /** Indirect descriptor violating the spec: INDIRECT|NEXT,
     *  non-sole, bad table length, nested indirection, or a table
     *  outside guest memory. */
    IndirectMalformed,
    /** Doorbell rate above the token-bucket contract. */
    DoorbellStorm,
    /** Multi-queue set-queue-pairs write of zero or more pairs than
     *  the device offered (clamped, counted, contained). */
    BadQueuePairs,
    /** Avail ring re-publishes a head whose chain the device still
     *  owns (it has not come back on the used ring). Last, so the
     *  older kinds keep the numbers flight records carry. */
    HeadInFlight,
    kCount,
};

constexpr std::size_t guestFaultKinds =
    std::size_t(GuestFaultKind::kCount);

/** Stable snake_case name, used as the metric-name suffix. */
constexpr const char *
guestFaultName(GuestFaultKind k)
{
    switch (k) {
      case GuestFaultKind::BadQueueIndex:
        return "bad_queue_index";
      case GuestFaultKind::BadMsiVector:
        return "bad_msi_vector";
      case GuestFaultKind::BadFeatureWrite:
        return "bad_feature_write";
      case GuestFaultKind::BadConfigAccess:
        return "bad_config_access";
      case GuestFaultKind::BadRingAddress:
        return "bad_ring_address";
      case GuestFaultKind::AvailIdxJump:
        return "avail_idx_jump";
      case GuestFaultKind::DescIndexRange:
        return "desc_index_range";
      case GuestFaultKind::DescLoop:
        return "desc_loop";
      case GuestFaultKind::DescAddrRange:
        return "desc_addr_range";
      case GuestFaultKind::DescLenZero:
        return "desc_len_zero";
      case GuestFaultKind::DescLenOversized:
        return "desc_len_oversized";
      case GuestFaultKind::DescWriteOrder:
        return "desc_write_order";
      case GuestFaultKind::IndirectMalformed:
        return "indirect_malformed";
      case GuestFaultKind::DoorbellStorm:
        return "doorbell_storm";
      case GuestFaultKind::BadQueuePairs:
        return "bad_queue_pairs";
      case GuestFaultKind::HeadInFlight:
        return "head_in_flight";
      default:
        return "unknown";
    }
}

} // namespace fault
} // namespace bmhive

#endif // BMHIVE_FAULT_GUEST_FAULT_HH
