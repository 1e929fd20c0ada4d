/**
 * @file
 * Guest virtio-blk driver: read/write/flush requests built as
 * [header (device-reads)] + [data segments] + [status byte
 * (device-writes)] chains, completion callbacks on MSI. The
 * firmware boot path (boot-over-virtio-blk, paper section 3.2) and
 * the fio workload both drive this driver.
 *
 * With VIRTIO_BLK_F_MQ negotiated the driver uses every submission
 * queue the device exposes, blk-mq style: the issuing vCPU selects
 * the queue (vCPU index modulo queue count), so I/O from different
 * vCPUs never contends on one ring, and each queue has its own MSI
 * vector. Request slots are shared across queues; each remembers
 * the queue it was submitted on so retries stay on it.
 */

#ifndef BMHIVE_GUEST_BLK_DRIVER_HH
#define BMHIVE_GUEST_BLK_DRIVER_HH

#include <functional>

#include "base/stats.hh"
#include "guest/virtio_driver.hh"
#include "virtio/virtio_blk.hh"

namespace bmhive {
namespace guest {

class BlkDriver : public VirtioDriver
{
  public:
    /** status, guest-visible data address (reads), request tick. */
    using IoCallback =
        std::function<void(std::uint8_t status, Addr data)>;

    BlkDriver(GuestOs &os, int slot);

    /** Initialize and size the request arena. */
    void start(std::uint16_t queue_size = 256,
               Bytes max_io = 128 * KiB);

    /** Device capacity in 512-byte sectors (from device config). */
    std::uint64_t capacitySectors();

    /**
     * Issue a read of @p len bytes at @p sector. Data lands in a
     * driver-owned bounce buffer whose address is passed to @p cb.
     * @param cpu_ctx  vCPU issuing the request
     * @return false if the ring or arena is exhausted.
     */
    bool read(std::uint64_t sector, Bytes len,
              hw::CpuExecutor &cpu_ctx, IoCallback cb);

    /**
     * Issue a write of @p len bytes at @p sector. If @p data is
     * non-null it is copied into the bounce buffer first.
     */
    bool write(std::uint64_t sector, Bytes len,
               const std::vector<std::uint8_t> *data,
               hw::CpuExecutor &cpu_ctx, IoCallback cb);

    std::uint64_t completed() const { return done_.value(); }
    std::uint64_t errors() const { return errors_.value(); }
    std::uint64_t resets() const { return resets_.value(); }

    /** Submission queues in use after negotiation. */
    unsigned activeQueues() const { return activeQueues_; }

    /**
     * T10-DIF protection: writes carry per-sector tags after the
     * payload, reads are verified on completion, and a failed
     * request is resubmitted (bounded) before its error reaches
     * the caller. Set before issuing I/O; must match the backend.
     */
    void setIntegrity(bool on) { integrity_ = on; }

  private:
    struct Slot
    {
        Addr hdr;    ///< 16-byte request header
        Addr data;   ///< bounce buffer (max_io bytes + DIF tags)
        Addr status; ///< 1-byte status
        IoCallback cb;
        /** Request shape, kept for integrity resubmission. */
        std::uint32_t type = 0;
        std::uint64_t sector = 0;
        Bytes len = 0;
        unsigned retries = 0;
        unsigned q = 0; ///< submission queue this request rides
    };

    /** Integrity resubmissions before the error reaches the
     *  caller; each resubmit re-DMAs from the pristine bounce
     *  buffer (writes) or re-fetches from storage (reads). */
    static constexpr unsigned maxIntegrityRetries = 2;

    /** Sentinel written to the status byte before every submit: a
     *  completion that still carries it means the device never
     *  wrote status, so it must be treated as an I/O error rather
     *  than a stale VIRTIO_BLK_S_OK. No real status uses 0xFF. */
    static constexpr std::uint8_t statusUnwritten = 0xFF;

    bool submitIo(std::uint32_t type, std::uint64_t sector,
                  Bytes len, const std::vector<std::uint8_t> *data,
                  hw::CpuExecutor &cpu_ctx, IoCallback cb);
    void completionInterrupt(unsigned q);
    /** Re-queue the request parked in @p slot (on its queue). */
    bool resubmit(std::uint16_t slot);
    /** blk-mq map: the issuing vCPU picks the queue. */
    unsigned queueForCpu(const hw::CpuExecutor &cpu_ctx) const;

    /**
     * DEVICE_NEEDS_RESET recovery: fail every outstanding request
     * with VIRTIO_BLK_S_IOERR (each callback fires exactly once)
     * and bring the device back up through the full virtio init
     * dance on fresh rings. The bounce arenas are reused.
     */
    void resetAndReinit();

    std::vector<Slot> slots_;
    std::vector<std::uint16_t> freeSlots_;
    unsigned activeQueues_ = 1;
    Bytes maxIo_ = 0;
    std::uint64_t wanted_ = 0;
    std::uint16_t queueSize_ = 0;
    Counter done_;
    Counter errors_;
    Counter resets_;
    bool integrity_ = false;
};

} // namespace guest
} // namespace bmhive

#endif // BMHIVE_GUEST_BLK_DRIVER_HH
