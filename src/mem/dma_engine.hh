/**
 * @file
 * DmaEngine: bandwidth- and latency-modelled copies between two
 * GuestMemory instances (or within one).
 *
 * IO-Bond's internal DMA engine moves descriptor tables and data
 * buffers between the compute board's memory and the base board's
 * memory at ~50 Gbps (paper section 3.4.3). The engine serializes
 * transfers: a copy issued while another is in flight queues behind
 * it, which is what bounds a bm-guest to 50 Gbps total.
 */

#ifndef BMHIVE_MEM_DMA_ENGINE_HH
#define BMHIVE_MEM_DMA_ENGINE_HH

#include <deque>
#include <functional>
#include <string>
#include <vector>

#include "base/stats.hh"
#include "base/units.hh"
#include "mem/guest_memory.hh"
#include "obs/flight_recorder.hh"
#include "sim/sim_object.hh"

namespace bmhive {

/**
 * Event-driven DMA engine. Each transfer completes after
 * startup latency + size / bandwidth; transfers are FIFO-serialized
 * on the engine.
 *
 * A transfer is one or more scatter-gather segments moved as a
 * unit: one startup cost, one completion, bandwidth charged on the
 * summed length. Submissions made from inside a completion
 * callback (including the error handler) are well-defined: they
 * queue behind whatever is already queued and never start until
 * the completing transfer's callbacks have fully unwound.
 */
class DmaEngine : public SimObject
{
  public:
    using Callback = std::function<void()>;

    /**
     * One scatter-gather segment. @c src may be null for an
     * account-only segment: its length is charged against the
     * engine's bandwidth without touching memory (ring metadata
     * whose bytes are modelled elsewhere).
     */
    struct CopySeg
    {
        const GuestMemory *src = nullptr;
        Addr srcAddr = 0;
        GuestMemory *dst = nullptr;
        Addr dstAddr = 0;
        Bytes len = 0;
    };

    /**
     * @param bandwidth  sustained copy bandwidth
     * @param startup    fixed per-transfer setup latency
     */
    DmaEngine(Simulation &sim, std::string name, Bandwidth bandwidth,
              Tick startup = 0);
    ~DmaEngine() override;

    /**
     * Copy @p len bytes from @p src_addr in @p src to @p dst_addr in
     * @p dst. @p done runs when the data is visible at the
     * destination.
     */
    void copy(const GuestMemory &src, Addr src_addr, GuestMemory &dst,
              Addr dst_addr, Bytes len, Callback done);

    /**
     * Model-only transfer: accounts time for @p len bytes without
     * touching memory (e.g. payload already represented elsewhere).
     */
    void accountOnly(Bytes len, Callback done);

    /**
     * Scatter-gather transfer: move every segment as one engine
     * transfer — one startup cost, bandwidth charged on the summed
     * length, one completion callback when all segments have
     * landed. An injected fault (fail/corrupt) applies to the
     * whole transfer, matching real descriptors that complete or
     * abort as a unit.
     */
    void copyv(std::vector<CopySeg> segs, Callback done);

    /**
     * Run @p done once every transfer queued or in flight now has
     * completed (landed, dropped or escalated), or at once if the
     * engine is idle. A fence, not a transfer: it takes no engine
     * time and no counter or flight record sees it.
     */
    void fence(Callback done);

    Bandwidth bandwidth() const { return bandwidth_; }
    bool busy() const { return busy_; }
    std::size_t queued() const { return queue_.size(); }

    /** Total bytes moved since construction. */
    std::uint64_t bytesMoved() const { return bytesMoved_.value(); }
    /** Total transfers completed. */
    std::uint64_t transfers() const { return transfers_.value(); }
    /** Total scatter-gather segments carried by those transfers. */
    std::uint64_t batchedSegments() const
    {
        return batchedSegments_.value();
    }

    /**
     * Called when an injected DmaFail drops a transfer, after the
     * (data-less) completion ran. The owner decides what a failed
     * internal transfer means (IO-Bond fails the active function).
     */
    void setErrorHandler(Callback h) { errorHandler_ = std::move(h); }

    /**
     * PCIe ECRC-style end-to-end protection: every data transfer is
     * checked before it lands, modelled by its outcome (a transfer
     * the injected bit rot touched mismatches). A mismatch is
     * never delivered — the transfer retries (link-level
     * replay re-reads the clean source), and after ecrcMaxRetries
     * consecutive mismatches the integrity handler fires so the
     * owner can escalate (IO-Bond resets the active function).
     */
    void setIntegrity(bool on) { integrity_ = on; }

    /** Called after a transfer exhausts its ECRC retries (the
     *  data-less completion has run, like the DmaFail path). */
    void setIntegrityHandler(Callback h)
    {
        integrityHandler_ = std::move(h);
    }

    std::uint64_t ecrcDetected() const
    {
        return ecrcDetected_.value();
    }
    std::uint64_t ecrcHealed() const { return ecrcHealed_.value(); }
    std::uint64_t ecrcEscalations() const
    {
        return ecrcEscalations_.value();
    }

    /** Injected faults consumed so far (corruptions + failures). */
    std::uint64_t faultsInjected() const
    {
        return faultInjected_.value();
    }

    /**
     * True iff the completion currently unwinding (or the most
     * recent one) actually landed its bytes at the destination.
     * False for DmaFail drops and exhausted-ECRC escalations, whose
     * completion callbacks run data-less: an owner that publishes
     * shared state from @c done must check this first, or it hands
     * downstream consumers a destination that was never written.
     */
    bool lastDelivered() const { return lastDelivered_; }

    /** Attach the owning guest's flight recorder: every transfer
     *  records CopyvSubmit/CopyvComplete (a=segs, b=bytes). */
    void setFlightRecorder(obs::FlightRecorder *fr) { flight_ = fr; }

  private:
    struct Transfer
    {
        std::vector<CopySeg> segs;
        Bytes len = 0; ///< summed over segs
        Callback done;
        /** ECRC replay state: attempts burned and when the first
         *  mismatch was seen (for the healed-retry latency). */
        unsigned retries = 0;
        Tick firstDetect = 0;
    };

    /** Queue a transfer; starts it unless serialized behind
     *  in-flight work or a completion still unwinding. */
    void enqueue(Transfer t);
    /** Start the transfer at the queue head. */
    void startNext();
    /** Finish the in-flight transfer. */
    void complete();
    /** Fault hook: arm corruption/failure budgets. */
    bool injectFault(const fault::FaultSpec &spec);

    Bandwidth bandwidth_;
    Tick startup_;
    std::deque<Transfer> queue_;
    bool busy_ = false;
    /** A completion is unwinding: submissions from its callbacks
     *  must queue, not start, so the error handler always observes
     *  the failed transfer before anything new begins. */
    bool inCompletion_ = false;
    /** Injected-fault budgets: the next N data transfers are
     *  corrupted / dropped. Account-only transfers (pure ring
     *  bookkeeping) are never faulted. */
    std::uint64_t corruptBudget_ = 0;
    std::uint64_t failBudget_ = 0;
    Callback errorHandler_;
    Callback integrityHandler_;
    bool integrity_ = false;
    /** Whether the unwinding completion delivered its data. */
    bool lastDelivered_ = true;
    /** Consecutive mismatches tolerated before escalation. */
    static constexpr unsigned ecrcMaxRetries = 2;
    obs::FlightRecorder *flight_ = nullptr;
    /** Registry-backed so exports and accessors read one cell. */
    Counter &bytesMoved_;
    Counter &transfers_;
    Counter &batchedSegments_;
    Counter &faultInjected_;
    Counter &ecrcChecked_;
    Counter &ecrcDetected_;
    Counter &ecrcHealed_;
    Counter &ecrcEscalations_;
    LatencyRecorder &retryLatency_;
    Gauge &queueDepth_;
    Histogram &batchSegs_;
    EventFunctionWrapper completeEvent_;
};

} // namespace bmhive

#endif // BMHIVE_MEM_DMA_ENGINE_HH
