/**
 * @file
 * IO-Bond: the FPGA bridge between a compute board and the base
 * board (paper section 3.4) — the paper's core hardware
 * contribution.
 *
 * Toward the compute board it emulates virtio PCI functions
 * (config space, BAR0, notification doorbell, MSI). Toward the
 * base board it maintains one *shadow vring* per guest virtqueue
 * in base memory plus mailbox and head/tail registers the
 * bm-hypervisor polls. An internal DMA engine (~50 Gbps) shuttles
 * descriptors and data between the two memories, which do not
 * share an address space.
 *
 * Tx/Rx workflow (paper Fig. 6):
 *   1. guest writes buffers + avail ring in its own memory
 *   2. guest writes the virtio notification register (0.8 us)
 *   3. IO-Bond fetches desc/avail updates via DMA
 *   4. IO-Bond copies device-readable payloads into shadow buffers
 *   5. IO-Bond publishes the chain on the shadow vring and bumps
 *      its head register (0.8 us mailbox hop)
 *   6. bm-hypervisor's poll thread pops the shadow chain, executes
 *      the I/O, pushes a used element, writes the tail register
 *   7. IO-Bond DMAs device-written data + the used element back to
 *      guest memory and raises an MSI toward the guest
 */

#ifndef BMHIVE_IOBOND_IOBOND_HH
#define BMHIVE_IOBOND_IOBOND_HH

#include <array>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "base/paper_constants.hh"
#include "base/stats.hh"
#include "base/token_bucket.hh"
#include "fault/guest_fault.hh"
#include "hw/compute_board.hh"
#include "mem/dma_engine.hh"
#include "mem/pool_allocator.hh"
#include "obs/flight_recorder.hh"
#include "obs/request_tracer.hh"
#include "virtio/virtio_pci.hh"
#include "virtio/virtqueue.hh"

namespace bmhive {
namespace iobond {

class IoBond;

/** Timing/sizing parameters of one IO-Bond instance. */
struct IoBondParams
{
    /** Cost of one guest PCI access to the front-end. */
    Tick pciAccess = paper::ioBondPciAccess;
    /** The second hop: front-end to the mailbox registers. */
    Tick mailboxAccess = paper::ioBondMailboxAccess;
    /** Internal DMA engine throughput. */
    Bandwidth dmaBandwidth = Bandwidth::gbps(paper::ioBondDmaGbps);
    /** Shadow buffer arena carved from base memory. */
    Bytes shadowArenaBytes = 16 * MiB;

    /**
     * Doorbell-storm throttle, per virtqueue: a hostile guest
     * hammering the notify register must not monopolize the
     * FPGA's mailbox path. ~2M doorbells/s is an order of
     * magnitude above what an honest driver generates through a
     * 0.8 us PCI access; the burst absorbs legitimate batches.
     */
    double doorbellRate = 2.0e6;
    double doorbellBurst = 4096;

    /**
     * Upper bound on the payload bytes one chain may pin in the
     * shadow arena. A guest describing absurd buffers gets a
     * contained DescLenOversized fault instead of starving its
     * neighbours' arena allocations.
     */
    Bytes maxChainBytes = 4 * MiB;

    /**
     * End-to-end integrity: ECRC verification on every internal
     * DMA transfer plus a periodic scrubber that audits the shadow
     * vring metadata of every in-flight chain against the content
     * recorded at mirror time and repairs silent flips in place.
     */
    bool integrity = true;
    /** Scrub cadence while chains are in flight. */
    Tick scrubPeriod = usToTicks(50);
    /** Consecutive dirty scrub passes on one queue before the
     *  function is reset (containment-ladder rung two). */
    unsigned scrubEscalateAfter = 2;

    /** FPGA timing (default). ASIC variant for the section 6
     *  ablation: both hops drop to 0.2 us. */
    static IoBondParams
    asic()
    {
        IoBondParams p;
        p.pciAccess = paper::ioBondAsicPciAccess;
        p.mailboxAccess = paper::ioBondAsicPciAccess;
        return p;
    }
};

/**
 * One emulated virtio PCI function on the compute-board bus.
 */
class IoBondFunction : public virtio::VirtioPciDevice
{
  public:
    IoBondFunction(Simulation &sim, std::string name, IoBond &owner,
                   unsigned index, virtio::DeviceType type,
                   unsigned num_queues, std::uint64_t features);

    /** Device-specific config contents (MAC, capacity, ...). */
    void setDeviceCfgBytes(std::vector<std::uint8_t> bytes);

    unsigned index() const { return index_; }

    /**
     * Queue pairs the guest driver has committed to via the
     * config-space set-queue-pairs write (net) — 1 until the
     * driver raises it, never above what the device offered.
     * Blk reports its fixed submission-queue count.
     */
    unsigned activeQueuePairs() const { return currPairs_; }
    /** Queue pairs (net) / submission queues (blk) offered. */
    unsigned maxQueuePairs() const { return maxPairs_; }

  protected:
    std::uint32_t deviceCfgRead(Addr offset, unsigned size) override;
    void deviceCfgWrite(Addr offset, std::uint32_t value,
                        unsigned size) override;
    void onQueueNotify(unsigned q) override;
    void onDriverOk() override;
    void onReset() override;

  private:
    friend class IoBond;

    IoBond &owner_;
    unsigned index_;
    std::vector<std::uint8_t> devCfg_;
    unsigned maxPairs_ = 1;  ///< pairs/queues offered
    unsigned currPairs_ = 1; ///< pairs the driver committed to
};

class IoBond : public SimObject
{
  public:
    IoBond(Simulation &sim, std::string name, hw::ComputeBoard &board,
           GuestMemory &base_memory, Addr shadow_region_base,
           IoBondParams params = {});
    ~IoBond() override;

    /** Add a virtio-net function at @p guest_slot on the board.
     *  @p queue_pairs > 1 offers VIRTIO_NET_F_MQ with that many
     *  rx/tx pairs (queue layout rx0,tx0,rx1,tx1,...). */
    IoBondFunction &addNetFunction(int guest_slot,
                                   std::uint64_t mac,
                                   unsigned queue_pairs = 1);
    /** Add a virtio-blk function at @p guest_slot on the board.
     *  @p num_queues > 1 offers VIRTIO_BLK_F_MQ with that many
     *  submission queues. */
    IoBondFunction &addBlkFunction(int guest_slot,
                                   std::uint64_t capacity_sectors,
                                   unsigned num_queues = 1);
    /** Add a virtio-console function (the paper's guest console;
     *  section 3.3: new devices need only a new PCI function — the
     *  shadow-vring machinery is reused untouched). */
    IoBondFunction &addConsoleFunction(int guest_slot);

    unsigned numFunctions() const
    {
        return unsigned(functions_.size());
    }
    IoBondFunction &function(unsigned i);

    // --- Backend (bm-hypervisor) interface ---

    /** True once the guest driver enabled the queue. */
    bool shadowReady(unsigned fn, unsigned q) const;

    /** Layout of the shadow vring in base memory. */
    virtio::VringLayout shadowLayout(unsigned fn, unsigned q) const;

    /**
     * The backend pushed used elements on the shadow ring and
     * writes the tail register: sync completions back to the
     * guest. The 0.8 us register-write cost is the caller's.
     */
    void backendCompleted(unsigned fn, unsigned q);

    /**
     * Re-adopt shadow-vring state after a backend crash: drain
     * completions that already landed on the shadow used ring,
     * then republish every still-inflight chain (in original
     * submission order) so a freshly attached backend re-executes
     * exactly the work the dead one had picked up but not
     * finished. Returns the number of chains republished.
     */
    unsigned recoverQueue(unsigned fn, unsigned q);

    /**
     * Invoked (with the function index) whenever a guest driver
     * finishes feature negotiation and the function's shadow
     * vrings become ready — the hook the hypervisor uses to
     * re-attach a function after DEVICE_NEEDS_RESET recovery.
     */
    void setReadyCallback(std::function<void(unsigned)> cb)
    {
        readyCb_ = std::move(cb);
    }

    /**
     * Invoked with (fn, q) when an accepted doorbell (or a resync
     * sweep) publishes guest work toward the backend — the mailbox
     * write a shared poll scheduler uses to wake the sleeping core
     * of exactly the unit polling that queue. Quarantined, dropped,
     * and storm-throttled doorbells post no wake: a contained guest
     * cannot spin a core back up.
     */
    void setQueueWake(std::function<void(unsigned, unsigned)> hook)
    {
        queueWake_ = std::move(hook);
    }

    /**
     * Invoked (with function index and the committed pair count)
     * when a guest driver performs the config-space
     * set-queue-pairs write — the hypervisor rebuilds its RSS
     * indirection and per-queue registrations from here.
     */
    void setQueuePairsCallback(
        std::function<void(unsigned, unsigned)> cb)
    {
        queuePairsCb_ = std::move(cb);
    }

    /**
     * Unrecoverable function error: drop its in-flight chains,
     * mark the shadow vrings not-ready, and raise
     * DEVICE_NEEDS_RESET toward the guest driver.
     */
    void failFunction(unsigned fn);

    /** The guest requested a device reset while chains were in
     *  flight; the backend acknowledges via this. */
    GuestMemory &baseMemory() { return *baseMem_; }
    DmaEngine &dma() { return dma_; }
    const IoBondParams &params() const { return params_; }

    // --- Live migration (drain / rebase) ---

    /**
     * Drain: doorbells are deferred at the bridge (counted in
     * .drain.deferred_doorbells) and resync sweeps stand down, so
     * no *new* guest work enters the shadow path while the bond's
     * base-memory side is being re-homed. Work already accepted
     * keeps flowing; queued-but-deferred work is swept up when the
     * drain lifts. The guest itself never stops running.
     */
    void setDrained(bool on);
    bool drained() const { return drained_; }

    /**
     * Invalidate any armed scrub pass. Called when the guest
     * re-homes to another event partition (migration adoption):
     * the pending one-shot stays behind in the old partition's
     * queue and must die there instead of racing the new home.
     */
    void retireScrub();

    /** No transfer in flight and none queued — the settle
     *  condition a migration waits for before snapshotting. */
    bool dmaIdle() const
    {
        return !dma_.busy() && dma_.queued() == 0;
    }

    /** Sweep completions the (possibly dead) backend already
     *  pushed on every shadow used ring back to the guest. */
    void drainCompletions();

    /** Published-but-unfinished chains across all queues. */
    std::size_t inflightChains() const;

    /**
     * Re-home the bond's base-memory side onto @p new_base at
     * @p region_base — the heart of live migration. The bond (it
     * rides the compute board) keeps its guest-facing state;
     * shadow rings and the buffer arena are rebuilt in the new
     * memory and every published-but-unfinished chain is
     * re-mirrored from guest memory (descriptors are device-owned
     * until used, so the guest cannot have touched them) in
     * original submission order — the same replay recoverQueue
     * performs after a backend crash, aimed at a different server.
     * Requires a drained bond and an idle DMA engine; @p done
     * fires once the replay DMA has landed and the shadow avail
     * windows are published for the target's backend.
     */
    void rebase(GuestMemory &new_base, Addr region_base,
                std::function<void()> done);

    std::uint64_t drainDeferredDoorbells() const
    {
        return drainDeferred_.value();
    }

    /**
     * Stamp request spans for chains of (fn, q): GuestPost at the
     * doorbell, ShadowSync when the chain is published on the
     * shadow vring, CompleteDma when the used element lands back
     * in guest memory, GuestIrq when the MSI fires. Trace only
     * guest-initiated directions (net tx, blk); rx buffer
     * turnaround would drown request latencies.
     */
    void setQueueTracer(unsigned fn, unsigned q,
                        obs::RequestTracer *t);

    /**
     * Attach the owning guest's flight recorder: the bridge records
     * every doorbell outcome, avail-sync burst, used publish, MSI,
     * fault, and reset, and forwards the recorder to the internal
     * DMA engine for copyv submit/complete events.
     */
    void setFlightRecorder(obs::FlightRecorder *fr)
    {
        flight_ = fr;
        dma_.setFlightRecorder(fr);
    }

    /**
     * Invoked (with the function index) when failFunction raises
     * DEVICE_NEEDS_RESET — the anomaly trigger BmHiveServer turns
     * into a flight-recorder dump. Driver-initiated resets
     * (bring-up, renegotiation) do not fire it.
     */
    void setResetCallback(std::function<void(unsigned)> cb)
    {
        resetCb_ = std::move(cb);
    }

    std::uint64_t notifications() const { return notifies_.value(); }
    std::uint64_t chainsForwarded() const { return chains_.value(); }
    std::uint64_t completionsReturned() const
    {
        return completions_.value();
    }
    std::uint64_t malformedChains() const { return bad_.value(); }

    // --- Adversarial-tenant containment ---

    /**
     * Observe classified guest faults (the containment state
     * machine in BmHiveServer scores and escalates them).
     */
    using GuestFaultCallback =
        std::function<void(fault::GuestFaultKind)>;
    void setGuestFaultCallback(GuestFaultCallback cb)
    {
        guestFaultCb_ = std::move(cb);
    }

    /**
     * Quarantine: every guest doorbell is swallowed at the bridge
     * (counted in .guest.quarantine_drops) until released. Shadow
     * state and in-flight work are untouched — release plus a
     * function reset restores service.
     */
    void setQuarantined(bool on);
    bool quarantined() const { return quarantined_; }

    /** Per-kind and total contained-guest-fault counts. */
    std::uint64_t
    guestFaults(fault::GuestFaultKind k) const
    {
        return guestFaultCounters_[std::size_t(k)]->value();
    }
    std::uint64_t guestFaultsTotal() const
    {
        return guestFaultsTotal_.value();
    }
    std::uint64_t quarantineDrops() const
    {
        return quarantineDrops_.value();
    }

    // --- End-to-end integrity ---

    /**
     * Enable/disable the integrity layer at runtime: ECRC on the
     * internal DMA engine plus the shadow-metadata scrubber. Off,
     * an injected corruption is delivered silently (the pre-PR-8
     * behaviour benches compare against with --integrity=off).
     */
    void setIntegrity(bool on);
    bool integrityEnabled() const { return integrity_; }

    /**
     * Invoked (with the function index) whenever the integrity
     * ladder escalates to a queue reset — ECRC retries exhausted or
     * repeated scrub repairs on one queue. BmHiveServer scores
     * these per server; a persistent pattern marks the whole
     * server unhealthy and triggers a proactive migration.
     */
    void setIntegrityEscalationCallback(std::function<void(unsigned)> cb)
    {
        integrityEscalationCb_ = std::move(cb);
    }

    std::uint64_t scrubRepairs() const
    {
        return scrubRepairs_.value();
    }
    std::uint64_t scrubRuns() const { return scrubRuns_.value(); }
    std::uint64_t integrityQueueResets() const
    {
        return queueResets_.value();
    }
    std::uint64_t metaFaultsInjected() const
    {
        return metaInjected_.value();
    }

  private:
    friend class IoBondFunction;

    struct ChainShadow
    {
        /** (guest addr, shadow addr, len, device-writes). */
        struct Seg
        {
            Addr guestAddr;
            Addr shadowAddr;
            Bytes len;
            bool write;
        };
        std::vector<Seg> segs;
        Addr bufBlock = PoolAllocator::nullAddr;
        Addr indirectBlock = PoolAllocator::nullAddr;
        /** Direct shadow descriptor ids written at mirror time
         *  (empty for indirect chains) — the scrubber re-derives
         *  the expected descriptor bytes from segs + path, never
         *  from guest memory a hostile tenant could rewrite. */
        std::vector<std::uint16_t> path;
        /** Submission order, for crash-recovery replay. */
        std::uint64_t seq = 0;
        /** Absolute avail cursor this chain was published at, once
         *  its publish DMA landed. Chains complete out of order,
         *  so the scrubber can only audit the avail slot through
         *  this recorded position — never by pairing sorted
         *  inflight entries with ring positions. */
        std::uint16_t availPos = 0;
        bool published = false;
    };

    /** One completed chain travelling back to the guest as part of
     *  a batched writeback. */
    struct ReturnedChain
    {
        virtio::VringUsedElem elem;
        Addr bufBlock = PoolAllocator::nullAddr;
        Addr indirectBlock = PoolAllocator::nullAddr;
    };

    struct ShadowQueue
    {
        bool ready = false;
        virtio::VringLayout guestLayout;
        virtio::VringLayout shadowLayout;
        std::uint16_t syncedAvail = 0; ///< guest entries mirrored
        std::uint16_t shadowAvail = 0; ///< published on shadow ring
        std::uint16_t syncedUsed = 0;  ///< shadow used returned
        std::uint16_t guestUsed = 0;   ///< published to the guest
        bool irqPending = false;       ///< batch needs an MSI
        Tick lastDoorbell = 0;         ///< latest guest notify
        /** A post-throttle resync sweep is already scheduled. */
        bool stormResync = false;
        /** Shadow-ring block, allocated once per queue at the
         *  device maximum so renegotiation cannot exhaust the
         *  bump arena. */
        Addr ringBlock = 0;
        bool ringAllocated = false;
        /** Bumped on reset/recovery; DMA completions scheduled
         *  under an older epoch must not touch the rings. */
        std::uint64_t epoch = 0;
        std::uint64_t nextSeq = 0; ///< next ChainShadow::seq
        /** Consecutive scrub passes that found (and repaired)
         *  corrupted shadow metadata on this queue. */
        unsigned scrubStrikes = 0;
        obs::RequestTracer *reqTracer = nullptr;
        std::map<std::uint16_t, ChainShadow> inflight;
    };

    /** Front-end hooks. */
    void guestNotified(IoBondFunction &fn, unsigned q);
    void driverReady(IoBondFunction &fn);
    void functionReset(IoBondFunction &fn);
    /** Guest committed a queue-pair count (set-queue-pairs). */
    void queuePairsSet(IoBondFunction &fn, unsigned pairs);

    /** Mirror new avail entries of (fn, q) into the shadow ring;
     *  returns how many chains were picked up. The whole burst —
     *  payload copies and ring metadata — travels as one
     *  scatter-gather DMA transfer and publishes together. */
    unsigned syncAvail(unsigned fn, unsigned q);
    /** Mirror one chain's descriptors into shadow memory and
     *  append its readable payload segments to the burst's
     *  scatter-gather list; false if malformed or out of arena. */
    bool mirrorChain(unsigned fn, unsigned q, std::uint16_t head,
                     std::vector<DmaEngine::CopySeg> &segs,
                     Bytes &meta);

    /** Fault hook: link flaps, dropped doorbells, function death. */
    bool injectFault(const fault::FaultSpec &spec);
    /** DMA engine dropped a transfer: fail the active function. */
    void onDmaError();
    /** DMA ECRC retries exhausted: reset the active function. */
    void onIntegrityEscalation();
    /** Re-scan every ready queue (post-flap / resync sweep). */
    void rescanReady();

    /** Flip the len field of one shadow descriptor of @p cs (the
     *  DmaCorruptMeta payload: metadata rot the scrubber must
     *  catch, distinct from payload corruption). */
    void corruptShadowMeta(ShadowQueue &sq, std::uint16_t head,
                           const ChainShadow &cs);
    /** Arm the next scrub pass (lazily: only while chains are in
     *  flight, so an idle bond schedules nothing). */
    void scheduleScrub();
    /** One scrub pass over every ready queue. */
    void scrubPass();
    /** Audit one queue's in-flight chains + avail window; returns
     *  the number of fields repaired. */
    unsigned scrubQueue(unsigned fn, unsigned q);

    /** Count, flight-record and escalate one contained guest
     *  fault. */
    void guestFault(fault::GuestFaultKind k);

    hw::ComputeBoard &board_;
    /** Pointer, not reference: rebase() re-homes the bond onto a
     *  different base server's memory. */
    GuestMemory *baseMem_;
    IoBondParams params_;
    DmaEngine dma_;
    PoolAllocator pool_;
    BumpAllocator shadowRings_;
    std::vector<std::unique_ptr<IoBondFunction>> functions_;
    /** [fn][q] shadow state. */
    std::vector<std::vector<ShadowQueue>> shadow_;
    /**
     * Doorbell-storm throttle, one bucket per *function* (armed at
     * driver-ready): the budget covers the sum of a function's
     * queues, so a multi-queue guest cannot multiply its doorbell
     * allowance by spreading the storm across queue selectors.
     */
    std::vector<TokenBucket> fnDoorbells_;
    std::function<void(unsigned)> readyCb_;
    std::function<void(unsigned, unsigned)> queueWake_;
    std::function<void(unsigned, unsigned)> queuePairsCb_;
    std::function<void(unsigned)> resetCb_;
    obs::FlightRecorder *flight_ = nullptr;
    /** Injected PCIe link outage: doorbells are lost until then. */
    Tick linkDownUntil_ = 0;
    /** Injected doorbell-loss budget. */
    std::uint64_t dropDoorbells_ = 0;
    /** Injected shadow-metadata corruption budget (applied to the
     *  next mirrored chains when no chain is live at delivery). */
    std::uint64_t metaCorruptBudget_ = 0;
    bool integrity_ = true;
    bool scrubScheduled_ = false;
    /** Bumped by retireScrub(); armed passes from older epochs
     *  fire as no-ops in whatever queue still holds them. */
    std::uint64_t scrubEpoch_ = 0;
    std::function<void(unsigned)> integrityEscalationCb_;
    /** Function of the most recent guest/backend activity — the
     *  one a failed internal DMA transfer is attributed to. */
    int lastActiveFn_ = -1;
    /** Registry-backed: accessors and exports read the same cell. */
    Counter &notifies_;
    Counter &chains_;
    Counter &completions_;
    Counter &bad_;
    Counter &faultInjected_;
    Counter &faultRecovered_;
    Counter &droppedDoorbells_;
    Counter &drainDeferred_;
    /** One counter per GuestFaultKind (".guest.faults.<kind>"). */
    std::array<Counter *, fault::guestFaultKinds> guestFaultCounters_{};
    Counter &guestFaultsTotal_;
    Counter &quarantineDrops_;
    Counter &scrubRuns_;
    Counter &scrubChecked_;
    Counter &scrubRepairs_;
    Counter &metaInjected_;
    Counter &queueResets_;
    GuestFaultCallback guestFaultCb_;
    bool quarantined_ = false;
    bool drained_ = false;
};

} // namespace iobond
} // namespace bmhive

#endif // BMHIVE_IOBOND_IOBOND_HH
