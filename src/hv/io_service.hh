/**
 * @file
 * VirtioIoService: the user-space, poll-mode virtio backend (paper
 * section 3.4.2). One service instance runs per guest on a
 * dedicated base-board core, polling the guest's queues, pushing
 * network frames into the DPDK-style vSwitch, and executing block
 * I/O against the SPDK-style cloud storage.
 *
 * The same service implements both platforms' backends:
 *  - BM-Hive: queues are IO-Bond *shadow* vrings in base memory;
 *    each poll iteration pays the mailbox register read and each
 *    completion batch pays the tail-register write (0.8 us each).
 *  - KVM baseline: queues are the guest's own vrings (shared
 *    memory, vhost-user style); the service additionally performs
 *    the CPU data copies a software backend must do, and it
 *    suppresses guest doorbells while polling (NO_NOTIFY), which
 *    IO-Bond's hardware front-end cannot do.
 *
 * Multi-queue: the net role holds a vector of rx/tx queue pairs
 * and the blk role a vector of submission queues. Pair/queue 0 is
 * attached through the classic attachNet/attachBlk entry points;
 * further queues through attachNetPair/attachBlkQueue.
 *
 * The service runs no loop of its own: it owns scheduling units
 * (sched::Pollable) that a PollScheduler loop visits, and one drain
 * routine serves them all. The whole service is one unit (the PMD
 * of one bm-hypervisor or vhost process); a multi-queue guest under
 * the shared pool splits into one unit per net pair, per blk queue,
 * and the console, so one guest's queues can burn different poll
 * cores in parallel — the costs charge to the core actually doing
 * the work, which is what makes multi-queue PPS scale past a single
 * poller.
 */

#ifndef BMHIVE_HV_IO_SERVICE_HH
#define BMHIVE_HV_IO_SERVICE_HH

#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "base/paper_constants.hh"
#include "base/stats.hh"
#include "cloud/block_service.hh"
#include "cloud/rate_limiter.hh"
#include "cloud/vswitch.hh"
#include "hw/cpu_executor.hh"
#include "mem/guest_memory.hh"
#include "obs/request_tracer.hh"
#include "sched/pollable.hh"
#include "sim/sim_object.hh"
#include "virtio/virtqueue.hh"

namespace bmhive {
namespace hv {

/** Timing knobs distinguishing the two backend flavours. */
struct IoServiceParams
{
    /** Register read at the top of each poll (bm: mailbox). */
    Tick pollRegisterCost = 0;
    /** Register write per completion batch (bm: tail register). */
    Tick completionRegisterCost = 0;
    /** CPU cost to process one packet (parse + switch handoff). */
    Tick perPacketCost = paper::backendPerPacketCost;
    /** CPU copy cost per packet payload (vm backend only; the
     *  bm path is copied by IO-Bond's DMA engine instead). */
    Tick perPacketCopyCost = 0;
    /** CPU cost to submit/complete one block I/O. */
    Tick blkTouchCost = usToTicks(1.0);
    /** Extra host-side cost per block I/O (vm: the extra memory
     *  copies and the longer software path, section 4.3). */
    Tick blkExtraCost = 0;
    /** CPU copy rate for block payloads (0 = no copy; the bm path
     *  moves data with IO-Bond's DMA engine instead). */
    double blkCopyBytesPerSec = 0.0;
    /** Suppress guest doorbells while polling (vhost only). */
    bool suppressGuestNotify = false;
    /** Backend rx buffering (socket backlog analog), per queue. */
    std::size_t rxPendingMax = 4096;
    /**
     * Block-fabric request timeout: a request not completed within
     * this window is resubmitted with exponential backoff (each
     * attempt doubles the wait). 0 disables the timeout path.
     */
    Tick blkTimeout = msToTicks(10.0);
    /** Resubmissions before a request fails with IOERR. */
    unsigned blkMaxRetries = 4;
};

/**
 * Completion barrier: invoked after the service pushed used
 * elements so the platform can propagate them to the guest
 * (IO-Bond tail write, or a direct MSI for the vhost case).
 */
using CompletionBarrier = std::function<void()>;

class VirtioIoService : public SimObject
{
  public:
    VirtioIoService(Simulation &sim, std::string name,
                    hw::CpuExecutor &core, IoServiceParams params);

    /**
     * Attach the network role: device views of the guest's rx/tx
     * rings (queue pair 0) plus the vSwitch port this guest owns.
     * Drops any previously attached extra pairs.
     */
    void attachNet(GuestMemory &ring_mem,
                   const virtio::VringLayout &rx,
                   const virtio::VringLayout &tx,
                   CompletionBarrier rx_done, CompletionBarrier tx_done,
                   cloud::VSwitch &vswitch, cloud::PortId port,
                   cloud::DualRateLimiter limiter);

    /**
     * Attach one additional rx/tx queue pair (VIRTIO_NET_F_MQ).
     * attachNet must have attached pair 0 first; pairs may be
     * attached in any order after that.
     */
    void attachNetPair(unsigned pair,
                       const virtio::VringLayout &rx,
                       const virtio::VringLayout &tx,
                       CompletionBarrier rx_done,
                       CompletionBarrier tx_done);

    /**
     * Attach the console role: queue 0 carries host->guest input,
     * queue 1 guest->host output; output text reaches @p sink.
     */
    void attachConsole(GuestMemory &ring_mem,
                       const virtio::VringLayout &rx,
                       const virtio::VringLayout &tx,
                       CompletionBarrier rx_done,
                       CompletionBarrier tx_done,
                       std::function<void(const std::string &)>
                           sink);

    /** Queue text toward the guest console (host->guest). */
    void consoleInput(const std::string &text);

    /** Attach the storage role (submission queue 0). Drops any
     *  previously attached extra queues. */
    void attachBlk(GuestMemory &ring_mem,
                   const virtio::VringLayout &vq,
                   CompletionBarrier done, cloud::BlockService &svc,
                   cloud::Volume &vol,
                   cloud::DualRateLimiter limiter);

    /** Attach one additional blk submission queue
     *  (VIRTIO_BLK_F_MQ); attachBlk must have run first. */
    void attachBlkQueue(unsigned q, const virtio::VringLayout &vq,
                        CompletionBarrier done);

    /** Frames from the vSwitch destined to this guest (pair 0). */
    void enqueueRx(const cloud::Packet &pkt);
    /** RSS-steered delivery onto a specific rx queue pair. */
    void enqueueRx(const cloud::Packet &pkt, unsigned pair);

    /** Resize the rx backlog (socket-backlog analog). */
    void setRxBacklog(std::size_t n) { params_.rxPendingMax = n; }

    /** Per-packet processing cost (PMD burst mode amortizes it). */
    void setPerPacketCost(Tick t) { params_.perPacketCost = t; }

    /**
     * Run block completions on @p core instead of the main poll
     * core (the vm baseline uses a separate, preemptible
     * iothread; see paper section 2.1 on host I/O contention).
     */
    void setBlkCore(hw::CpuExecutor *core) { blkCore_ = core; }

    /** Accept work: the service's units may now be visited. */
    void start();

    /** What a scheduling unit polls: the whole service (every role
     *  and queue), or one net pair, one blk queue, or the console. */
    enum class UnitKind { Whole, NetPair, BlkQueue, Console };

    /** Scheduling unit for queue @p idx of @p kind, for the owner to
     *  register with a loop. */
    sched::Pollable &unit(UnitKind kind, unsigned idx = 0);

    /**
     * Work arrived for queue @p idx of @p kind (a guest doorbell,
     * vSwitch rx delivery, console input): wake whichever registered
     * unit polls it.
     */
    void wake(UnitKind kind, unsigned idx = 0);

    unsigned netPairCount() const
    {
        return unsigned(netPairs_.size());
    }
    unsigned blkQueueCount() const
    {
        return unsigned(blkQueues_.size());
    }

    /**
     * Adopt all attached roles, ring positions, limiter state, and
     * buffered traffic from @p old (which must be stopped). Used
     * by the Orthus-style live upgrade (paper section 6).
     */
    void adoptFrom(VirtioIoService &old);

    /** Block I/Os submitted but not yet completed. */
    std::uint64_t blkInflight() const { return blkInflight_; }
    /** Stop accepting work (guest powered off / destroyed). */
    void stop();

    /**
     * The poll core is preempted (bm-hypervisor stall fault): no
     * poll iteration runs until @p duration elapses. Stalls extend
     * monotonically; in-flight timers keep running, so a stall long
     * enough trips the block timeout path.
     */
    void stall(Tick duration);

    /**
     * The backend process died (bm-hypervisor crash fault): polling
     * stops and everything in flight is invalidated — late storage
     * completions carry a stale generation and never reach the
     * guest, so the respawned service can re-serve those requests
     * without double completion.
     */
    void markDead();

    bool alive() const { return running_; }

    std::uint64_t blkTimeouts() const { return blkTimeouts_.value(); }
    std::uint64_t blkRetries() const { return blkRetries_.value(); }
    std::uint64_t
    blkDupCompletions() const
    {
        return blkDupDone_.value();
    }
    std::uint64_t
    blkIoFailures() const
    {
        return blkFailures_.value();
    }
    /** Guest-authored LBA/length outside the volume (contained
     *  as VIRTIO_BLK_S_IOERR toward the guest). */
    std::uint64_t
    blkRangeErrors() const
    {
        return blkRangeErrors_.value();
    }

    /**
     * T10-DIF-style protection on the block path: expect tagged
     * writes from the guest (verified before persisting) and
     * return tagged reads, verified against fabric corruption with
     * a bounded resubmit through the sequence-tagged retry path.
     * Must match the guest driver's setting.
     */
    void setIntegrity(bool on) { blkIntegrity_ = on; }
    bool integrityEnabled() const { return blkIntegrity_; }

    /** DIF mismatches detected (either direction). */
    std::uint64_t difDetects() const { return difDetects_.value(); }
    /** Read attempts resubmitted after a DIF mismatch. */
    std::uint64_t difRetries() const { return difRetries_.value(); }
    /** Requests failed toward the guest on persistent mismatch. */
    std::uint64_t difFailures() const { return difFails_.value(); }

    std::uint64_t txPackets() const { return txPkts_.value(); }
    std::uint64_t rxPackets() const { return rxPkts_.value(); }
    std::uint64_t blkIos() const { return blkIos_.value(); }
    std::uint64_t rxDropped() const { return rxDropped_.value(); }

    /** Poll-loop utilization (DPDK telemetry style): iterations
     *  that found work vs. ran empty. */
    std::uint64_t pollsTotal() const { return pollsTotal_.value(); }
    std::uint64_t pollsBusy() const { return pollsBusy_.value(); }
    double
    pollBusyRatio() const
    {
        return pollsTotal_.value()
                   ? double(pollsBusy_.value()) /
                         double(pollsTotal_.value())
                   : 0.0;
    }

    /**
     * Stamp PollPickup/Service spans on guest tx packets. Keys are
     * @p key_base | chain head; the base carries the (fn, queue)
     * the platform glue knows and this service does not. Applies
     * to pair 0; per-pair bases via setNetTxKeyBase.
     */
    void
    setNetTxTracer(obs::RequestTracer *t, std::uint64_t key_base)
    {
        netTracer_ = t;
        if (!netPairs_.empty())
            netPairs_[0].txKeyBase = key_base;
    }

    /** Key base for pair @p k tx spans (multi-queue tracing). */
    void setNetTxKeyBase(unsigned pair, std::uint64_t key_base);

    /** Same for block requests (Service spans the storage trip). */
    void
    setBlkTracer(obs::RequestTracer *t, std::uint64_t key_base)
    {
        blkTracer_ = t;
        if (!blkQueues_.empty())
            blkQueues_[0].keyBase = key_base;
    }

    /** Key base for blk queue @p q spans (multi-queue tracing). */
    void setBlkKeyBase(unsigned q, std::uint64_t key_base);

    virtio::VirtQueueDevice *netTxQueue()
    {
        return netPairs_.empty() ? nullptr : netPairs_[0].tx.get();
    }
    virtio::VirtQueueDevice *netRxQueue()
    {
        return netPairs_.empty() ? nullptr : netPairs_[0].rx.get();
    }
    virtio::VirtQueueDevice *blkQueue()
    {
        return blkQueues_.empty() ? nullptr
                                  : blkQueues_[0].vq.get();
    }

  private:
    /** One rx/tx queue pair of the net role. */
    struct NetPair
    {
        std::unique_ptr<virtio::VirtQueueDevice> rx;
        std::unique_ptr<virtio::VirtQueueDevice> tx;
        CompletionBarrier rxDone;
        CompletionBarrier txDone;
        std::deque<cloud::Packet> rxPending;
        std::uint64_t txKeyBase = 0;
    };

    /** One blk submission queue. */
    struct BlkQueue
    {
        std::unique_ptr<virtio::VirtQueueDevice> vq;
        CompletionBarrier done;
        std::uint64_t keyBase = 0;
        /** Executor of the latest poll visit; completions charge
         *  it so per-queue work stays on the queue's core. */
        hw::CpuExecutor *core = nullptr;
    };

    /**
     * One guest block request, tracked from poll pickup until its
     * exactly-once completion toward the guest. Keyed by a sequence
     * tag; retries share the tag, so whichever attempt finishes
     * first completes the request and later arrivals are recognized
     * as duplicates and dropped.
     */
    struct PendingBlk
    {
        bool write = false;
        std::uint64_t lba = 0;
        Bytes len = 0;        ///< data segment (wire) length
        Bytes payloadLen = 0; ///< len minus DIF tags
        Addr dataAddr = 0;
        Addr statusAddr = 0;
        std::uint16_t head = 0;
        unsigned q = 0; ///< submission queue it arrived on
        unsigned attempt = 0;
    };

    /** One scheduling unit: the slice of this service a loop
     *  visits. */
    struct Unit final : sched::Pollable
    {
        Unit(VirtioIoService &s, UnitKind k, unsigned i)
            : svc(s), kind(k), idx(i)
        {}

        unsigned
        servicePoll(unsigned budget, hw::CpuExecutor &core) override
        {
            return svc.drain(*this, budget, core);
        }
        bool pollAlive() const override { return svc.running_; }
        Tick
        pollBlockedUntil() const override
        {
            return svc.stallUntil_;
        }

        /** Does this unit poll queue @p i of role @p k? */
        bool
        covers(UnitKind k, unsigned i) const
        {
            return kind == UnitKind::Whole || (kind == k && idx == i);
        }

        VirtioIoService &svc;
        const UnitKind kind;
        const unsigned idx;
    };

    /**
     * One visit of unit @p u: passes over every queue it covers
     * until the budget is spent or a full pass finds no work,
     * draining each queue as a batch — one used-ring publish, one
     * completion-register charge, and one completion barrier per
     * queue per drained pass, never per chain.
     */
    unsigned drain(const Unit &u, unsigned budget,
                   hw::CpuExecutor &core);
    unsigned pollNetTx(NetPair &np, unsigned max,
                       hw::CpuExecutor &core, bool shared);
    unsigned pollNetRx(NetPair &np, unsigned max,
                       hw::CpuExecutor &core);
    unsigned pollBlk(unsigned q, unsigned max, hw::CpuExecutor &core,
                     bool shared);
    unsigned pollConsole(unsigned max, hw::CpuExecutor &core);
    void submitBlkAttempt(std::uint64_t seq, Tick copy_cost);
    void onBlkServiceDone(std::uint64_t seq, std::uint64_t gen,
                          bool wire_corrupt);
    void onBlkTimeout(std::uint64_t seq, std::uint64_t gen,
                      unsigned attempt);
    /** Push an IOERR completion for @p p toward the guest. */
    void failBlkToGuest(const PendingBlk &p, std::uint64_t gen);
    /** Executor blk completions for queue @p q charge. */
    hw::CpuExecutor &blkExecutor(unsigned q);

    hw::CpuExecutor &core_;
    hw::CpuExecutor *blkCore_ = nullptr; ///< defaults to &core_
    IoServiceParams params_;

    // Net role.
    GuestMemory *netMem_ = nullptr;
    std::vector<NetPair> netPairs_;
    cloud::VSwitch *vswitch_ = nullptr;
    cloud::PortId port_ = 0;
    cloud::DualRateLimiter netLimiter_ =
        cloud::DualRateLimiter::unlimited();

    // Console role.
    GuestMemory *conMem_ = nullptr;
    std::unique_ptr<virtio::VirtQueueDevice> conRx_;
    std::unique_ptr<virtio::VirtQueueDevice> conTx_;
    CompletionBarrier conRxDone_;
    CompletionBarrier conTxDone_;
    std::function<void(const std::string &)> consoleSink_;
    std::deque<std::string> conPending_;

    // Blk role.
    GuestMemory *blkMem_ = nullptr;
    std::vector<BlkQueue> blkQueues_;
    cloud::BlockService *blkSvc_ = nullptr;
    cloud::Volume *vol_ = nullptr;
    cloud::DualRateLimiter blkLimiter_ =
        cloud::DualRateLimiter::unlimited();

    bool running_ = false;
    bool blkIntegrity_ = false;
    /** Whole service first, then per-queue units as asked for
     *  (a deque: registered units must not move). */
    std::deque<Unit> units_;
    std::uint64_t blkInflight_ = 0;
    std::map<std::uint64_t, PendingBlk> blkPending_;
    std::uint64_t blkNextSeq_ = 0;
    /** Bumped on every (re)attach and on markDead: completions and
     *  timers carrying an older generation are ignored. */
    std::uint64_t blkGen_ = 0;
    Tick stallUntil_ = 0;
    /** Registry-backed: accessors and exports read the same cell. */
    Counter &txPkts_;
    Counter &rxPkts_;
    Counter &blkIos_;
    Counter &rxDropped_;
    Counter &pollsTotal_;
    Counter &pollsBusy_;
    Counter &blkTimeouts_;
    Counter &blkRetries_;
    Counter &blkDupDone_;
    Counter &blkFailures_;
    Counter &blkRangeErrors_;
    Counter &difDetects_;
    Counter &difRetries_;
    Counter &difFails_;
    Histogram &pollBatch_; ///< work items per poll iteration

    // Request tracing (optional, wired by the platform glue).
    obs::RequestTracer *netTracer_ = nullptr;
    obs::RequestTracer *blkTracer_ = nullptr;
};

} // namespace hv
} // namespace bmhive

#endif // BMHIVE_HV_IO_SERVICE_HH
