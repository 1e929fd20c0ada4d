/**
 * @file
 * BmHiveServer: the top-level public API — one bare-metal server
 * assembling the base board, up to 16 compute boards with their
 * IO-Bond bridges, and one bm-hypervisor process per guest,
 * integrated with the cloud vSwitch and block storage (paper
 * Fig. 3).
 *
 * provision() performs the full "use scenario" of section 3.2:
 * pick an idle board, power it on via PCIe, let the (virtio-aware)
 * firmware find its devices, start the guest drivers, and connect
 * the backend — after which the guest does cloud network and
 * storage I/O exactly as a VM would.
 */

#ifndef BMHIVE_CORE_BMHIVE_SERVER_HH
#define BMHIVE_CORE_BMHIVE_SERVER_HH

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "base/paper_constants.hh"
#include "base/token_bucket.hh"
#include "cloud/block_service.hh"
#include "cloud/vswitch.hh"
#include "core/instance_catalog.hh"
#include "guest/blk_driver.hh"
#include "guest/console_driver.hh"
#include "guest/firmware.hh"
#include "guest/guest_os.hh"
#include "guest/net_driver.hh"
#include "hv/bm_hypervisor.hh"
#include "hw/compute_board.hh"
#include "iobond/iobond.hh"
#include "obs/flight_recorder.hh"
#include "obs/slo_monitor.hh"
#include "sched/poll_scheduler.hh"

namespace bmhive {
namespace core {

/**
 * Per-tenant observability policy: the SLO monitor and flight
 * recorder every provisioned guest carries. Always on by default —
 * both are O(1) per event with zero steady-state allocation, so
 * there is nothing to gate. Anomaly triggers (quarantine entry,
 * watchdog respawn, DEVICE_NEEDS_RESET propagation, SLO breach)
 * dump the implicated guest's last flight-recorder events as a
 * Chrome-trace JSON into flightDumpDir; an empty dir records the
 * trigger in the metric registry but writes no file.
 */
struct ObsParams
{
    bool enabled = true;
    /** Latency-SLO policy fed from RequestTracer flow closes. */
    obs::SloParams slo = {};
    /** Where dumps land ("" = triggers counted, no files). */
    std::string flightDumpDir;
    /** Per-guest floor between dumps; a flapping guest produces
     *  one dump per cooldown, not one per anomaly. */
    Tick flightDumpCooldown = msToTicks(1.0);
};

/**
 * End-to-end data-integrity policy: DMA ECRC + shadow-ring
 * scrubbing in IO-Bond, DIF tags on the block path, and frame
 * checksums on the net path. Detection feeds a graduated ladder:
 * mismatch -> targeted retry; repeated mismatch on one queue ->
 * DEVICE_NEEDS_RESET for that function; @c serverUnhealthyThreshold
 * function-level escalations on one server -> the server is
 * declared unhealthy and the fleet controller drains it.
 */
struct IntegrityParams
{
    bool enabled = true;
    /** Bond-level integrity escalations (queue resets) before the
     *  whole server is reported unhealthy. */
    unsigned serverUnhealthyThreshold = 3;
};

/** How bm-hypervisor PMDs map onto base-board cores. */
enum class SchedMode {
    /** One always-busy-polling process per core (seed behavior). */
    Dedicated,
    /** N processes multiplexed over a PollScheduler core pool. */
    Shared,
};

/** Containment state of one provisioned guest. */
enum class GuestHealth { Healthy, Suspect, Quarantined };

struct BmServerParams
{
    /** Physical board slots (paper: at most 16). */
    unsigned maxBoards = paper::maxComputeBoards;
    /** Base-memory region reserved per IO-Bond (rings + arena). */
    Bytes shadowRegionPerGuest = 24 * MiB;
    /** IO-Bond timing (FPGA by default; asic() for section 6). */
    iobond::IoBondParams bondParams = {};
    /** Backend-to-core mapping (Dedicated is seed-equivalent). */
    SchedMode schedMode = SchedMode::Dedicated;
    /** Base cores in the shared poll pool (Shared mode only). */
    unsigned pollCores = 4;
    /** Rx/tx queue pairs offered per guest NIC (> 1 offers
     *  VIRTIO_NET_F_MQ; the guest driver commits to a count). */
    unsigned netQueuePairs = 1;
    /** Submission queues per guest disk (> 1 offers
     *  VIRTIO_BLK_F_MQ; one per vCPU is the classic shape). */
    unsigned blkQueues = 1;
    /** Bind MQ queue units 1:1 to dedicated passthrough pollers
     *  instead of the shared DWRR stage (Shared mode only;
     *  containment demotes a misbehaving guest back to shared). */
    bool mqPassthrough = false;
    /** Per-tenant SLO + flight-recorder policy. */
    ObsParams obs = {};
    /** End-to-end data-integrity policy. */
    IntegrityParams integrity = {};
};

/** Everything belonging to one provisioned bm-guest. */
class BmGuest
{
  public:
    hw::ComputeBoard &board() { return *board_; }
    iobond::IoBond &bond() { return *bond_; }
    hv::BmHypervisor &hypervisor() { return *hv_; }
    guest::GuestOs &os() { return *os_; }
    guest::NetDriver &net() { return *net_; }
    guest::BlkDriver *blk() { return blk_.get(); }
    guest::ConsoleDriver &console() { return *console_; }
    const InstanceType &instance() const { return instance_; }
    cloud::MacAddr mac() const { return mac_; }

    /** Always-on black box / SLI view; null when obs disabled. */
    obs::FlightRecorder *flight() { return flight_.get(); }
    obs::SloMonitor *slo() { return slo_.get(); }

    /** Event partition this guest's assembly currently homes in
     *  (0 in a classic, unpartitioned simulation). */
    unsigned partition() const
    {
        return partitionCell_ ? *partitionCell_ : 0;
    }

    /** One-paragraph operational report (counters snapshot). */
    std::string statsReport() const;

  private:
    friend class BmHiveServer;

    InstanceType instance_;
    cloud::MacAddr mac_ = 0;
    /** Partition-affinity cell shared by every SimObject in this
     *  guest's assembly (board, bond, hypervisor, drivers, service
     *  generations): one write re-homes the whole guest, which is
     *  exactly what adoptGuest does on migration. */
    std::unique_ptr<unsigned> partitionCell_;
    /** Base-memory shadow region currently backing the bond; owned
     *  by whichever server hosts the guest (freed on release or
     *  export, allocated afresh on adoption). */
    Addr regionBase_ = 0;
    std::unique_ptr<hw::ComputeBoard> board_;
    std::unique_ptr<iobond::IoBond> bond_;
    std::unique_ptr<hv::BmHypervisor> hv_;
    std::unique_ptr<guest::GuestOs> os_;
    std::unique_ptr<guest::NetDriver> net_;
    std::unique_ptr<guest::BlkDriver> blk_;
    std::unique_ptr<guest::ConsoleDriver> console_;
    std::unique_ptr<obs::FlightRecorder> flight_;
    std::unique_ptr<obs::SloMonitor> slo_;
};

class BmHiveServer : public SimObject
{
  public:
    BmHiveServer(Simulation &sim, std::string name,
                 cloud::VSwitch &vswitch,
                 cloud::BlockService *storage = nullptr,
                 BmServerParams params = {});
    ~BmHiveServer() override;

    /**
     * Provision a bm-guest of @p type with NIC address @p mac and
     * (optionally) cloud volume @p vol. The guest comes back with
     * drivers initialized and the backend connected.
     * @param rate_limited  apply the section 4.1 instance limits
     */
    BmGuest &provision(const InstanceType &type, cloud::MacAddr mac,
                       cloud::Volume *vol = nullptr,
                       bool rate_limited = true);

    /**
     * Like provision(), but a backend-connection failure is
     * recoverable: the board is powered back off, the vSwitch port
     * released, and nullptr returned (counted under
     * "<name>.provision_failures") so a fleet controller can retry
     * or place the guest elsewhere.
     */
    BmGuest *tryProvision(const InstanceType &type,
                          cloud::MacAddr mac,
                          cloud::Volume *vol = nullptr,
                          bool rate_limited = true);

    /**
     * Power a guest off and release its board slot, its vSwitch
     * port and its shadow region for the next provision. @p g stays
     * readable until the server is destroyed.
     */
    void release(BmGuest &g);

    /** Slot count including tombstones of exported/released
     *  guests; guest(i) panics on a tombstone — use hasGuest(). */
    unsigned guestCount() const { return unsigned(slots_.size()); }
    BmGuest &guest(unsigned i);
    bool hasGuest(unsigned i) const
    {
        return i < slots_.size() && slots_[i].guest != nullptr;
    }

    hw::BaseBoard &base() { return *base_; }
    cloud::VSwitch &vswitch() { return vswitch_; }
    unsigned freeSlots() const;

    /** The shared poll-core pool; null under Dedicated mode. */
    sched::PollScheduler *scheduler() { return sched_.get(); }
    SchedMode schedMode() const { return params_.schedMode; }

    /** Compute boards the PSU/space/I/O budget allows (Table 3). */
    unsigned maxBoards() const { return params_.maxBoards; }

    /**
     * Log every guest's statsReport() every @p period, like a
     * management daemon scraping the fleet. Counted under
     * "<name>.stats_dumps" in the metric registry.
     */
    void startStatsDump(Tick period);
    void stopStatsDump();
    std::uint64_t statsDumps() const { return statsDumps_.value(); }

    /**
     * Watch every guest's backend poll loops: a guest whose
     * hypervisor crashed, or whose backend is wedged over a whole
     * period (BmHypervisor::wedged), is respawned and its
     * shadow-vring state re-adopted. The outage
     * duration (crash until the replacement is polling) lands in
     * "<name>.watchdog.recovery_ticks". A guest whose bond is
     * drained is mid-migration and skipped (DESIGN.md 15.2).
     */
    void startWatchdog(Tick period);
    std::uint64_t
    watchdogRespawns() const
    {
        return watchdogRespawns_.value();
    }

    // --- Live migration (fleet controller interface) ---

    /**
     * Leaky-bucket containment score of one guest (policy constants
     * in bmhive_server.cc), backed by the repo-wide TokenBucket:
     * the bucket holds quarantineScore tokens and refills at
     * leakPerMs; each fault force-consumes one, so score =
     * quarantineScore - level (a full bucket is a clean guest).
     */
    struct Containment
    {
        GuestHealth state = GuestHealth::Healthy;
        TokenBucket bucket = TokenBucket::unlimited();
        Tick quarantinedAt = 0;
    };

    /** One board slot: the guest assembly plus the per-guest
     *  server state (containment score, dump cooldown) that
     *  travels with it on migration. A null guest is the tombstone
     *  of an exported or released guest. */
    struct Slot
    {
        std::unique_ptr<BmGuest> guest;
        Containment containment;
        /** Tick of the last dump (maxTick = never). */
        Tick lastDumpAt = maxTick;
        unsigned dumpSeq = 0;
    };

    /**
     * The migration commit point: detach guest @p i from this
     * server. Its slot becomes a tombstone (watchdog, stats, and
     * containment callbacks all skip it), its shadow region
     * returns to the free list, and the caller owns the slot's
     * contents. The bond must already be drained and settled.
     */
    Slot exportGuest(unsigned i);

    /**
     * Adopt a previously exported guest: allocate a slot and a
     * shadow region, re-wire the containment/obs callbacks onto
     * this server, rebase the bond into this server's base memory
     * (replaying the in-flight window), and re-home the
     * bm-hypervisor onto a local core. @p done fires with the new
     * guest index once the replay DMA has landed and the backend
     * is polling again; the caller lifts the drain after that.
     */
    unsigned adoptGuest(Slot s, std::function<void(unsigned)> done);

    /** External anomaly trigger (e.g. a fleet migration abort);
     *  honors the per-guest dump cooldown. */
    void triggerFlightDump(unsigned i, const char *trigger)
    {
        flightDump(i, trigger);
    }

    // --- Adversarial-tenant containment ---

    /** Containment state of guest @p i. */
    GuestHealth guestHealth(unsigned i) const;
    /** Current containment score of guest @p i (decayed lazily). */
    double guestScore(unsigned i) const;

    /**
     * Park guest @p i off the bridge: IO-Bond swallows its
     * doorbells until releaseQuarantine(). Scheduled automatically
     * when the score crosses the policy threshold; public so an
     * operator action can do the same.
     */
    void quarantineGuest(unsigned i);
    /**
     * Lift the quarantine of guest @p i: its functions are reset
     * (the driver renegotiates onto clean rings) and the dwell
     * time lands in "<name>.guest.quarantine_dwell".
     */
    void releaseQuarantine(unsigned i);

    std::uint64_t quarantines() const { return quarantines_.value(); }
    std::uint64_t
    guestFaultEvents() const
    {
        return guestFaultEvents_.value();
    }

    // --- End-to-end integrity (escalation ladder top) ---

    /**
     * Fires when the bond-level escalation count crosses the
     * integrity threshold: persistent corruption localized to this
     * server's hardware. A fleet controller responds by draining
     * the server (proactive live migration of every guest).
     */
    void setServerUnhealthyCallback(std::function<void()> cb)
    {
        serverUnhealthyCb_ = std::move(cb);
    }

    /** Bond-level integrity escalations (queue resets) observed. */
    std::uint64_t
    integrityEscalations() const
    {
        return integrityEscalations_.value();
    }
    /** True once the threshold was crossed. */
    bool integrityUnhealthy() const { return integrityUnhealthy_; }

    // --- Per-tenant observability (flight recorder + SLO) ---

    /** Anomaly dumps actually written to disk. */
    std::uint64_t flightDumps() const { return obsDumps_.value(); }
    /** Dump triggers seen (includes cooldown-suppressed ones). */
    std::uint64_t
    flightDumpTriggers() const
    {
        return obsDumpTriggers_.value();
    }
    /** SLO breach signals across all guests and roles. */
    std::uint64_t sloBreaches() const { return sloBreaches_.value(); }
    /** Path of the most recent dump ("" before the first). */
    const std::string &
    lastFlightDumpPath() const
    {
        return lastFlightDumpPath_;
    }

  private:
    /** One periodic rollup over all provisioned guests. */
    void dumpStats();

    /** One watchdog sweep over all provisioned guests. */
    void watchdogCheck();

    /** Next shadow region: free-list first, then fresh. Bounded by
     *  the usedSlots_ < maxBoards admission checks. */
    Addr allocRegion();

    /** First tombstone slot, else the next appended one. Guest
     *  object names never follow the slot (nextGuestName_). */
    unsigned freeSlot() const;
    /** Occupy slot @p idx (a freeSlot() answer) with @p s. */
    void fillSlot(unsigned idx, Slot s);
    /** Remove @p g's vSwitch port, power its board off and free its
     *  shadow region (release, and a failed provision's rollback). */
    void teardown(BmGuest &g);
    /** A home for one bm-hypervisor PMD: the next dedicated base
     *  core round-robin, or the least-loaded core of the shared
     *  pool (second: the pool core index, 0 when dedicated). */
    std::pair<hw::CpuExecutor *, unsigned> pickCore();
    /** Point guest @p g's fault, integrity-escalation, reset and
     *  SLO-breach signals at this server's slot @p idx (the last
     *  two only once its obs objects exist). */
    void wireSignals(BmGuest &g, unsigned idx);

    /** IO-Bond classified one contained fault of guest @p idx. */
    void onGuestFault(unsigned idx, fault::GuestFaultKind k);

    /** Guest @p idx's bond reset function @p fn over persistent
     *  corruption; counts toward server health. */
    void onIntegrityEscalation(unsigned idx, unsigned fn);

    /**
     * Dump guest @p i's flight-recorder tail as a Chrome trace,
     * labelled @p trigger. Honors the per-guest cooldown and does
     * nothing but count when no dump dir is configured.
     */
    void flightDump(unsigned i, const char *trigger);
    /** IO-Bond pushed DEVICE_NEEDS_RESET to guest @p idx fn @p fn. */
    void onDeviceReset(unsigned idx, unsigned fn);
    /** Guest @p idx's SLO monitor latched a breach. */
    void onSloBreach(unsigned idx, obs::SloRole role, double burn);

    BmServerParams params_;
    cloud::VSwitch &vswitch_;
    cloud::BlockService *storage_;
    std::unique_ptr<hw::BaseBoard> base_;
    /** Declared before slots_ so their hypervisors can
     *  deregister from it during destruction. */
    std::unique_ptr<sched::PollScheduler> sched_;
    /** Board slots; indices stay stable for callbacks. */
    std::vector<Slot> slots_;
    /** Released guests: kept until teardown so events still
     *  holding their board, bond or hypervisor unwind against live
     *  objects (the rule BmHypervisor's retired services follow). */
    std::vector<std::unique_ptr<BmGuest>> retired_;
    unsigned usedSlots_ = 0;
    Addr nextShadowRegion_ = 0;
    /** Shadow regions of released/exported guests, ready for
     *  reuse — without this, repeated adoptions would walk the
     *  bump cursor off the end of base memory. */
    std::vector<Addr> freeRegions_;
    /** Monotonic: guest object names never reuse an index, so a
     *  migrated-away guest's SimObject/metric/fault-hook names
     *  cannot collide with a later tenant of its old slot. */
    unsigned nextGuestName_ = 0;
    unsigned nextCore_ = 0;
    Tick statsPeriod_ = 0; ///< 0: periodic dump disabled
    Tick watchdogPeriod_ = 0; ///< 0: watchdog disabled
    bool integrityUnhealthy_ = false;
    std::function<void()> serverUnhealthyCb_;
    Counter &statsDumps_;
    Counter &watchdogChecks_;
    Counter &watchdogRespawns_;
    Counter &provisionFailures_;
    Counter &guestFaultEvents_;
    Counter &suspects_;
    Counter &quarantines_;
    Counter &obsDumpTriggers_;
    Counter &obsDumps_;
    Counter &obsDumpSuppressed_;
    Counter &sloBreaches_;
    Counter &integrityEscalations_;
    Counter &serverUnhealthy_;
    LatencyRecorder &recoveryTicks_;
    LatencyRecorder &quarantineDwell_;
    std::string lastFlightDumpPath_;
    EventFunctionWrapper statsEvent_;
    EventFunctionWrapper watchdogEvent_;
};

} // namespace core
} // namespace bmhive

#endif // BMHIVE_CORE_BMHIVE_SERVER_HH
