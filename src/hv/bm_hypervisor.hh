/**
 * @file
 * BmHypervisor: the user-space bare-metal hypervisor process.
 * One process per bm-guest (paper section 3.2: "Every
 * bm-hypervisor process provides service to one bm-guest only for
 * better isolation of back-end virtio resource").
 *
 * Unlike a vm-hypervisor it virtualizes nothing: it manages the
 * guest's life cycle through the PCIe interface (power, firmware
 * verification) and runs the poll-mode virtio backend over
 * IO-Bond's shadow vrings, bridging to the cloud vSwitch and block
 * service.
 */

#ifndef BMHIVE_HV_BM_HYPERVISOR_HH
#define BMHIVE_HV_BM_HYPERVISOR_HH

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "cloud/block_service.hh"
#include "cloud/vswitch.hh"
#include "hv/io_service.hh"
#include "hw/compute_board.hh"
#include "iobond/iobond.hh"
#include "obs/request_tracer.hh"
#include "sched/poll_scheduler.hh"

namespace bmhive {
namespace hv {

class BmHypervisor : public SimObject
{
  public:
    /**
     * @param board    the guest's compute board
     * @param bond     the IO-Bond bridging the board to the base
     * @param core     base-board core running this process's PMD
     * @param vswitch  the server's DPDK vSwitch
     * @param mac      the guest NIC's MAC (vSwitch port address)
     * @param storage  cloud storage (may be null: no blk function)
     * @param volume   the guest's volume (when storage given)
     * @param rate_limited  apply the section 4.1 instance limits
     */
    BmHypervisor(Simulation &sim, std::string name,
                 hw::ComputeBoard &board, iobond::IoBond &bond,
                 hw::CpuExecutor &core, cloud::VSwitch &vswitch,
                 cloud::MacAddr mac,
                 cloud::BlockService *storage = nullptr,
                 cloud::Volume *volume = nullptr,
                 bool rate_limited = true);
    ~BmHypervisor() override;

    /** Power the compute board on (PCIe power control). */
    void powerOnGuest();
    /** Power the board off and stop the backend. */
    void powerOffGuest();

    /**
     * Wire the backend to the shadow vrings. Call after the guest
     * driver has completed initialization (DRIVER_OK); returns
     * false if no shadow queue is ready yet.
     */
    bool connectBackends();

    /**
     * Run this process's backend on the shared poll pool @p s, homed
     * on pool core @p core_index, instead of a Dedicated loop of its
     * own. Must be called before connectBackends(); every service
     * generation (respawn, live upgrade) re-registers its units.
     */
    void useScheduler(sched::PollScheduler &s, unsigned core_index);

    /**
     * Containment lever forwarded to the shared pool: 1.0 normal,
     * fractional deprioritized (Suspect), 0 starved (Quarantined).
     * No-op under dedicated polling.
     */
    void setPollWeight(double w);

    /** Period of this process's Dedicated loops from their next
     *  visit on (ablation studies). */
    void setPollPeriod(Tick t);

    /**
     * Liveness, the one signal the watchdog consumes: some unit of
     * this backend is wedged over @p window (see
     * sched::PollScheduler::wedged).
     */
    bool wedged(Tick window) const;

    /**
     * Negotiated passthrough queue mode: each net pair / blk queue
     * runs on a Dedicated loop of its own pool core, with no shared
     * DWRR dispatch stage in between (IO-Bond shadow-sync and copyv
     * batching still apply). Takes effect when the queues register
     * (connect, respawn, migration); deprioritizing the guest below
     * full weight — Suspect or Quarantined — re-registers the same
     * units under the shared policy, and restoring full weight
     * re-promotes them. Shared-pool mode only.
     */
    void setMqPassthrough(bool on);
    bool mqPassthrough() const { return passthroughWanted_; }
    /** Queue units currently on Dedicated loops. */
    unsigned passthroughQueues() const { return passQueues_; }
    /** Per-queue scheduling in effect (MQ device on the shared
     *  pool). */
    bool perQueueScheduled() const { return perQueue_; }

    /**
     * Apply a guest firmware update; refused unless signed by the
     * provider key.
     */
    bool updateGuestFirmware(const hw::FirmwareImage &fw);

    /**
     * Orthus-style live upgrade (paper section 6): replace this
     * process's backend with a freshly constructed one while the
     * guest keeps running. New work is held while in-flight block
     * I/O quiesces, then the new service adopts all ring state and
     * buffered traffic. @p done receives the service downtime.
     */
    void liveUpgrade(std::function<void(Tick downtime)> done);

    /** Guest console output is delivered to @p sink. */
    void setConsoleSink(
        std::function<void(const std::string &)> sink)
    {
        consoleSink_ = std::move(sink);
    }

    /** Send input to the guest console. */
    void consoleInput(const std::string &text)
    {
        service_->consoleInput(text);
    }

    /**
     * Trace every request through the full Fig. 6 path: doorbell,
     * shadow sync, poll pickup, service, completion DMA, MSI.
     * Spans land in per-stage latency recorders under
     * "<name>.net.stage.*" / "<name>.blk.stage.*"; a FlightRecorder
     * attached with RequestTracer::setSpanTarget() also receives
     * each span, for a Chrome trace of the run. BmHiveServer turns
     * this on for every guest while observability is on.
     */
    void enableIoTracing();

    /** Per-stage tracers; null until enableIoTracing(). */
    obs::RequestTracer *netTracer() { return netTracer_.get(); }
    obs::RequestTracer *blkTracer() { return blkTracer_.get(); }

    /**
     * Attach the guest's flight recorder. Wires the current shared
     * scheduler registration for SchedVisit events (and re-wires on
     * every respawn); respawn itself records a Respawn event.
     */
    void setFlightRecorder(obs::FlightRecorder *fr);

    /**
     * The bm-hypervisor process dies: polling stops and everything
     * it had in flight is invalidated. Per-guest blast radius only
     * — other guests' processes are untouched (the paper's
     * one-process-per-guest isolation argument).
     */
    void crash();

    /**
     * Start a replacement process after a crash: republish the
     * dead process's unfinished shadow-vring work via IO-Bond's
     * recovery path, then attach a fresh service whose device
     * views resume from the rings' live indices. The watchdog in
     * BmHiveServer calls this when a guest's backend crashed or
     * wedged.
     */
    void respawn();

    /**
     * Stop taking new work (migration drain). In-flight block I/O
     * keeps completing; the service restarts via migrateTo() on
     * the target server, or respawn() rolls it back on the source
     * if the migration aborts.
     */
    void quiesce() { service_->stop(); }

    /**
     * Re-home this process onto another base server: respawn minus
     * the recoverQueue (IoBond::rebase already republished the
     * in-flight window into the target's memory). The same
     * BmHypervisor object survives — its vSwitch port, tracers,
     * and retired service generations ride along — but the PMD
     * now runs on @p core and the fresh service generation's
     * device views resume from the rebased shadow rings. Pass a
     * null @p sched for a Dedicated poll loop on the target.
     */
    void migrateTo(hw::CpuExecutor &core,
                   sched::PollScheduler *sched, unsigned core_index);

    /**
     * Move this guest's NIC port onto another server's vSwitch
     * (per-server-switch fleets: migration re-homes the port along
     * with the PMD). The old port is detached, its MAC forgotten,
     * and a fresh port with the same MAC is added to @p sw. No-op
     * when already attached to @p sw.
     */
    void rebindVSwitch(cloud::VSwitch &sw);

    bool crashed() const { return crashed_; }
    unsigned respawns() const { return respawnCount_; }
    /** Completed migrateTo() re-homings. */
    unsigned migrations() const { return migrations_; }
    /** When the last crash happened (recovery-time accounting). */
    Tick crashedAt() const { return crashedAt_; }

    /** Completed live upgrades. */
    unsigned upgrades() const { return upgrades_; }

    VirtioIoService &service() { return *service_; }
    cloud::PortId port() const { return port_; }
    bool connected() const { return connected_; }

    /**
     * DIF protection on the blk backend: applied to the current
     * service generation and to every future one (respawn,
     * migration, live upgrade), so a crash can't silently drop
     * the protection.
     */
    void setBlkIntegrity(bool on);

    /** Provider firmware-signing key (shared by the fleet). */
    static constexpr std::uint64_t providerKey = 0xa11baba;

  private:
    hw::ComputeBoard &board_;
    iobond::IoBond &bond_;
    cloud::VSwitch *vswitch_;
    cloud::MacAddr mac_;
    cloud::BlockService *storage_;
    cloud::Volume *volume_;
    bool rateLimited_;
    cloud::PortId port_;
    std::unique_ptr<VirtioIoService> service_;
    std::vector<std::unique_ptr<VirtioIoService>> retired_;
    std::function<void(const std::string &)> consoleSink_;
    hw::CpuExecutor *core_ = nullptr;
    IoServiceParams serviceParams_;
    /** Period of this process's Dedicated loops. */
    Tick pollPeriod_ = paper::bmPollPeriod;
    /** Loops of this process's own: its PMD under dedicated
     *  polling. Homed with the guest, so they migrate with it. */
    sched::PollScheduler loops_;
    /** Where the units register: the shared pool, or loops_. */
    sched::PollScheduler *sched_;
    unsigned schedCore_ = 0;
    double pollWeight_ = 1.0;
    /** The current service generation's registrations. */
    std::vector<sched::PollScheduler::Handle> regs_;
    bool perQueue_ = false;
    unsigned passQueues_ = 0;
    bool passthroughWanted_ = false;
    bool connected_ = false;
    bool blkIntegrity_ = false;
    unsigned upgrades_ = 0;
    unsigned migrations_ = 0;
    bool crashed_ = false;
    Tick crashedAt_ = 0;
    unsigned respawnCount_ = 0;
    Counter &faultInjected_;
    Counter &respawns_;
    Counter &mqQueueRegs_;
    Counter &mqPassBinds_;
    Counter &mqPassDemotions_;

    // Request tracing (enableIoTracing).
    std::unique_ptr<obs::RequestTracer> netTracer_;
    std::unique_ptr<obs::RequestTracer> blkTracer_;
    obs::FlightRecorder *flight_ = nullptr;
    int netFn_ = -1; ///< IO-Bond function index of the NIC
    int blkFn_ = -1; ///< IO-Bond function index of the disk
    bool traceIo_ = false;

    /** Finish a live upgrade once block I/O has drained. */
    void finishUpgrade(Tick t0,
                       std::function<void(Tick)> done);

    /** Point bond and service at the tracers (post-connect). */
    void wireTracers();

    /** Start the current service generation and register its
     *  units. */
    void startService();
    /**
     * The one registration path: the whole service on a Dedicated
     * loop of its own core, or on the shared pool — per queue for a
     * multi-queue guest, Dedicated per queue under passthrough.
     */
    void registerUnits();
    void unregisterUnits();
    /** Register @p u on pool core @p core under the Shared policy. */
    void share(sched::Pollable &u, unsigned core,
               const std::string &label);
    /** Passthrough wanted and allowed at the current weight. */
    bool passthroughDue() const
    {
        return passthroughWanted_ && pollWeight_ >= 1.0;
    }
    /** Route an IO-Bond (fn, q) doorbell to the unit polling it. */
    void wakeQueue(unsigned fn, unsigned q);
    /** Retire service_ and attach a fresh generation named
     *  "<name>.svc.<suffix>" on core_; shared by respawn (after
     *  recoverQueue) and migrateTo (after IoBond::rebase). */
    void replaceService(const std::string &suffix);

    /** Attach one function's role to service_ if its shadow
     *  vrings are ready. */
    bool attachFunction(unsigned fn);

    /** A guest driver (re)initialized function @p fn: rebuild the
     *  backend's views on the new shadow layouts. */
    void onFunctionReady(unsigned fn);

    bool injectFault(const fault::FaultSpec &spec);
};

} // namespace hv
} // namespace bmhive

#endif // BMHIVE_HV_BM_HYPERVISOR_HH
