#include "core/bmhive_server.hh"

#include <algorithm>
#include <filesystem>
#include <iomanip>
#include <sstream>
#include <utility>

#include "base/logging.hh"
#include "base/paper_constants.hh"

namespace bmhive {
namespace core {

std::string
BmGuest::statsReport() const
{
    std::ostringstream os;
    os << instance_.name << " mac=0x" << std::hex << mac_
       << std::dec << "\n";
    os << "  net: tx=" << net_->txCompleted()
       << " rx=" << net_->rxDelivered()
       << " backend_tx=" << hv_->service().txPackets()
       << " backend_rx=" << hv_->service().rxPackets()
       << " rx_dropped=" << hv_->service().rxDropped() << "\n";
    if (blk_) {
        os << "  blk: completed=" << blk_->completed()
           << " errors=" << blk_->errors()
           << " backend_ios=" << hv_->service().blkIos() << "\n";
    }
    os << "  iobond: doorbells=" << bond_->notifications()
       << " chains=" << bond_->chainsForwarded()
       << " completions=" << bond_->completionsReturned()
       << " malformed=" << bond_->malformedChains()
       << " dma_bytes=" << bond_->dma().bytesMoved() << "\n";
    if (bond_->guestFaultsTotal() > 0 ||
        bond_->quarantineDrops() > 0) {
        os << "  containment: guest_faults="
           << bond_->guestFaultsTotal()
           << " quarantine_drops=" << bond_->quarantineDrops()
           << (bond_->quarantined() ? " [QUARANTINED]" : "")
           << "\n";
    }
    std::uint64_t polls = hv_->service().pollsTotal();
    os << "  backend: polls=" << polls
       << " busy=" << hv_->service().pollsBusy();
    if (polls > 0) {
        os << " (" << std::fixed << std::setprecision(1)
           << 100.0 * hv_->service().pollBusyRatio() << "% busy)";
        os.unsetf(std::ios::fixed);
    }
    os << "\n";
    os << "  irqs=" << os_->irqsTaken()
       << " hv_upgrades=" << hv_->upgrades();
    // Per-stage latency rollup, present once tracing is enabled.
    auto *net = hv_->netTracer();
    auto *blk = hv_->blkTracer();
    if (net && net->completed() > 0)
        os << "\n  net stages:\n" << net->breakdown();
    if (blk && blk->completed() > 0)
        os << "\n  blk stages:\n" << blk->breakdown();
    return os.str();
}

BmHiveServer::BmHiveServer(Simulation &sim, std::string name,
                           cloud::VSwitch &vswitch,
                           cloud::BlockService *storage,
                           BmServerParams params)
    : SimObject(sim, std::move(name)), params_(params),
      vswitch_(vswitch), storage_(storage),
      statsDumps_(metrics().counter(this->name() + ".stats_dumps")),
      watchdogChecks_(
          metrics().counter(this->name() + ".watchdog.checks")),
      watchdogRespawns_(
          metrics().counter(this->name() + ".watchdog.respawns")),
      provisionFailures_(
          metrics().counter(this->name() + ".provision_failures")),
      guestFaultEvents_(
          metrics().counter(this->name() + ".guest.fault_events")),
      suspects_(metrics().counter(this->name() + ".guest.suspects")),
      quarantines_(
          metrics().counter(this->name() + ".guest.quarantines")),
      obsDumpTriggers_(
          metrics().counter(this->name() + ".obs.dump_triggers")),
      obsDumps_(metrics().counter(this->name() + ".obs.dumps")),
      obsDumpSuppressed_(
          metrics().counter(this->name() + ".obs.dumps_suppressed")),
      sloBreaches_(
          metrics().counter(this->name() + ".obs.slo_breaches")),
      integrityEscalations_(metrics().counter(
          this->name() + ".integrity.escalations")),
      serverUnhealthy_(metrics().counter(
          this->name() + ".integrity.server_unhealthy")),
      recoveryTicks_(metrics().latency(
          this->name() + ".watchdog.recovery_ticks")),
      quarantineDwell_(metrics().latency(
          this->name() + ".guest.quarantine_dwell")),
      statsEvent_([this] { dumpStats(); }, "server.stats_dump"),
      watchdogEvent_([this] { watchdogCheck(); }, "server.watchdog")
{
    fatal_if(params_.maxBoards == 0 ||
                 params_.maxBoards > paper::maxComputeBoards,
             "a BM-Hive server carries 1..",
             paper::maxComputeBoards, " boards, got ",
             params_.maxBoards);
    // The server-level integrity switch governs every layer a
    // guest provisions with: the bond's ECRC+scrubber, the DIF
    // block path, and the sealed net frames.
    params_.bondParams.integrity = params_.integrity.enabled;
    Bytes base_mem =
        Bytes(params_.maxBoards) * params_.shadowRegionPerGuest +
        16 * MiB;
    base_ = std::make_unique<hw::BaseBoard>(
        sim, this->name() + ".base", hw::CpuCatalog::baseBoardE5(),
        base_mem, paper::ioBondMailboxAccess);
    if (params_.schedMode == SchedMode::Shared) {
        fatal_if(params_.pollCores == 0 ||
                     params_.pollCores > base_->coreCount(),
                 this->name(), ": shared mode needs 1..",
                 base_->coreCount(), " poll cores, got ",
                 params_.pollCores);
        std::vector<hw::CpuExecutor *> pool;
        for (unsigned i = 0; i < params_.pollCores; ++i)
            pool.push_back(&base_->core(i));
        sched_ = std::make_unique<sched::PollScheduler>(
            sim, this->name() + ".sched", std::move(pool),
            params_.schedParams);
    }
}

BmHiveServer::~BmHiveServer()
{
    if (statsEvent_.scheduled())
        eventq().deschedule(&statsEvent_);
    if (watchdogEvent_.scheduled())
        eventq().deschedule(&watchdogEvent_);
}

void
BmHiveServer::startWatchdog(Tick period)
{
    panic_if(period == 0, name(), ": watchdog needs a period");
    watchdogPeriod_ = period;
    eventq().reschedule(&watchdogEvent_, curTick() + period);
}

void
BmHiveServer::watchdogCheck()
{
    watchdogChecks_.inc();
    for (unsigned i = 0; i < slots_.size(); ++i) {
        BmGuest *g = slots_[i].guest.get();
        if (!g)
            continue; // tombstone: exported or released
        hv::BmHypervisor &hv = g->hypervisor();
        // A drained bond is a guest mid-migration. Its backend is
        // *deliberately* quiet (the drain stopped its service), so
        // "no poll progress" is not a failure. Worse, a respawn here
        // would republish the in-flight window on the source while
        // the target's rebase replays the same window — every chain
        // would complete twice. The fleet's settle poll is what
        // notices a real crash during the drain, and rolls back.
        if (!hv.connected() || g->bond().drained())
            continue;
        // Per-unit progress, under either policy: a Dedicated PMD
        // unvisited for a whole period, or Shared work posted that
        // long ago with no visit since (an idle Shared backend
        // legitimately stops being visited once its core sleeps).
        if (hv.crashed() || hv.wedged(watchdogPeriod_)) {
            Tick down_since = hv.crashed()
                                  ? hv.crashedAt()
                                  : curTick() - watchdogPeriod_;
            warn(name(), ": guest", i,
                 " backend made no poll progress; respawning");
            hv.respawn();
            watchdogRespawns_.inc();
            recoveryTicks_.record(curTick() - down_since);
            flightDump(i, "watchdog");
        }
    }
    scheduleIn(&watchdogEvent_, watchdogPeriod_);
}

void
BmHiveServer::startStatsDump(Tick period)
{
    panic_if(period == 0, name(), ": stats dump needs a period");
    statsPeriod_ = period;
    eventq().reschedule(&statsEvent_, curTick() + period);
}

void
BmHiveServer::stopStatsDump()
{
    statsPeriod_ = 0;
    if (statsEvent_.scheduled())
        eventq().deschedule(&statsEvent_);
}

void
BmHiveServer::dumpStats()
{
    statsDumps_.inc();
    for (unsigned i = 0; i < slots_.size(); ++i) {
        if (!slots_[i].guest)
            continue;
        inform(name(), ": guest", i, " ",
               slots_[i].guest->statsReport());
    }
    if (statsPeriod_ > 0)
        scheduleIn(&statsEvent_, statsPeriod_);
}

unsigned
BmHiveServer::freeSlots() const
{
    return params_.maxBoards - usedSlots_;
}

BmGuest &
BmHiveServer::provision(const InstanceType &type, cloud::MacAddr mac,
                        cloud::Volume *vol, bool rate_limited)
{
    BmGuest *g = tryProvision(type, mac, vol, rate_limited);
    fatal_if(g == nullptr, name(), ": backend connection failed");
    return *g;
}

BmGuest *
BmHiveServer::tryProvision(const InstanceType &type,
                           cloud::MacAddr mac, cloud::Volume *vol,
                           bool rate_limited)
{
    fatal_if(usedSlots_ >= params_.maxBoards,
             name(), ": no free board slots");
    fatal_if(usedSlots_ >= type.maxBoardsPerServer,
             name(), ": instance type '", type.name,
             "' allows at most ", type.maxBoardsPerServer,
             " boards per server");

    auto g = std::make_unique<BmGuest>();
    g->instance_ = type;
    g->mac_ = mac;
    unsigned idx = freeSlot();
    std::string base_name =
        name() + ".guest" + std::to_string(nextGuestName_++);

    // The whole guest assembly homes in this server's partition
    // through a shared affinity cell: every SimObject built below
    // captures the cell, so a later adoption re-homes them all
    // with one write (adoptGuest).
    g->partitionCell_ = std::make_unique<unsigned>(partition());
    psim::PartitionScope pscope(sim_, g->partitionCell_.get(),
                                partition());

    // The compute board: dedicated CPU and memory, own PCIe bus.
    g->board_ = std::make_unique<hw::ComputeBoard>(
        sim_, base_name + ".board", type.cpu, type.simMemBytes,
        params_.bondParams.pciAccess);

    // IO-Bond bridges the board to a region of base memory.
    fatal_if(params_.shadowRegionPerGuest <
                 4 * MiB + params_.bondParams.shadowArenaBytes,
             name(), ": shadow region smaller than ring+arena");
    g->regionBase_ = allocRegion();
    g->bond_ = std::make_unique<iobond::IoBond>(
        sim_, base_name + ".iobond", *g->board_, base_->memory(),
        g->regionBase_, params_.bondParams);
    // Containment scoring and the escalation ladder listen before
    // the drivers start, so bring-up faults are counted; faults
    // fired before the guest is committed (rollback path) find no
    // guest in the slot and score nothing (onGuestFault).
    wireSignals(*g, idx);

    // Emulated virtio functions on the board's bus. Every guest
    // gets a console (the paper's VGA-equivalent access path).
    g->bond_->addNetFunction(3, mac, params_.netQueuePairs);
    if (vol != nullptr)
        g->bond_->addBlkFunction(4, vol->capacity() / 512,
                                 params_.blkQueues);
    g->bond_->addConsoleFunction(5);

    // One bm-hypervisor process: a dedicated base core, or a slot
    // on the shared poll-core pool (least-loaded placement).
    auto [core, sched_core] = pickCore();
    g->hv_ = std::make_unique<hv::BmHypervisor>(
        sim_, base_name + ".hv", *g->board_, *g->bond_, *core,
        vswitch_, mac, vol != nullptr ? storage_ : nullptr, vol,
        rate_limited);
    if (sched_) {
        g->hv_->useScheduler(*sched_, sched_core);
        g->hv_->setMqPassthrough(params_.mqPassthrough);
    }

    // Power on; firmware enumerates PCI; drivers come up.
    g->hv_->powerOnGuest();
    std::vector<hw::CpuExecutor *> cpus;
    for (unsigned t = 0; t < g->board_->threadCount(); ++t)
        cpus.push_back(&g->board_->thread(t));
    g->os_ = std::make_unique<guest::GuestOs>(
        sim_, base_name + ".os", g->board_->memory(),
        g->board_->pciBus(), std::move(cpus));
    g->os_->enumeratePci();

    bool integrity = params_.integrity.enabled;
    g->hv_->setBlkIntegrity(integrity);
    g->net_ = std::make_unique<guest::NetDriver>(*g->os_, 3, mac);
    g->net_->setIntegrity(integrity);
    g->net_->start();
    if (vol != nullptr) {
        g->blk_ = std::make_unique<guest::BlkDriver>(*g->os_, 4);
        g->blk_->setIntegrity(integrity);
        g->blk_->start();
    }
    g->console_ = std::make_unique<guest::ConsoleDriver>(*g->os_, 5);
    g->console_->start();

    if (!g->hv_->connectBackends()) {
        // No shadow vring came up (driver never reached DRIVER_OK,
        // or the function list is empty): recoverable. Roll the
        // partial bring-up back so the slot can be reused.
        warn(name(), ": backend connection failed for mac 0x",
             std::hex, mac, std::dec, "; rolling back");
        vswitch_.removePort(g->hv_->port());
        g->hv_->powerOffGuest();
        freeRegions_.push_back(g->regionBase_);
        provisionFailures_.inc();
        return nullptr;
    }

    Slot slot;
    slot.guest = std::move(g);
    // A full bucket is a clean guest; faults force-consume points
    // that refill at the leak rate.
    slot.containment.bucket =
        TokenBucket(params_.containment.leakPerMs * 1e3,
                    params_.containment.quarantineScore);
    fillSlot(idx, std::move(slot));

    BmGuest &gg = *slots_[idx].guest;
    if (params_.obs.enabled) {
        // Always-on black box: every datapath touch of this guest
        // lands in its ring, dumped on anomaly by flightDump().
        gg.flight_ = std::make_unique<obs::FlightRecorder>(
            base_name + ".flight", metrics(),
            params_.obs.flightEvents);
        gg.bond_->setFlightRecorder(gg.flight_.get());
        gg.hv_->setFlightRecorder(gg.flight_.get());
        // The SLO monitor rides the request tracers' flow closes,
        // so per-tenant SLIs come up with the guest whether or not
        // a bench asked for stage breakdowns.
        gg.hv_->enableIoTracing();
        gg.slo_ = std::make_unique<obs::SloMonitor>(
            base_name + ".slo", metrics(), params_.obs.slo);
        auto *slo = gg.slo_.get();
        gg.hv_->netTracer()->setCloseHook([slo](Tick e2e, Tick now) {
            slo->record(obs::SloRole::Net, e2e, now);
        });
        gg.hv_->blkTracer()->setCloseHook([slo](Tick e2e, Tick now) {
            slo->record(obs::SloRole::Blk, e2e, now);
        });
        // Now that they exist, the reset and breach signals too.
        wireSignals(gg, idx);
    }
    return &gg;
}

Addr
BmHiveServer::allocRegion()
{
    if (!freeRegions_.empty()) {
        Addr r = freeRegions_.back();
        freeRegions_.pop_back();
        return r;
    }
    Addr r = nextShadowRegion_;
    nextShadowRegion_ += params_.shadowRegionPerGuest;
    return r;
}

unsigned
BmHiveServer::freeSlot() const
{
    for (unsigned i = 0; i < slots_.size(); ++i)
        if (!slots_[i].guest)
            return i;
    return unsigned(slots_.size());
}

void
BmHiveServer::fillSlot(unsigned idx, Slot s)
{
    if (idx == slots_.size())
        slots_.push_back(std::move(s));
    else
        slots_[idx] = std::move(s);
    ++usedSlots_;
}

std::pair<hw::CpuExecutor *, unsigned>
BmHiveServer::pickCore()
{
    if (sched_) {
        unsigned c = sched_->leastLoadedCore();
        return {&sched_->coreExecutor(c), c};
    }
    return {&base_->core(nextCore_++ % base_->coreCount()), 0};
}

void
BmHiveServer::wireSignals(BmGuest &g, unsigned idx)
{
    g.bond_->setGuestFaultCallback(
        [this, idx](fault::GuestFaultKind k) {
            onGuestFault(idx, k);
        });
    // Escalation-ladder top: a bond that resets a queue over
    // persistent corruption reports here, and enough of those
    // marks the whole server unhealthy.
    g.bond_->setIntegrityEscalationCallback(
        [this, idx](unsigned fn) {
            onIntegrityEscalation(idx, fn);
        });
    if (g.flight_) {
        g.bond_->setResetCallback([this, idx](unsigned fn) {
            onDeviceReset(idx, fn);
        });
    }
    if (g.slo_) {
        g.slo_->setBreachCallback(
            [this, idx](obs::SloRole role, double burn) {
                onSloBreach(idx, role, burn);
            });
    }
}

BmHiveServer::Slot
BmHiveServer::exportGuest(unsigned i)
{
    panic_if(!hasGuest(i), name(), ": bad guest ", i);
    // The slot becomes a clean tombstone: a quarantine-release
    // timer or fault callback still holding this index finds no
    // guest and healthy state.
    Slot out = std::exchange(slots_[i], Slot{});
    freeRegions_.push_back(out.guest->regionBase_);
    --usedSlots_;
    logDebug("guest", i, " exported (", out.guest->instance_.name,
             ")");
    return out;
}

unsigned
BmHiveServer::adoptGuest(Slot s, std::function<void(unsigned)> done)
{
    fatal_if(usedSlots_ >= params_.maxBoards,
             name(), ": no free board slots to adopt into");
    panic_if(!s.guest, name(), ": adopting an empty export");
    unsigned idx = freeSlot();
    fillSlot(idx, std::move(s));
    Slot &slot = slots_[idx];
    BmGuest &g = *slot.guest;
    g.regionBase_ = allocRegion();

    // Re-home the guest's event partition: the whole assembly
    // shares one affinity cell, so this single write moves every
    // SimObject that travelled with the export. The NIC port moves
    // onto this server's switch with it; RSS is re-established by
    // the migrateTo below once the rebase replay lands.
    if (g.partitionCell_)
        *g.partitionCell_ = partition();
    // A scrub pass armed on the source is still scheduled in the
    // old partition's queue; it must die there rather than touch
    // bond state that now runs here.
    g.bond_->retireScrub();
    g.hv_->rebindVSwitch(vswitch_);

    // The guest's containment and obs signals now belong to this
    // server: re-wire every [server, index] capture.
    wireSignals(g, idx);
    // The source's quarantine-release timer died with the export;
    // restart the dwell here so a quarantined adoptee still gets
    // its release-and-reset.
    if (slot.containment.state == GuestHealth::Quarantined) {
        slot.containment.quarantinedAt = curTick();
        scheduleIn(new OneShotEvent(
                       [this, idx] { releaseQuarantine(idx); },
                       "server.quarantine_release"),
                   params_.containment.quarantineDwell);
    }

    // Re-home the bond's base-memory side (replaying the in-flight
    // window into this server's memory), then re-home the PMD and
    // re-apply the travelled containment state at the scheduler.
    auto [core, sched_core] = pickCore();
    g.bond_->rebase(
        base_->memory(), g.regionBase_,
        [this, idx, core, sched_core, done = std::move(done)] {
            if (!hasGuest(idx)) {
                if (done)
                    done(idx);
                return;
            }
            Slot &sl = slots_[idx];
            sl.guest->hv_->migrateTo(*core, sched_.get(), sched_core);
            double w = 1.0;
            if (sl.containment.state == GuestHealth::Suspect)
                w = params_.containment.suspectPollWeight;
            else if (sl.containment.state == GuestHealth::Quarantined)
                w = 0.0;
            sl.guest->hv_->setPollWeight(w);
            if (done)
                done(idx);
        });
    return idx;
}

void
BmHiveServer::flightDump(unsigned i, const char *trigger)
{
    obsDumpTriggers_.inc();
    if (!hasGuest(i) || !slots_[i].guest->flight_)
        return;
    Slot &slot = slots_[i];
    Tick now = curTick();
    if (slot.lastDumpAt != maxTick &&
        now - slot.lastDumpAt < params_.obs.flightDumpCooldown) {
        obsDumpSuppressed_.inc();
        return;
    }
    slot.lastDumpAt = now;
    unsigned seq = slot.dumpSeq++;
    const std::string &dir = params_.obs.flightDumpDir;
    if (dir.empty())
        return;
    // Prefix with this server's (sanitized) name: in a fleet, two
    // servers can host a guest with the same slot index, and their
    // dumps must not clobber each other in a shared dump dir.
    std::string who = name();
    std::replace(who.begin(), who.end(), '.', '_');
    std::string path = dir + "/flight_" + who + "_guest" +
                       std::to_string(i) + "_" + trigger + "_" +
                       std::to_string(seq) + ".json";
    // The directory is made on the first dump, so a run that never
    // dumps leaves none behind.
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
    if (slot.guest->flight_->writeChromeJson(
            path, params_.obs.flightDumpLast, trigger)) {
        obsDumps_.inc();
        lastFlightDumpPath_ = path;
        inform(name(), ": guest", i, " flight dump (", trigger,
               ") -> ", path);
    } else {
        warn(name(), ": guest", i, " flight dump failed: ", path);
    }
}

void
BmHiveServer::onDeviceReset(unsigned idx, unsigned fn)
{
    if (!hasGuest(idx))
        return;
    // Quarantine release resets every function by design; those
    // resets belong to the quarantine story already dumped at
    // entry, not a fresh anomaly.
    if (slots_[idx].containment.state == GuestHealth::Quarantined)
        return;
    logDebug("guest", idx, " fn", fn, " DEVICE_NEEDS_RESET");
    flightDump(idx, "reset");
}

void
BmHiveServer::onIntegrityEscalation(unsigned idx, unsigned fn)
{
    if (!hasGuest(idx))
        return;
    integrityEscalations_.inc();
    if (auto *fr = slots_[idx].guest->flight_.get())
        fr->record(curTick(), obs::FlightEvent::IntegrityEscalate,
                   int(fn), 0, idx, 0);
    warn(name(), ": guest", idx, " fn", fn,
         " persistent corruption escalated past reset");
    flightDump(idx, "integrity_escalation");
    // Repeated escalations point at the board or its IO-Bond, not
    // one unlucky transfer: declare the server unhealthy once so
    // the fleet controller can proactively migrate guests away.
    if (!integrityUnhealthy_ &&
        integrityEscalations_.value() >=
            params_.integrity.serverUnhealthyThreshold) {
        integrityUnhealthy_ = true;
        serverUnhealthy_.inc();
        warn(name(), ": integrity escalations reached ",
             params_.integrity.serverUnhealthyThreshold,
             "; marking server unhealthy");
        if (serverUnhealthyCb_)
            serverUnhealthyCb_();
    }
}

void
BmHiveServer::onSloBreach(unsigned idx, obs::SloRole role,
                          double burn)
{
    sloBreaches_.inc();
    if (hasGuest(idx) && slots_[idx].guest->flight_) {
        slots_[idx].guest->flight_->record(
            curTick(), obs::FlightEvent::SloBreach, 0, 0,
            std::uint64_t(role), std::uint64_t(burn * 100.0));
    }
    warn(name(), ": guest", idx, " ", obs::sloRoleName(role),
         " SLO breach (burn rate ", burn, ")");
    flightDump(idx, "slo_breach");
}

GuestHealth
BmHiveServer::guestHealth(unsigned i) const
{
    panic_if(i >= slots_.size(), name(), ": bad guest ", i);
    return slots_[i].containment.state;
}

double
BmHiveServer::guestScore(unsigned i) const
{
    panic_if(i >= slots_.size(), name(), ": bad guest ", i);
    const Containment &c = slots_[i].containment;
    return std::max(0.0, params_.containment.quarantineScore -
                             c.bucket.level(curTick()));
}

void
BmHiveServer::onGuestFault(unsigned idx, fault::GuestFaultKind k)
{
    guestFaultEvents_.inc();
    // Out-of-range or tombstone index: a fault fired during a
    // rolled-back provision, or from a bond whose guest has since
    // been exported to another server.
    if (!params_.containment.enabled || !hasGuest(idx))
        return;
    BmGuest &g = *slots_[idx].guest;
    Containment &c = slots_[idx].containment;
    if (c.state == GuestHealth::Quarantined)
        return; // already parked; drops are counted at the bridge
    // Leaky bucket: clean time refills the bucket (draining the
    // score) before the new fault takes its point, so sporadic
    // faults never escalate.
    if (c.state == GuestHealth::Suspect &&
        guestScore(idx) <= params_.containment.suspectScore / 2) {
        c.state = GuestHealth::Healthy;
        g.hypervisor().setPollWeight(1.0);
        if (g.flight_)
            g.flight_->record(curTick(),
                              obs::FlightEvent::Containment, 0, 0, 0);
    }
    c.bucket.forceConsume(curTick(), 1.0);
    double score = guestScore(idx);
    if (score >= params_.containment.quarantineScore) {
        warn(name(), ": guest", idx, " containment score ",
             score, " after ", fault::guestFaultName(k),
             "; quarantining");
        quarantineGuest(idx);
    } else if (score >= params_.containment.suspectScore &&
               c.state == GuestHealth::Healthy) {
        c.state = GuestHealth::Suspect;
        suspects_.inc();
        if (g.flight_)
            g.flight_->record(curTick(),
                              obs::FlightEvent::Containment, 0, 0, 1);
        // Under shared polling a Suspect also loses scheduler
        // share; under dedicated polling this is a no-op.
        g.hypervisor().setPollWeight(
            params_.containment.suspectPollWeight);
        warn(name(), ": guest", idx, " suspect (score ", score,
             ", last fault ", fault::guestFaultName(k), ")");
    }
}

void
BmHiveServer::quarantineGuest(unsigned i)
{
    panic_if(i >= slots_.size(), name(), ": bad guest ", i);
    if (!slots_[i].guest)
        return; // exported mid-escalation
    BmGuest &g = *slots_[i].guest;
    Containment &c = slots_[i].containment;
    if (c.state == GuestHealth::Quarantined)
        return;
    c.state = GuestHealth::Quarantined;
    c.quarantinedAt = curTick();
    g.bond().setQuarantined(true);
    // Starve the guest at the scheduler too: quarantine means no
    // poll service, not merely swallowed doorbells.
    g.hypervisor().setPollWeight(0.0);
    quarantines_.inc();
    if (g.flight_)
        g.flight_->record(curTick(), obs::FlightEvent::Containment, 0,
                          0, 2);
    flightDump(i, "quarantine");
    scheduleIn(new OneShotEvent([this, i] { releaseQuarantine(i); },
                                "server.quarantine_release"),
               params_.containment.quarantineDwell);
}

void
BmHiveServer::releaseQuarantine(unsigned i)
{
    if (!hasGuest(i))
        return; // exported while parked; the target restarts dwell
    BmGuest &g = *slots_[i].guest;
    Containment &c = slots_[i].containment;
    if (c.state != GuestHealth::Quarantined)
        return;
    quarantineDwell_.record(curTick() - c.quarantinedAt);
    iobond::IoBond &bond = g.bond();
    // The guest re-enters service through a clean reinit: reset
    // every function while the doorbells are still swallowed, then
    // lift the quarantine — the driver's recovery (MSI-driven, so
    // strictly after this call) renegotiates onto fresh rings.
    for (unsigned fn = 0; fn < bond.numFunctions(); ++fn)
        bond.failFunction(fn);
    bond.setQuarantined(false);
    c.state = GuestHealth::Healthy;
    if (g.flight_)
        g.flight_->record(curTick(), obs::FlightEvent::Containment, 0,
                          0, 0);
    c.bucket = TokenBucket(params_.containment.leakPerMs * 1e3,
                           params_.containment.quarantineScore);
    g.hypervisor().setPollWeight(1.0);
    inform(name(), ": guest", i, " quarantine released");
}

void
BmHiveServer::release(BmGuest &g)
{
    panic_if(usedSlots_ == 0, name(), ": release with no guests");
    g.hypervisor().powerOffGuest();
    freeRegions_.push_back(g.regionBase_);
    --usedSlots_;
}

BmGuest &
BmHiveServer::guest(unsigned i)
{
    panic_if(!hasGuest(i), name(), ": bad guest ", i,
             slots_.size() > i ? " (migrated away)" : "");
    return *slots_[i].guest;
}

} // namespace core
} // namespace bmhive
