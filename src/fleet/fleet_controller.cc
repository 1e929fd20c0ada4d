#include "fleet/fleet_controller.hh"

#include <algorithm>
#include <utility>

#include "base/logging.hh"

namespace bmhive {
namespace fleet {

namespace {

/** Per-server watchdog period. */
constexpr Tick watchdogPeriod = usToTicks(100);
/** Fabric heartbeat sweep period. */
constexpr Tick healthPeriod = usToTicks(100);
/** Consecutive missed fabric heartbeats before a server is fenced
 *  and its guests failed over. */
constexpr unsigned missedBeatsToFence = 3;
/** A planned migration whose block I/O will not settle (e.g. a
 *  lost request) aborts and rolls back after this long; the
 *  respawn's recovery republish re-serves the stuck I/O. */
constexpr Tick settleTimeout = msToTicks(2.0);

} // namespace

FleetController::FleetController(Simulation &sim, std::string name,
                                 cloud::VSwitch &vswitch,
                                 cloud::BlockService *storage,
                                 FleetParams params)
    : SimObject(sim, std::move(name)), params_(params),
      vswitch_(vswitch), storage_(storage),
      placements_(metrics().counter(this->name() + ".placements")),
      migrationStarts_(
          metrics().counter(this->name() + ".migration_starts")),
      migrationsDone_(
          metrics().counter(this->name() + ".migrations")),
      migrationAborts_(
          metrics().counter(this->name() + ".migration_aborts")),
      failovers_(metrics().counter(this->name() + ".failovers")),
      fences_(metrics().counter(this->name() + ".fences")),
      boardFailures_(
          metrics().counter(this->name() + ".board_failures")),
      hotSwaps_(metrics().counter(this->name() + ".hot_swaps")),
      lostGuests_(metrics().counter(this->name() + ".lost_guests")),
      integrityDrains_(
          metrics().counter(this->name() + ".integrity.drains")),
      blackout_(metrics().latency(
          this->name() + ".migration.blackout")),
      healthEvent_([this] { healthSweep(); }, "fleet.health_sweep")
{
    fatal_if(params_.servers == 0,
             this->name(), ": a fleet needs at least one server");
    fatal_if(sim.partitioned() && !params_.perServerVswitch,
             this->name(),
             ": a partitioned simulation needs perServerVswitch"
             " (a shared switch would couple every partition)");
    if (params_.perServerVswitch) {
        // The rack fabric (like the controller itself) lives in the
        // control partition; each server's own switch is built in
        // that server's partition below so its events run there.
        fabric_ = std::make_unique<cloud::NetFabric>(
            sim, this->name() + ".fabric");
    }
    for (unsigned s = 0; s < params_.servers; ++s) {
        // Everything belonging to server s — its switch, the base
        // board, and every guest it later provisions — homes in
        // partitionFor(s).
        psim::PartitionScope pscope(sim, partitionFor(s));
        if (fabric_) {
            switches_.push_back(std::make_unique<cloud::VSwitch>(
                sim,
                this->name() + ".vswitch" + std::to_string(s)));
            fabric_->attach(*switches_.back());
        }
        servers_.push_back(std::make_unique<core::BmHiveServer>(
            sim, this->name() + ".s" + std::to_string(s),
            switchFor(s), storage_, params_.server));
        dead_.push_back(false);
        partitionedUntil_.push_back(0);
        missedBeats_.push_back(0);
        reserved_.push_back(0);
        core::BmHiveServer &srv = *servers_.back();
        // Top of the integrity escalation ladder: a server whose
        // corruption persisted past per-queue resets is evacuated
        // proactively while its guests are still live, instead of
        // waiting for it to fail outright. The signal fires from
        // deep inside a poll/completion path in the server's
        // partition, and both the counter and drainServer are
        // control-partition state, so the whole body defers.
        srv.setServerUnhealthyCallback([this, s] {
            sim_.post(
                0, sim_.now() + sim_.lookahead(),
                [this, s] {
                    integrityDrains_.inc();
                    warn(this->name(), ": s", s,
                         " integrity-unhealthy; draining its guests");
                    drainServer(s);
                },
                Event::defaultPri, "fleet.integrity_drain");
        });
        // Server-level fault surface: power, boards, fabric.
        faults().add(srv.name(),
                     [this, s](const fault::FaultSpec &spec) {
                         return serverFault(s, spec);
                     });
        srv.startWatchdog(watchdogPeriod);
    }
    scheduleIn(&healthEvent_, healthPeriod);
}

FleetController::~FleetController()
{
    for (auto &srv : servers_)
        faults().remove(srv->name());
    if (healthEvent_.scheduled())
        eventq().deschedule(&healthEvent_);
}

GuestId
FleetController::place(const core::InstanceType &type,
                       cloud::MacAddr mac, cloud::Volume *vol,
                       bool rate_limited)
{
    std::vector<bool> tried(servers_.size(), false);
    for (int s = pickTarget(&type, unsigned(servers_.size()),
                            &tried);
         s >= 0; s = pickTarget(&type, unsigned(servers_.size()),
                                &tried)) {
        tried[s] = true;
        core::BmGuest *g = servers_[s]->tryProvision(
            type, mac, vol, rate_limited);
        if (g == nullptr)
            continue; // bring-up failed; try the next-best server
        unsigned idx = 0;
        for (; idx < servers_[s]->guestCount(); ++idx)
            if (servers_[s]->hasGuest(idx) &&
                &servers_[s]->guest(idx) == g)
                break;
        GuestId id = nextId_++;
        locs_[id] = {unsigned(s), idx};
        // Per-server switches: the fabric learns which switch the
        // guest's MAC lives behind, so cross-server frames route.
        if (fabric_)
            fabric_->learn(mac, *switches_[s]);
        placements_.inc();
        logDebug("guest ", id, " placed on s", s, " slot ", idx);
        return id;
    }
    warn(name(), ": no server could host a '", type.name,
         "' guest");
    return invalidGuest;
}

bool
FleetController::alive(GuestId id) const
{
    return locs_.count(id) != 0 || migrations_.count(id) != 0;
}

core::BmGuest &
FleetController::guest(GuestId id)
{
    auto it = locs_.find(id);
    panic_if(it == locs_.end(), name(), ": guest ", id,
             migrations_.count(id) ? " is in transit"
                                   : " is not hosted");
    return servers_[it->second.server]->guest(it->second.idx);
}

unsigned
FleetController::serverOf(GuestId id) const
{
    auto it = locs_.find(id);
    if (it != locs_.end())
        return it->second.server;
    auto mt = migrations_.find(id);
    panic_if(mt == migrations_.end(), name(), ": unknown guest ",
             id);
    return mt->second.src;
}

unsigned
FleetController::indexOf(GuestId id) const
{
    auto it = locs_.find(id);
    panic_if(it == locs_.end(), name(), ": guest ", id,
             " is not hosted");
    return it->second.idx;
}

unsigned
FleetController::partitionFor(unsigned s) const
{
    if (!sim_.partitioned())
        return 0;
    unsigned workers = sim_.partitions() - 1;
    return 1 + (s % workers);
}

int
FleetController::pickTarget(const core::InstanceType *type,
                            unsigned exclude,
                            const std::vector<bool> *skip) const
{
    int best = -1;
    long best_score = 0;
    for (unsigned s = 0; s < servers_.size(); ++s) {
        if (s == exclude || dead_[s] || (skip && (*skip)[s]))
            continue;
        unsigned free = servers_[s]->freeSlots();
        if (free <= reserved_[s])
            continue;
        free -= reserved_[s];
        // Free slots dominate; guests of the same instance
        // (rate-limit) class repel each other so one server never
        // concentrates a whole limit class; poll load (live guest
        // count) breaks the remaining ties.
        long same_class = 0, live = 0;
        for (const auto &kv : locs_) {
            if (kv.second.server != s)
                continue;
            ++live;
            if (type != nullptr &&
                servers_[s]
                        ->guest(kv.second.idx)
                        .instance()
                        .name == type->name)
                ++same_class;
        }
        long score = long(free) * 1000 - same_class * 10 - live;
        if (best < 0 || score > best_score) {
            best = int(s);
            best_score = score;
        }
    }
    return best;
}

GuestId
FleetController::guestAt(unsigned s, unsigned idx) const
{
    for (const auto &kv : locs_)
        if (kv.second.server == s && kv.second.idx == idx)
            return kv.first;
    return invalidGuest;
}

// --- migration state machine -------------------------------------

bool
FleetController::migrate(GuestId id, unsigned target,
                         std::function<void(bool)> done)
{
    auto it = locs_.find(id);
    if (it == locs_.end() || migrations_.count(id))
        return false;
    const Loc &l = it->second;
    if (target >= servers_.size() || target == l.server ||
        dead_[target] ||
        servers_[target]->freeSlots() <= reserved_[target])
        return false;
    Migration m;
    m.id = id;
    m.src = l.server;
    m.dst = target;
    m.srcIdx = l.idx;
    m.failover = dead_[l.server];
    m.done = std::move(done);
    beginMigration(std::move(m));
    return true;
}

unsigned
FleetController::drainServer(unsigned s)
{
    // Snapshot first: migrations mutate locs_.
    std::vector<GuestId> ids;
    for (const auto &kv : locs_)
        if (kv.second.server == s)
            ids.push_back(kv.first);
    unsigned moved = 0;
    for (GuestId id : ids) {
        int t = pickTarget(&guest(id).instance(), s);
        if (t >= 0 && migrate(id, unsigned(t)))
            ++moved;
    }
    return moved;
}

bool
FleetController::hotSwapBoard(GuestId id,
                              std::function<void(bool)> done)
{
    auto it = locs_.find(id);
    if (it == locs_.end() || migrations_.count(id))
        return false;
    int t = pickTarget(&guest(id).instance(), it->second.server);
    if (t < 0)
        return false;
    Migration m;
    m.id = id;
    m.src = it->second.server;
    m.dst = unsigned(t);
    m.srcIdx = it->second.idx;
    m.hotSwap = true;
    m.done = std::move(done);
    beginMigration(std::move(m));
    return true;
}

void
FleetController::beginMigration(Migration m)
{
    core::BmGuest &g = servers_[m.src]->guest(m.srcIdx);
    ++reserved_[m.dst];
    m.drainStart = curTick();
    // Drain: the bond defers doorbells, the backend stops taking
    // new work. In-flight block I/O keeps completing (live case)
    // or is generation-fenced (failover case); DMA the bond already
    // accepted finishes either way — IO-Bond rides the board's
    // power domain, not the base server's. The drained bond is
    // also what tells both servers' watchdogs to leave the guest
    // alone until finish() or abortMigration() lifts it.
    g.bond().setDrained(true);
    g.hypervisor().quiesce();
    if (m.failover)
        g.bond().drainCompletions();
    if (g.flight()) {
        g.flight()->record(curTick(), obs::FlightEvent::MigrateStart,
                           0, 0, m.dst, m.failover ? 1 : 0);
        if (m.failover)
            g.flight()->record(curTick(),
                               obs::FlightEvent::Failover, 0, 0,
                               m.src);
    }
    migrationStarts_.inc();
    if (m.failover)
        failovers_.inc();
    GuestId id = m.id;
    logDebug("guest ", id, ": s", m.src, " -> s", m.dst,
             m.failover ? " (failover)"
                        : (m.hotSwap ? " (hot-swap)" : ""));
    migrations_[id] = std::move(m);
    settle(id);
}

void
FleetController::settle(GuestId id)
{
    // Only this poll aborts, and it leaves no retry pending when it
    // does, so the migration is still in flight.
    Migration &m = migrations_.at(id);
    core::BmGuest &g = servers_[m.src]->guest(m.srcIdx);
    hv::BmHypervisor &hv = g.hypervisor();
    if (!m.failover && hv.crashed()) {
        // A planned migration's source backend crashed mid-drain;
        // this poll is the only observer of that (the watchdogs
        // skip drained guests). Abort and roll back; never commit a
        // crashed source as if it had drained. A crash that came
        // with the whole server dying is not this case:
        // failoverServer already made the migration a failover.
        abortMigration(id, /*reason=*/1);
        return;
    }
    bool settled =
        g.bond().dmaIdle() &&
        (m.failover || hv.service().blkInflight() == 0);
    if (!settled) {
        if (!m.failover &&
            curTick() - m.drainStart >= settleTimeout) {
            // Stuck block I/O (e.g. an injected lost request):
            // roll back rather than hold the guest dark forever —
            // the rollback respawn's recovery republish re-serves
            // whatever was stuck.
            abortMigration(id, /*reason=*/2);
            return;
        }
        scheduleIn(new OneShotEvent([this, id] { settle(id); },
                                    "fleet.settle"),
                   params_.settleRetry);
        return;
    }
    commit(id);
}

void
FleetController::commit(GuestId id)
{
    Migration &m = migrations_.at(id);
    core::BmHiveServer &src = *servers_[m.src];
    core::BmHiveServer &dst = *servers_[m.dst];
    core::BmGuest &g = src.guest(m.srcIdx);
    if (g.flight())
        g.flight()->record(curTick(),
                           obs::FlightEvent::MigrateCommit, 0, 0,
                           m.dst);
    // Point of no return: the source forgets the guest (tombstone
    // slot, region freed) and the target owns the assembly. The
    // bond stays drained through adoption, so the target's watchdog
    // leaves the (still quiesced) adoptee alone until finish()
    // lifts the drain.
    locs_.erase(id);
    --reserved_[m.dst]; // the adoption physically takes the slot
    auto landed = [this, id](unsigned new_idx) {
        // The rebase replay completes inside the target partition;
        // fleet bookkeeping (and the drain lift) runs in the
        // control partition.
        sim_.post(0, sim_.now() + sim_.lookahead(),
                  [this, id, new_idx] { finish(id, new_idx); },
                  Event::defaultPri, "fleet.finish");
    };
    dst.adoptGuest(src.exportGuest(m.srcIdx), landed);
}

void
FleetController::finish(GuestId id, unsigned new_idx)
{
    auto it = migrations_.find(id);
    if (it == migrations_.end())
        return;
    Migration m = std::move(it->second);
    migrations_.erase(it);
    core::BmHiveServer &dst = *servers_[m.dst];
    if (!dst.hasGuest(new_idx))
        return; // lost while adopting (e.g. target board fault)
    core::BmGuest &g = dst.guest(new_idx);
    // The guest's port moved to the target's switch during
    // adoption; the fabric re-learns the MAC so frames in flight
    // from other servers follow it.
    if (fabric_)
        fabric_->learn(g.mac(), *switches_[m.dst]);
    // Resume: lifting the drain sweeps every doorbell deferred
    // since drainStart into the freshly rebased rings.
    g.bond().setDrained(false);
    locs_[id] = {m.dst, new_idx};
    Tick blackout = curTick() - m.drainStart;
    blackout_.record(blackout);
    migrationsDone_.inc();
    if (m.hotSwap)
        hotSwaps_.inc();
    if (g.flight())
        g.flight()->record(curTick(), obs::FlightEvent::MigrateDone,
                           0, 0,
                           std::uint64_t(ticksToUs(blackout)));
    logDebug("guest ", id, " resumed on s", m.dst, " slot ",
             new_idx, " (blackout ", ticksToUs(blackout), " us)");
    // The target died while the guest was in transit, so the guest
    // has just landed on a dead server. Every other guest there has
    // already moved, so failing the server over again moves only
    // the newcomer.
    if (dead_[m.dst])
        failoverServer(m.dst);
    if (m.done)
        m.done(true);
}

void
FleetController::abortMigration(GuestId id, unsigned reason)
{
    auto it = migrations_.find(id);
    if (it == migrations_.end())
        return;
    Migration m = std::move(it->second);
    migrations_.erase(it);
    --reserved_[m.dst];
    core::BmHiveServer &src = *servers_[m.src];
    core::BmGuest &g = src.guest(m.srcIdx);
    // Rollback: the guest never left the source. Respawn the
    // backend (republishing the in-flight window right here — the
    // target never saw it, so exactly-once holds), then lift the
    // drain to sweep the deferred doorbells.
    g.hypervisor().respawn();
    g.bond().setDrained(false);
    migrationAborts_.inc();
    if (g.flight())
        g.flight()->record(curTick(), obs::FlightEvent::MigrateAbort,
                           0, 0, reason);
    src.triggerFlightDump(m.srcIdx, "migrate_abort");
    warn(name(), ": guest ", id, " migration s", m.src, " -> s",
         m.dst, " aborted; rolled back");
    if (m.done)
        m.done(false);
}

// --- server health / fault surface -------------------------------

void
FleetController::healthSweep()
{
    for (unsigned s = 0; s < servers_.size(); ++s) {
        if (dead_[s])
            continue;
        if (curTick() < partitionedUntil_[s]) {
            if (++missedBeats_[s] >= missedBeatsToFence)
                fence(s);
        } else {
            missedBeats_[s] = 0; // heal: the partition lifted
        }
    }
    scheduleIn(&healthEvent_, healthPeriod);
}

bool
FleetController::serverFault(unsigned s,
                             const fault::FaultSpec &spec)
{
    switch (spec.kind) {
      case fault::FaultKind::ServerPowerLoss:
        powerLoss(s);
        return true;
      case fault::FaultKind::BoardFail:
        boardFail(s, unsigned(spec.magnitude));
        return true;
      case fault::FaultKind::FabricPartition:
        partitionedUntil_[s] =
            std::max(partitionedUntil_[s],
                     curTick() + spec.duration);
        return true;
      default:
        return false;
    }
}

void
FleetController::powerLoss(unsigned s)
{
    if (dead_[s])
        return;
    warn(name(), ": s", s, " lost power; failing its guests over");
    dead_[s] = true;
    failoverServer(s);
}

void
FleetController::fence(unsigned s)
{
    if (dead_[s])
        return;
    warn(name(), ": s", s, " missed ", missedBeats_[s],
         " heartbeats; fencing (STONITH) and failing over");
    fences_.inc();
    dead_[s] = true;
    failoverServer(s);
}

void
FleetController::failoverServer(unsigned s)
{
    std::vector<GuestId> ids;
    for (const auto &kv : locs_)
        if (kv.second.server == s)
            ids.push_back(kv.first);
    // STONITH before failover. A power cut kills every base-side
    // process at once, and a fenced, partitioned-but-alive server
    // must never keep serving a guest whose replacement is coming
    // up elsewhere: that would be split-brain, not redundancy. DMA
    // the IO-Bonds already accepted still completes (the bonds sit
    // in the boards' power domain); each failover's settle phase
    // waits for exactly that.
    for (GuestId id : ids) {
        hv::BmHypervisor &hv = guest(id).hypervisor();
        if (!hv.crashed())
            hv.crash();
    }
    for (GuestId id : ids) {
        auto mt = migrations_.find(id);
        if (mt != migrations_.end()) {
            // A pre-commit migration off this server (past commit
            // the guest no longer lives here): its source just died,
            // so there is nothing to roll back onto. It completes as
            // a failover, its settle condition relaxed to DMA-idle.
            if (!mt->second.failover) {
                mt->second.failover = true;
                failovers_.inc();
            }
            continue;
        }
        int t = pickTarget(&guest(id).instance(), s);
        if (t < 0) {
            // Released like a failed board: its board powers off
            // and its slot is freed, so the dead server's watchdog
            // (which skips a disconnected backend) cannot respawn
            // the backend STONITH just crashed.
            warn(name(), ": guest ", id,
                 " lost — no failover capacity");
            servers_[s]->release(guest(id));
            lostGuests_.inc();
            locs_.erase(id);
            continue;
        }
        migrate(id, unsigned(t));
    }
}

void
FleetController::boardFail(unsigned s, unsigned idx)
{
    GuestId id = guestAt(s, idx);
    if (id == invalidGuest || migrations_.count(id))
        return;
    warn(name(), ": s", s, " board ", idx,
         " failed; guest ", id, " lost");
    core::BmGuest &g = servers_[s]->guest(idx);
    if (!g.hypervisor().crashed())
        g.hypervisor().crash();
    servers_[s]->release(g);
    boardFailures_.inc();
    lostGuests_.inc();
    locs_.erase(id);
}

} // namespace fleet
} // namespace bmhive
