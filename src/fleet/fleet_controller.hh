/**
 * @file
 * FleetController: the rack-scale control plane over N BmHiveServer
 * base servers (DESIGN.md section 15). It owns placement (rate-limit
 * class anti-affinity + free-slot scoring), per-server health
 * (fabric heartbeats on top of each server's own watchdog), and the
 * guest mobility machinery the paper's density story needs once a
 * base server itself becomes the failure domain:
 *
 *  - live migration: drain a guest's IO-Bond (doorbells deferred,
 *    backend quiesced), settle in-flight DMA and block I/O, export
 *    the board+bond+hv assembly from the source, and adopt it on
 *    the target — IoBond::rebase replays the published-but-
 *    unfinished window into the target's base memory with the same
 *    exactly-once guarantee as crash recovery, and
 *    BmHypervisor::migrateTo re-homes the PMD. Blackout is the
 *    drain-to-resume interval, recorded per migration.
 *
 *  - reactive failover: server-level faults (power loss, fabric
 *    partition past the fencing threshold) turn into fence +
 *    failover of every hosted guest. A fenced server's processes
 *    are crashed first (STONITH), so a partitioned-but-alive server
 *    can never double-serve a guest that moved.
 *
 *  - planned board hot-swap: drain, migrate the board's functions
 *    to another server, detach, reattach — an operator action, not
 *    a fault reaction.
 */

#ifndef BMHIVE_FLEET_FLEET_CONTROLLER_HH
#define BMHIVE_FLEET_FLEET_CONTROLLER_HH

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/bmhive_server.hh"

namespace bmhive {
namespace fleet {

/** Fleet-wide stable guest handle; survives migrations (the
 *  per-server slot index does not). */
using GuestId = std::uint64_t;
constexpr GuestId invalidGuest = ~GuestId(0);

struct FleetParams
{
    /** Base servers under this controller. */
    unsigned servers = 2;
    /** Shared per-server configuration. */
    core::BmServerParams server = {};
    /** Per-server watchdog period (0 = caller starts watchdogs). */
    Tick watchdogPeriod = usToTicks(100);
    /** Fabric heartbeat sweep period (0 = no health sweep). */
    Tick healthPeriod = usToTicks(100);
    /** Consecutive missed fabric heartbeats before a server is
     *  fenced and its guests failed over. */
    unsigned missedBeatsToFence = 3;
    /** Settle-poll retry while waiting for DMA + block I/O. */
    Tick settleRetry = usToTicks(10);
    /** A planned migration whose block I/O will not settle (e.g. a
     *  lost request) aborts and rolls back after this long; the
     *  respawn's recovery republish re-serves the stuck I/O. */
    Tick settleTimeout = msToTicks(2.0);
    /**
     * Give every base server its own vSwitch, joined by a NetFabric
     * (the real rack topology), instead of sharing the single
     * switch passed to the constructor. Required for a partitioned
     * simulation — per-server switches are what lets each server's
     * events run in its own partition — and valid (topology-
     * visible: cross-server traffic crosses the fabric) in classic
     * mode too.
     */
    bool perServerVswitch = false;
};

class FleetController : public SimObject
{
  public:
    FleetController(Simulation &sim, std::string name,
                    cloud::VSwitch &vswitch,
                    cloud::BlockService *storage = nullptr,
                    FleetParams params = {});
    ~FleetController() override;

    unsigned serverCount() const
    {
        return unsigned(servers_.size());
    }
    core::BmHiveServer &server(unsigned s) { return *servers_[s]; }
    /** The switch server @p s's guests attach to: its own switch
     *  under perServerVswitch, else the shared one. */
    cloud::VSwitch &switchFor(unsigned s)
    {
        return s < switches_.size() ? *switches_[s] : vswitch_;
    }
    /** Fenced or power-lost; never a placement target again. */
    bool serverDead(unsigned s) const { return dead_[s]; }

    /**
     * Provision a guest on the best-scoring live server: most free
     * slots, spreading guests of the same instance (rate-limit)
     * class apart. Returns invalidGuest when no server has a slot
     * or the backend connection fails everywhere.
     */
    GuestId place(const core::InstanceType &type, cloud::MacAddr mac,
                  cloud::Volume *vol = nullptr,
                  bool rate_limited = true);

    /** Known and currently hosted (false after a lost board, true
     *  mid-migration — the guest exists, it is just in transit). */
    bool alive(GuestId id) const;
    /** Panics unless alive and not between export and adoption. */
    core::BmGuest &guest(GuestId id);
    /** Server currently (or last) hosting @p id. */
    unsigned serverOf(GuestId id) const;
    unsigned indexOf(GuestId id) const;
    bool migrating(GuestId id) const
    {
        return migrations_.count(id) != 0;
    }
    unsigned
    migrationsInFlight() const
    {
        return unsigned(migrations_.size());
    }

    /**
     * Start a live migration of @p id to @p target. Returns false
     * (nothing started) on an unknown guest, a dead or full target,
     * or a migration already in flight for this guest. @p done
     * fires with true on resume, false on abort-and-rollback.
     */
    bool migrate(GuestId id, unsigned target,
                 std::function<void(bool)> done = nullptr);

    /**
     * Planned maintenance: migrate every guest off server @p s
     * (each to its own best target). Returns the number of
     * migrations started; the server is NOT marked dead — after the
     * drain it is an empty, healthy placement target again.
     */
    unsigned drainServer(unsigned s);

    /**
     * Planned board hot-swap: drain the guest, migrate its board's
     * functions to the best other server, detach the board from the
     * source chassis and reattach it in the target (the board+bond
     * assembly travels with the export). Counted separately from
     * reactive failovers.
     */
    bool hotSwapBoard(GuestId id,
                      std::function<void(bool)> done = nullptr);

    void startHealthSweep(Tick period);

    // --- fleet metrics accessors (names: "<name>.*") ---
    std::uint64_t placements() const { return placements_.value(); }
    std::uint64_t
    migrationsDone() const
    {
        return migrationsDone_.value();
    }
    std::uint64_t
    migrationAborts() const
    {
        return migrationAborts_.value();
    }
    std::uint64_t failovers() const { return failovers_.value(); }
    std::uint64_t fences() const { return fences_.value(); }
    std::uint64_t hotSwaps() const { return hotSwaps_.value(); }
    std::uint64_t lostGuests() const { return lostGuests_.value(); }
    /** Proactive evacuations of integrity-unhealthy servers. */
    std::uint64_t
    integrityDrains() const
    {
        return integrityDrains_.value();
    }
    /** Drain-to-resume interval of every completed migration. */
    const LatencyRecorder &blackout() const { return blackout_; }

  private:
    /** Where a guest currently lives. */
    struct Loc
    {
        unsigned server = 0;
        unsigned idx = 0;
    };

    /** One migration in flight (DESIGN.md section 15.2): Drain ->
     *  Settle -> Commit -> Adopt -> (resume). The guest's drained
     *  bond is its only "migrating" mark on either server. Abort
     *  and rollback start only in settle(), which runs only before
     *  Commit — the export is the point of no return. */
    struct Migration
    {
        GuestId id = invalidGuest;
        unsigned src = 0;
        unsigned dst = 0;
        unsigned srcIdx = 0;
        Tick drainStart = 0;
        /** Reactive (source fenced/dead): no rollback possible and
         *  the settle condition drops the block-drain term (a dead
         *  service's in-flight I/O is generation-fenced, not
         *  completed). */
        bool failover = false;
        bool hotSwap = false;
        std::function<void(bool)> done;
    };

    void beginMigration(Migration m);
    void settle(GuestId id);
    void commit(GuestId id);
    void finish(GuestId id, unsigned new_idx);
    void abortMigration(GuestId id, unsigned reason);

    void healthSweep();
    bool serverFault(unsigned s, const fault::FaultSpec &spec);
    void powerLoss(unsigned s);
    void boardFail(unsigned s, unsigned idx);
    /** Partitioned past the threshold: mark @p s dead, then fail
     *  its guests over. */
    void fence(unsigned s);
    /** STONITH and move: crash every backend still hosted on the
     *  dead server @p s, then fail each guest over. A pre-commit
     *  migration off @p s becomes a failover in place. */
    void failoverServer(unsigned s);

    /** Event partition hosting server @p s (round-robin over the
     *  worker partitions; 0 when the simulation is classic). */
    unsigned partitionFor(unsigned s) const;

    /** Best placement target (-1: none). @p type drives the
     *  class-anti-affinity term; @p exclude skips one server and
     *  @p skip (optional) a set of already-tried ones. In-flight
     *  migration reservations count against a server's capacity. */
    int pickTarget(const core::InstanceType *type, unsigned exclude,
                   const std::vector<bool> *skip = nullptr) const;
    GuestId guestAt(unsigned s, unsigned idx) const;

    FleetParams params_;
    cloud::VSwitch &vswitch_;
    cloud::BlockService *storage_;
    /** perServerVswitch topology: one switch per server, joined by
     *  the fabric. Declared before servers_ so ports outlive the
     *  hypervisors that hold them. */
    std::unique_ptr<cloud::NetFabric> fabric_;
    std::vector<std::unique_ptr<cloud::VSwitch>> switches_;
    std::vector<std::unique_ptr<core::BmHiveServer>> servers_;
    std::vector<bool> dead_;
    std::vector<Tick> partitionedUntil_;
    std::vector<unsigned> missedBeats_;
    /** Per-server slots promised to in-flight migrations; a slot
     *  is only physically consumed at adoption, so without this,
     *  parallel failovers would over-commit a target. */
    std::vector<unsigned> reserved_;
    std::map<GuestId, Loc> locs_;
    std::map<GuestId, Migration> migrations_;
    GuestId nextId_ = 0;
    Tick healthPeriod_ = 0;

    Counter &placements_;
    Counter &migrationStarts_;
    Counter &migrationsDone_;
    Counter &migrationAborts_;
    Counter &failovers_;
    Counter &fences_;
    Counter &boardFailures_;
    Counter &hotSwaps_;
    Counter &lostGuests_;
    Counter &integrityDrains_;
    LatencyRecorder &blackout_;
    EventFunctionWrapper healthEvent_;
};

} // namespace fleet
} // namespace bmhive

#endif // BMHIVE_FLEET_FLEET_CONTROLLER_HH
