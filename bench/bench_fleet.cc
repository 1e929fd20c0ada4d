/**
 * @file
 * Rack-scale failover bench (FLT): an 8-server fleet carrying 64
 * bm-guests rides out a migration storm — at least 100 live
 * migrations, including the reactive failovers from two injected
 * base-server power losses — while every guest runs a fixed-rate
 * 4 KiB random-read workload. Reports migration blackout p50/p99
 * and the throughput of the control group (guests that never
 * migrate) during the storm relative to their own storm-free
 * baseline window.
 *
 * Exits non-zero when any invariant breaks:
 *  - any block request lost or duplicated (across every blackout,
 *    rollback, and power-loss failover);
 *  - fewer completed migrations than the target, or no failovers;
 *  - a control-group guest migrated, or the control group's storm
 *    throughput fell below 95% of its baseline.
 *
 * The fleet always polls dedicated: --sched=shared and
 * --poll-cores=N are fatal errors rather than silently ignored
 * (shared-mode fleets on 2 sim threads panic, DESIGN.md 18.7).
 */

#include <chrono>
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "bench/common.hh"
#include "core/instance_catalog.hh"
#include "fleet/fleet_controller.hh"

using namespace bmhive;
using namespace bmhive::bench;

namespace {

/** Per-guest fixed-rate reader with per-request completion counts
 *  (0 = lost, >1 = duplicated). The driver pointers live inside
 *  the BmGuest, which travels by unique_ptr across migrations, so
 *  they stay valid through every export/adopt. */
struct GuestLoad
{
    fleet::GuestId id = fleet::invalidGuest;
    guest::BlkDriver *blk = nullptr;
    hw::CpuExecutor *cpu = nullptr;
    std::vector<unsigned> completions;
    std::uint64_t issued = 0;
    std::uint64_t finished = 0;
    bool stopped = false;

    void
    pump(Simulation &sim, Tick period)
    {
        if (!stopped) {
            std::uint64_t rid = issued++;
            completions.push_back(0);
            // A full ring mid-blackout is backpressure, not loss:
            // withdraw the slot and retry next period.
            if (!blk->read((rid % 512) * 8, 4 * KiB, *cpu,
                           [this, rid](std::uint8_t, Addr) {
                               ++completions[rid];
                               ++finished;
                           })) {
                completions.pop_back();
                --issued;
            }
        }
        if (!stopped) {
            auto *ev = new OneShotEvent(
                [this, &sim, period] { pump(sim, period); },
                "load_pump");
            sim.eventq().schedule(ev, sim.now() + period);
        }
    }

    std::uint64_t
    badRequests() const
    {
        std::uint64_t bad = 0;
        for (unsigned c : completions)
            if (c != 1)
                ++bad;
        return bad;
    }
};

} // namespace

int
main(int argc, char **argv)
{
    Session session(argc, argv);
    // The fleet builds its own server params and overlays only the
    // obs flags: a scheduler flag would otherwise be ignored.
    fatal_if(Session::schedShared || Session::pollCores > 0,
             "bench_fleet runs dedicated polling only and rejects "
             "--sched=shared / --poll-cores: shared-mode fleets on 2 "
             "sim threads panic (DESIGN.md section 18.7)");
    banner("fleet",
           "rack-scale failover: migration storm + power-loss "
           "failovers over 8 servers / 64 bm-guests");

    int rc = 0;
    auto check = [&rc](bool ok, const char *what) {
        if (!ok) {
            std::printf("  FAIL: %s\n", what);
            rc = 1;
        }
    };

    const unsigned n_servers = 8;
    const unsigned n_guests = 64;
    // Full run: >=100 completed migrations (planned + failover).
    const unsigned target_migrations = Session::quick ? 16 : 100;

    Simulation sim(20200316 + Session::faultSeed);
    // --sim-threads=N: one event partition per base server, run by
    // N workers under conservative lookahead. Same seed + any N
    // >= 1 produces byte-identical metrics; N=0 keeps the classic
    // single-queue core (note its topology differs: one shared
    // switch instead of per-server switches + fabric).
    if (Session::simThreads > 0) {
        psim::Params pp;
        pp.threads = Session::simThreads;
        sim.enablePartitions(n_servers, pp);
    }
    cloud::VSwitch vswitch(sim, "vswitch");
    // A rack's worth of guests cannot ride one 8-channel storage
    // node: 64 guests x 4k IOPS offered vs ~145k IOPS capacity
    // saturates the cluster, queueing delay dwarfs the settle
    // timeout, and every planned migration aborts. Model the
    // rack-scale cluster with proportionally more channels.
    cloud::BlockServiceParams sp;
    sp.channels = 64;
    cloud::BlockService storage(sim, "storage", sp);
    fleet::FleetParams fp;
    fp.servers = n_servers;
    // 12-slot servers leave 8x4 slots of failover headroom above
    // the 64 placed guests; the e3.8 class admits 16 per server.
    fp.server.maxBoards = 12;
    fp.server = Testbed::withSessionObs(fp.server);
    fp.perServerVswitch = Session::simThreads > 0;
    fleet::FleetController fc(sim, "fleet", vswitch, &storage, fp);
    MetricsCapture::instance().attach("fleet", sim.metrics());

    const core::InstanceType &type =
        core::InstanceCatalog::byName("ebm.xeon-e3.8");
    std::vector<GuestLoad> loads(n_guests);
    for (unsigned i = 0; i < n_guests; ++i) {
        auto &vol = storage.createVolume(
            "vol" + std::to_string(i), 8 * MiB);
        fleet::GuestId id = fc.place(type, 0x100 + i, &vol);
        fatal_if(id == fleet::invalidGuest,
                 "placement failed for guest ", i);
        loads[i].id = id;
        loads[i].blk = fc.guest(id).blk();
        loads[i].cpu = &fc.guest(id).os().cpu(0);
    }
    std::printf("  placed %u guests over %u servers "
                "(%llu placements)\n",
                n_guests, n_servers,
                (unsigned long long)fc.placements());

    // Optional extra chaos on top of the storm: --fault-seed draws
    // doorbell drops, link flaps, and backend stalls/crashes over
    // one mover guest plus fabric port stalls. Storage kinds are
    // deliberately excluded — they would throttle the control
    // group and turn the 95% floor into a storage test.
    fault::FaultInjector chaos(sim, "chaos");
    if (Session::faultSeed != 0) {
        std::vector<fault::FaultInjector::RandomTarget> t = {
            {"fleet.s0.guest0.iobond",
             {fault::FaultKind::LinkFlap,
              fault::FaultKind::DropDoorbell}},
            {"fleet.s0.guest0.hv",
             {fault::FaultKind::HvStall,
              fault::FaultKind::HvCrash}},
            {"vswitch", {fault::FaultKind::PortStall}},
        };
        chaos.randomPlan(Session::faultSeed, t, msToTicks(50.0),
                         16);
        chaos.arm();
    }

    // Wall-clock over the whole driven portion: the --sim-threads
    // scaling story in EXPERIMENTS.md compares this row across
    // thread counts at a fixed seed.
    const auto wall0 = std::chrono::steady_clock::now();
    const Tick sim0 = sim.now();

    sim.run(sim.now() + msToTicks(2.0));
    const Tick pump_period = usToTicks(250);
    for (auto &l : loads)
        l.pump(sim, pump_period);

    // Control group: every guest on the two highest servers. They
    // are never picked for planned migration and their servers
    // never lose power; immigrants land next to them mid-storm.
    const unsigned ctrl0 = n_servers - 2, ctrl1 = n_servers - 1;
    std::vector<unsigned> control, movers;
    for (unsigned i = 0; i < n_guests; ++i) {
        unsigned s = fc.serverOf(loads[i].id);
        (s == ctrl0 || s == ctrl1 ? control : movers).push_back(i);
    }

    // Storm-free baseline window for the control group.
    const Tick baseline_window = Session::window(msToTicks(16.0));
    std::vector<std::uint64_t> ctrl_snap(control.size());
    for (unsigned k = 0; k < control.size(); ++k)
        ctrl_snap[k] = loads[control[k]].finished;
    sim.run(sim.now() + baseline_window);
    std::uint64_t ctrl_base = 0;
    for (unsigned k = 0; k < control.size(); ++k)
        ctrl_base += loads[control[k]].finished - ctrl_snap[k];
    double base_rate =
        double(ctrl_base) / ticksToSec(baseline_window);

    // The storm: rotate planned migrations over the mover guests
    // (never onto the control servers), and cut power to the two
    // lowest servers at 1/3 and 2/3 of the migration target.
    unsigned next_mover = 0;
    unsigned power_cuts = 0;
    bool storm_live = true;
    std::function<void()> storm_tick = [&] {
        std::uint64_t done =
            fc.migrationsDone() + fc.migrationAborts();
        if (power_cuts == 0 &&
            done >= target_migrations / 3 && !fc.serverDead(0)) {
            ++power_cuts;
            fault::FaultSpec spec;
            spec.kind = fault::FaultKind::ServerPowerLoss;
            sim.faults().deliver("fleet.s0", spec);
        } else if (power_cuts == 1 &&
                   done >= 2 * target_migrations / 3 &&
                   !fc.serverDead(1)) {
            ++power_cuts;
            fault::FaultSpec spec;
            spec.kind = fault::FaultKind::ServerPowerLoss;
            sim.faults().deliver("fleet.s1", spec);
        } else if (done < target_migrations) {
            for (unsigned tries = 0;
                 tries < unsigned(movers.size()); ++tries) {
                GuestLoad &l =
                    loads[movers[next_mover++ % movers.size()]];
                if (!fc.alive(l.id) || fc.migrating(l.id))
                    continue;
                unsigned cur = fc.serverOf(l.id);
                unsigned best = cur;
                unsigned best_free = 0;
                for (unsigned s = 0; s < ctrl0; ++s) {
                    if (s == cur || fc.serverDead(s))
                        continue;
                    unsigned free = fc.server(s).freeSlots();
                    if (free > best_free) {
                        best_free = free;
                        best = s;
                    }
                }
                if (best != cur && fc.migrate(l.id, best))
                    break;
            }
        }
        if (storm_live &&
            (done < target_migrations || power_cuts < 2)) {
            auto *ev = new OneShotEvent(storm_tick, "storm");
            sim.eventq().schedule(ev, sim.now() + usToTicks(300));
        }
    };
    const Tick storm_start = sim.now();
    for (unsigned k = 0; k < control.size(); ++k)
        ctrl_snap[k] = loads[control[k]].finished;
    storm_tick();

    // Run until the storm reaches its target (bounded).
    const Tick storm_limit =
        sim.now() + msToTicks(Session::quick ? 200.0 : 600.0);
    while (sim.now() < storm_limit &&
           (fc.migrationsDone() + fc.migrationAborts() <
                target_migrations ||
            power_cuts < 2))
        sim.run(sim.now() + msToTicks(1.0));
    storm_live = false;
    const Tick storm_window = sim.now() - storm_start;
    std::uint64_t ctrl_storm = 0;
    for (unsigned k = 0; k < control.size(); ++k)
        ctrl_storm += loads[control[k]].finished - ctrl_snap[k];
    double storm_rate =
        double(ctrl_storm) / ticksToSec(storm_window);

    // Wind down: stop the pumps, let in-flight work settle.
    for (auto &l : loads)
        l.stopped = true;
    for (int spin = 0; spin < 300; ++spin) {
        bool quiet = true;
        for (auto &l : loads)
            quiet = quiet && l.finished >= l.issued;
        if (quiet && !fc.migrationsInFlight())
            break;
        sim.run(sim.now() + msToTicks(1.0));
    }

    const double wall_ms =
        std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - wall0)
            .count();
    const double sim_ms = ticksToSec(sim.now() - sim0) * 1e3;

    // ---- report ----
    std::uint64_t lost_dup = 0, total_reqs = 0;
    unsigned migrated_controls = 0;
    for (auto &l : loads) {
        lost_dup += l.badRequests();
        total_reqs += l.issued;
    }
    for (unsigned i : control)
        if (fc.guest(loads[i].id).hypervisor().migrations() != 0)
            ++migrated_controls;
    const LatencyRecorder &b = fc.blackout();
    double ratio =
        base_rate > 0.0 ? storm_rate / base_rate : 0.0;

    std::printf("  %-26s %12s\n", "", "value");
    std::printf("  %-26s %12llu\n", "migrations completed",
                (unsigned long long)fc.migrationsDone());
    std::printf("  %-26s %12llu\n", "  of which failovers",
                (unsigned long long)fc.failovers());
    std::printf("  %-26s %12llu\n", "migration aborts",
                (unsigned long long)fc.migrationAborts());
    std::printf("  %-26s %12llu\n", "servers power-lost",
                (unsigned long long)2);
    std::printf("  %-26s %12llu\n", "guests lost",
                (unsigned long long)fc.lostGuests());
    std::printf("  %-26s %12.1f\n", "blackout p50 (us)",
                b.p50Us());
    std::printf("  %-26s %12.1f\n", "blackout p99 (us)",
                b.p99Us());
    std::printf("  %-26s %12.1f\n", "blackout max (us)",
                b.maxUs());
    std::printf("  %-26s %12llu\n", "block requests issued",
                (unsigned long long)total_reqs);
    std::printf("  %-26s %12llu\n", "lost or duplicated",
                (unsigned long long)lost_dup);
    std::printf("  %-26s %12.0f\n", "control base (req/s)",
                base_rate);
    std::printf("  %-26s %12.0f\n", "control storm (req/s)",
                storm_rate);
    std::printf("  %-26s %11.1f%%\n", "control retained",
                100.0 * ratio);
    std::printf("  %-26s %12u\n", "sim threads",
                Session::simThreads);
    std::printf("  %-26s %12.0f\n", "wall clock (ms)", wall_ms);
    std::printf("  %-26s %12.2f\n", "sim ms per wall s",
                wall_ms > 0.0 ? sim_ms / (wall_ms / 1e3) : 0.0);

    check(lost_dup == 0,
          "block requests lost or duplicated across migrations");
    check(fc.migrationsDone() >= target_migrations,
          "migration storm did not reach its target");
    check(fc.failovers() > 0 && power_cuts == 2,
          "power-loss failovers missing");
    check(fc.lostGuests() == 0, "a guest was lost in failover");
    check(migrated_controls == 0,
          "a control-group guest migrated");
    check(ratio >= 0.95,
          "control group lost >5% throughput during the storm");

    note(rc == 0 ? "all fleet invariants held"
                 : "FLEET INVARIANT VIOLATION (see FAIL lines)");
    // Snapshot for the Session exit dump before `sim` (and with it
    // the registry) is destroyed — this bench has no Testbed whose
    // teardown would do it.
    MetricsCapture::instance().detach(sim.metrics());
    return rc;
}
