/**
 * @file
 * Tests for the partitioned simulation core (sim/partition.hh):
 *
 *  - partition affinity is captured at construction, either
 *    directly or through a shared per-guest cell that re-homes a
 *    whole object group with one write (migration);
 *  - the windowed round loop advances every queue exactly to the
 *    run limit, including idle partitions;
 *  - the cross-partition mailbox delivers in (when, priority,
 *    source, sequence) order, so event histories — and the RNG
 *    shards they consume — are identical for any thread count;
 *  - the conservative-lookahead contract is enforced (a post
 *    inside the parallel phase below the horizon panics), as are
 *    the enablePartitions() preconditions;
 *  - a small partitioned fleet (per-server switches + fabric,
 *    cross-server block and network traffic, one live migration)
 *    produces byte-identical metrics JSON at 1, 2 and 4 threads —
 *    the same determinism gate bench_fleet runs at scale;
 *  - every object reads the clock of the partition running it: a
 *    shared-polling fleet fails over from a power cut, identically
 *    at 1, 2 and 4 threads, and a no-op ticker in every server
 *    partition moves no metric but the round count, neither in a
 *    fleet run nor across a migration abort respawned from control.
 */

#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "base/logging.hh"
#include "cloud/block_service.hh"
#include "cloud/vswitch.hh"
#include "core/instance_catalog.hh"
#include "fault/fault.hh"
#include "fleet/fleet_controller.hh"
#include "sim/sim_object.hh"

namespace bmhive {
namespace {

struct Obj : SimObject
{
    using SimObject::SimObject;
};

/** A copyable capture whose shared state bumps @p count when the
 *  last copy is destroyed. */
std::shared_ptr<int>
dtorProbe(int &count)
{
    return std::shared_ptr<int>(new int(0), [&count](int *p) {
        ++count;
        delete p;
    });
}

TEST(PsimScope, PartitionAffinityCapturedAtConstruction)
{
    Simulation sim;
    sim.enablePartitions(3);
    Obj ctl(sim, "ctl");
    EXPECT_EQ(ctl.partition(), 0u);
    EXPECT_EQ(&ctl.eventq(), &sim.partitionQueue(0));

    std::unique_ptr<Obj> o2;
    {
        psim::PartitionScope scope(sim, 2);
        EXPECT_EQ(sim.currentPartition(), 2u);
        o2 = std::make_unique<Obj>(sim, "o2");
    }
    // The scope is gone; the captured affinity is not.
    EXPECT_EQ(sim.currentPartition(), 0u);
    EXPECT_EQ(o2->partition(), 2u);
    EXPECT_EQ(&o2->eventq(), &sim.partitionQueue(2));
    EXPECT_EQ(&o2->rng(), &sim.partitionRng(2));
    EXPECT_NE(&sim.partitionRng(2), &sim.rng());
}

TEST(PsimScope, SharedCellReHomesObjectGroup)
{
    Simulation sim;
    sim.enablePartitions(3);
    unsigned cell = 1;
    std::unique_ptr<Obj> a, b;
    {
        psim::PartitionScope scope(sim, &cell, 0);
        a = std::make_unique<Obj>(sim, "a");
        b = std::make_unique<Obj>(sim, "b");
    }
    EXPECT_EQ(a->partition(), 1u);
    EXPECT_EQ(b->partition(), 1u);
    // One write re-homes the whole group — the migration path.
    cell = 3;
    EXPECT_EQ(a->partition(), 3u);
    EXPECT_EQ(b->partition(), 3u);
    EXPECT_EQ(&a->eventq(), &sim.partitionQueue(3));
}

TEST(PsimRun, WindowedRunAdvancesAllQueuesToLimit)
{
    Simulation sim;
    psim::Params pp;
    pp.lookahead = usToTicks(1);
    sim.enablePartitions(2, pp); // threads=1: phases run inline
    std::vector<std::pair<unsigned, Tick>> fired;
    EventFunctionWrapper c(
        [&] {
            fired.push_back({0, sim.partitionQueue(0).curTick()});
        },
        "c");
    EventFunctionWrapper s1(
        [&] {
            fired.push_back({1, sim.partitionQueue(1).curTick()});
        },
        "s1");
    EventFunctionWrapper s2(
        [&] {
            fired.push_back({2, sim.partitionQueue(2).curTick()});
        },
        "s2");
    sim.partitionQueue(0).schedule(&c, usToTicks(3));
    sim.partitionQueue(1).schedule(&s1, usToTicks(5));
    sim.partitionQueue(2).schedule(&s2, usToTicks(9));
    // Outside any parallel phase, post() degenerates to a direct
    // (deterministic, single-threaded) schedule.
    Tick posted_at = 0;
    sim.post(2, usToTicks(4), [&] { posted_at = sim.now(); });

    const Tick limit = usToTicks(20);
    sim.run(limit);

    EXPECT_EQ(fired, (std::vector<std::pair<unsigned, Tick>>{
                         {0, usToTicks(3)},
                         {1, usToTicks(5)},
                         {2, usToTicks(9)},
                     }));
    EXPECT_EQ(posted_at, usToTicks(4));
    // Every queue — including ones that went idle early — is
    // parked exactly at the limit (the run-to-drain fix, applied
    // per partition by the coordinator's final park loop).
    for (unsigned p = 0; p < sim.partitions(); ++p)
        EXPECT_EQ(sim.partitionQueue(p).curTick(), limit)
            << "partition " << p;
    // One round per distinct next-event tick: 3, 4, 5, 9 us.
    EXPECT_EQ(sim.metrics().counter("sim.psim.rounds").value(), 4u);
    EXPECT_EQ(sim.metrics().counter("sim.psim.messages").value(),
              0u);
}

/** One run of the mailbox ping scenario: every server partition
 *  runs a periodic chain that draws from its RNG shard and posts a
 *  ping to the next partition at exactly the lookahead horizon.
 *  Each partition's log is touched only by its own executing
 *  thread; the logs (and the round/message counters) must replay
 *  identically for any worker count. */
struct MailboxRun
{
    std::vector<std::vector<std::pair<Tick, unsigned>>> logs;
    std::uint64_t rounds = 0;
    std::uint64_t messages = 0;
};

MailboxRun
runMailboxScenario(unsigned threads)
{
    const unsigned parts = 4;
    Simulation sim(99);
    psim::Params pp;
    pp.threads = threads;
    sim.enablePartitions(parts, pp);
    const Tick step = nsToTicks(300);
    const Tick horizon = sim.lookahead();

    MailboxRun out;
    out.logs.resize(parts + 1);
    std::vector<std::unique_ptr<EventFunctionWrapper>> chains(parts);
    for (unsigned p = 1; p <= parts; ++p) {
        EventQueue &q = sim.partitionQueue(p);
        const unsigned dst = (p % parts) + 1;
        auto *slot = &chains[p - 1];
        *slot = std::make_unique<EventFunctionWrapper>(
            [&sim, &q, &out, p, dst, step, horizon, slot] {
                out.logs[p].push_back(
                    {q.curTick(),
                     unsigned(sim.partitionRng(p).uniformInt(
                         0, 1000))});
                sim.post(dst, q.curTick() + horizon,
                         [&sim, &out, dst, p] {
                             out.logs[dst].push_back(
                                 {sim.now(), 10000 + p});
                         },
                         Event::defaultPri, "ping");
                q.schedule(slot->get(), q.curTick() + step);
            },
            "chain");
        q.schedule(slot->get(), step);
    }
    sim.run(usToTicks(50));
    for (unsigned p = 1; p <= parts; ++p)
        if (chains[p - 1]->scheduled())
            sim.partitionQueue(p).deschedule(chains[p - 1].get());
    out.rounds = sim.metrics().counter("sim.psim.rounds").value();
    out.messages =
        sim.metrics().counter("sim.psim.messages").value();
    return out;
}

TEST(PsimMailbox, OrderingDeterministicAcrossThreadCounts)
{
    MailboxRun base = runMailboxScenario(1);
    EXPECT_GT(base.messages, 0u);
    EXPECT_GT(base.rounds, 0u);
    for (unsigned p = 1; p <= 4; ++p)
        EXPECT_FALSE(base.logs[p].empty()) << "partition " << p;
    for (unsigned threads : {2u, 4u, 8u}) {
        MailboxRun r = runMailboxScenario(threads);
        EXPECT_EQ(r.logs, base.logs) << "threads=" << threads;
        EXPECT_EQ(r.rounds, base.rounds) << "threads=" << threads;
        EXPECT_EQ(r.messages, base.messages)
            << "threads=" << threads;
    }
}

TEST(PsimRun, LookaheadViolationPanics)
{
    Logger::global().setThrowOnDeath(true);
    {
        Simulation sim;
        sim.enablePartitions(2); // threads=1: phase B is inline
        // A cross-partition send from inside the parallel phase
        // below curTick + lookahead would let the destination miss
        // an event it should already have processed.
        EventFunctionWrapper bad(
            [&] { sim.post(2, sim.now() + 1, [] {}, 0, "bad.post"); },
            "bad");
        sim.partitionQueue(1).schedule(&bad, usToTicks(2));
        std::string msg;
        try {
            sim.run(usToTicks(10));
        } catch (const PanicError &e) {
            msg = e.what();
        }
        // The diagnostic names the post by its tag, and the tick.
        EXPECT_NE(msg.find("post 'bad.post' at " +
                           std::to_string(usToTicks(2) + 1)),
                  std::string::npos)
            << msg;
    }
    {
        Simulation sim;
        sim.enablePartitions(2);
        EXPECT_THROW(sim.post(7, 0, [] {}), PanicError);
    }
    Logger::global().setThrowOnDeath(false);
}

TEST(PsimMailbox, PendingPostsFreedWithSimulation)
{
    int direct = 0;
    int mailed = 0;
    {
        Simulation sim;
        sim.enablePartitions(2); // threads=1: phase B is inline
        // One post scheduled directly (outside any round), one
        // buffered in partition 1's outbox during phase B and
        // flushed into partition 2's queue; both land after the
        // run limit.
        sim.post(2, usToTicks(50), [c = dtorProbe(direct)] {});
        EventFunctionWrapper sender(
            [&] {
                sim.post(2, sim.now() + usToTicks(40),
                         [c = dtorProbe(mailed)] {});
            },
            "sender");
        sim.partitionQueue(1).schedule(&sender, usToTicks(2));
        sim.run(usToTicks(10));
        EXPECT_EQ(sim.metrics().counter("sim.psim.messages").value(),
                  1u);
        EXPECT_EQ(sim.partitionQueue(2).size(), 2u);
        EXPECT_EQ(direct + mailed, 0);
    }
    // The partition queue owned both one-shots and freed them.
    EXPECT_EQ(direct, 1);
    EXPECT_EQ(mailed, 1);
}

TEST(PsimRun, EnablePartitionsRequiresPristineSimulation)
{
    Logger::global().setThrowOnDeath(true);
    {
        Simulation sim;
        auto *ev = new OneShotEvent([] {}, "tick");
        sim.eventq().schedule(ev, 10);
        sim.run();
        EXPECT_THROW(sim.enablePartitions(2), PanicError);
    }
    {
        Simulation sim;
        sim.enablePartitions(2);
        EXPECT_THROW(sim.enablePartitions(2), PanicError);
    }
    Logger::global().setThrowOnDeath(false);
}

/** Result of one partitioned fleet run; everything here must be
 *  identical for any thread count. */
struct FleetRun
{
    std::string metrics;
    std::uint64_t rx = 0;
    unsigned finished = 0;
    bool exactly_once = true;
    unsigned migrations = 0;
};

/**
 * A no-op event every 0.3 us in each server partition. It adds
 * events, and with them rounds, and nothing else: a run with it
 * must export the metrics of the run without it, bar
 * sim.psim.rounds. Declare it after the simulation it ticks in.
 */
class Tickers
{
  public:
    explicit Tickers(Simulation &sim) : sim_(sim)
    {
        evs_.resize(sim.partitions());
        for (unsigned p = 1; p < sim.partitions(); ++p) {
            psim::PartitionScope scope(sim, p);
            evs_[p] = std::make_unique<EventFunctionWrapper>(
                [this, p] { tickFrom(p); }, "test.ticker");
            tickFrom(p);
        }
    }

    ~Tickers()
    {
        for (unsigned p = 1; p < evs_.size(); ++p)
            if (evs_[p]->scheduled())
                sim_.partitionQueue(p).deschedule(evs_[p].get());
    }

  private:
    void
    tickFrom(unsigned p)
    {
        sim_.eventq().schedule(evs_[p].get(),
                               sim_.now() + nsToTicks(300));
    }

    Simulation &sim_;
    std::vector<std::unique_ptr<EventFunctionWrapper>> evs_;
};

/** @p json without its sim.psim.rounds entry. */
std::string
withoutRounds(const std::string &json)
{
    std::istringstream in(json);
    std::string out, line;
    while (std::getline(in, line))
        if (line.find("\"sim.psim.rounds\"") == std::string::npos)
            out += line + '\n';
    return out;
}

FleetRun
runPartitionedFleet(unsigned threads, bool ticker = false)
{
    const unsigned servers = 3;
    Simulation sim(77);
    psim::Params pp;
    pp.threads = threads;
    sim.enablePartitions(servers, pp);
    // Constructed after enablePartitions, like bench_fleet: the
    // uplink switch and storage backend live in control partition
    // 0; the controller builds per-server switches and the fabric
    // under per-server partition scopes.
    cloud::VSwitch uplink(sim, "uplink");
    cloud::BlockService storage(sim, "storage", {});
    fleet::FleetParams fp;
    fp.servers = servers;
    fp.server.maxBoards = 2;
    fp.perServerVswitch = true;
    fleet::FleetController fleet(sim, "fleet", uplink, &storage,
                                 fp);

    std::vector<fleet::GuestId> ids;
    for (unsigned i = 0; i < 4; ++i) {
        auto &vol = storage.createVolume("v" + std::to_string(i),
                                         8 * MiB);
        ids.push_back(
            fleet.place(core::InstanceCatalog::evaluated(),
                        0xA0 + i, &vol));
        EXPECT_NE(ids.back(), fleet::invalidGuest);
    }
    std::unique_ptr<Tickers> tickers;
    if (ticker)
        tickers = std::make_unique<Tickers>(sim);
    sim.run(sim.now() + msToTicks(1));

    FleetRun res;
    // Touched only by the receiving guest's partition thread.
    fleet.guest(ids[1]).net().setRxHandler(
        [&res](const cloud::Packet &) { ++res.rx; });

    // Per-request completion slots: each is written only by the
    // owning guest's partition; the vector grows only between runs.
    std::vector<unsigned> completions;
    unsigned issued = 0;
    std::uint64_t tx_seq = 0;
    auto pump = [&] {
        for (auto id : ids) {
            if (!fleet.alive(id) || fleet.migrating(id))
                continue;
            auto &g = fleet.guest(id);
            for (int k = 0; k < 2; ++k) {
                unsigned rid = issued;
                completions.push_back(0);
                bool ok = g.blk()->read(
                    (rid % 64) * 8, 4 * KiB, g.os().cpu(0),
                    [&completions, rid](std::uint8_t, Addr) {
                        ++completions[rid];
                    });
                if (ok) {
                    ++issued;
                } else {
                    completions.pop_back();
                }
            }
        }
        // Cross-server traffic: guest0's server differs from
        // guest1's (spread placement), so these frames cross the
        // rack fabric between per-server switches.
        if (fleet.alive(ids[0]) && !fleet.migrating(ids[0])) {
            auto &src = fleet.guest(ids[0]);
            for (int k = 0; k < 4; ++k) {
                cloud::Packet p;
                p.src = 0xA0;
                p.dst = 0xA1;
                p.len = 128;
                p.seq = tx_seq++;
                src.net().sendPacket(p, true, src.os().cpu(0));
            }
        }
    };

    bool mig_started = false;
    for (int iter = 0; iter < 12; ++iter) {
        pump();
        if (iter == 5) {
            unsigned from = fleet.serverOf(ids[1]);
            for (unsigned d = 1; d < servers && !mig_started; ++d)
                mig_started =
                    fleet.migrate(ids[1], (from + d) % servers);
            EXPECT_TRUE(mig_started);
        }
        sim.run(sim.now() + usToTicks(500));
    }
    sim.run(sim.now() + msToTicks(10));

    res.migrations = unsigned(fleet.migrationsDone());
    for (unsigned c : completions) {
        res.finished += c;
        if (c != 1)
            res.exactly_once = false;
    }
    EXPECT_EQ(res.finished, issued);
    res.metrics = sim.metrics().toJson();
    return res;
}

/**
 * A partitioned fleet whose servers share 2 poll cores among their
 * guests, so idle poll cores sleep and leave their partitions with
 * no events, and a power cut on s0 delivered from the control
 * partition 37 us into the second run. The failover's rebase runs
 * in Phase A; were it to read the lagging clock of a server
 * partition, fleet.finish would land inside the closed window.
 */
std::string
runSharedPowerCut(unsigned threads)
{
    const unsigned servers = 3;
    Simulation sim(77);
    psim::Params pp;
    pp.threads = threads;
    sim.enablePartitions(servers, pp);
    cloud::VSwitch uplink(sim, "uplink");
    cloud::BlockService storage(sim, "storage", {});
    fleet::FleetParams fp;
    fp.servers = servers;
    fp.server.maxBoards = 4;
    fp.server.schedMode = core::SchedMode::Shared;
    fp.server.pollCores = 2;
    fp.perServerVswitch = true;
    fleet::FleetController fleet(sim, "fleet", uplink, &storage,
                                 fp);
    for (unsigned i = 0; i < 4; ++i) {
        auto &vol = storage.createVolume("v" + std::to_string(i),
                                         8 * MiB);
        EXPECT_NE(fleet.place(core::InstanceCatalog::evaluated(),
                              0xB0 + i, &vol),
                  fleet::invalidGuest);
    }
    sim.run(sim.now() + msToTicks(1));
    fault::FaultSpec cut;
    cut.kind = fault::FaultKind::ServerPowerLoss;
    sim.post(0, sim.now() + usToTicks(37),
             [&sim, cut] {
                 EXPECT_TRUE(sim.faults().deliver("fleet.s0", cut));
             },
             Event::defaultPri, "test.power_cut");
    sim.run(sim.now() + msToTicks(5));
    EXPECT_GT(fleet.failovers(), 0u);
    EXPECT_EQ(fleet.migrationsDone(), fleet.failovers());
    EXPECT_EQ(fleet.lostGuests(), 0u);
    return sim.metrics().toJson();
}

TEST(PsimFleet, SharedPollingPowerCutFailsOverDeterministically)
{
    std::string base = runSharedPowerCut(1);
    for (unsigned threads : {2u, 4u})
        EXPECT_EQ(runSharedPowerCut(threads), base)
            << "threads=" << threads;
}

/**
 * A planned migration in a partitioned fleet whose source backend
 * crashes mid-drain: blk reads held at storage by a BlockDelay keep
 * the drain open, a control post crashes the source backend, and
 * the settle poll aborts the migration and respawns the backend
 * from Phase A. The guests share sleeping poll cores, so server
 * partitions go idle and a round may begin well past a server
 * queue's clock.
 */
std::string
runMigrationAbort(bool ticker)
{
    const unsigned servers = 3;
    Simulation sim(78);
    psim::Params pp;
    pp.threads = 2;
    sim.enablePartitions(servers, pp);
    cloud::VSwitch uplink(sim, "uplink");
    cloud::BlockService storage(sim, "storage", {});
    fleet::FleetParams fp;
    fp.servers = servers;
    fp.server.maxBoards = 2;
    fp.server.schedMode = core::SchedMode::Shared;
    fp.server.pollCores = 2;
    fp.perServerVswitch = true;
    fleet::FleetController fleet(sim, "fleet", uplink, &storage,
                                 fp);
    std::vector<fleet::GuestId> ids;
    for (unsigned i = 0; i < 2; ++i) {
        auto &vol = storage.createVolume("v" + std::to_string(i),
                                         8 * MiB);
        ids.push_back(fleet.place(core::InstanceCatalog::evaluated(),
                                  0xC0 + i, &vol));
        EXPECT_NE(ids.back(), fleet::invalidGuest);
    }
    std::unique_ptr<Tickers> tickers;
    if (ticker)
        tickers = std::make_unique<Tickers>(sim);
    sim.run(sim.now() + msToTicks(1));

    const fleet::GuestId id = ids[0];
    auto &g = fleet.guest(id);
    fault::FaultSpec hold;
    hold.kind = fault::FaultKind::BlockDelay;
    hold.count = 4;
    hold.duration = usToTicks(500);
    EXPECT_TRUE(sim.faults().deliver("storage", hold));
    // Written by the guest's partition only; read between runs.
    unsigned done = 0;
    for (unsigned k = 0; k < 4; ++k)
        EXPECT_TRUE(g.blk()->read(k * 8, 4 * KiB, g.os().cpu(0),
                                  [&done](std::uint8_t, Addr) {
                                      ++done;
                                  }));
    sim.run(sim.now() + usToTicks(50));
    EXPECT_TRUE(
        fleet.migrate(id, (fleet.serverOf(id) + 1) % servers));
    sim.post(0, sim.now() + usToTicks(37),
             [&fleet, id] { fleet.guest(id).hypervisor().crash(); },
             Event::defaultPri, "test.crash");
    sim.run(sim.now() + msToTicks(3));
    EXPECT_EQ(fleet.migrationAborts(), 1u);
    EXPECT_EQ(fleet.migrationsDone(), 0u);
    EXPECT_EQ(done, 4u);
    return sim.metrics().toJson();
}

TEST(PsimFleet, MetricsIndependentOfEventDensity)
{
    // Objects read the clock of the partition running them, so
    // where a round begins, which only the event mix decides,
    // moves nothing but the round count. The fleet runs on one
    // thread: a vCPU kick its migrating guest queued before the
    // move still runs on the source partition, which on several
    // threads races the destination's (the thread-count test and
    // the TSan run cover that), and this test is about rounds.
    FleetRun plain = runPartitionedFleet(1);
    FleetRun ticked = runPartitionedFleet(1, /*ticker=*/true);
    EXPECT_NE(plain.metrics, ticked.metrics); // the rounds differ
    EXPECT_EQ(withoutRounds(ticked.metrics),
              withoutRounds(plain.metrics));

    std::string abort_plain = runMigrationAbort(false);
    std::string abort_ticked = runMigrationAbort(true);
    EXPECT_NE(abort_plain, abort_ticked);
    EXPECT_EQ(withoutRounds(abort_ticked), withoutRounds(abort_plain));
}

TEST(PsimFleet, MetricsByteIdenticalAcrossThreadCounts)
{
    FleetRun base = runPartitionedFleet(1);
    EXPECT_TRUE(base.exactly_once);
    EXPECT_GT(base.finished, 0u);
    EXPECT_GT(base.rx, 0u);
    EXPECT_EQ(base.migrations, 1u);
    for (unsigned threads : {2u, 4u}) {
        FleetRun r = runPartitionedFleet(threads);
        // The determinism gate: the merged metric export is
        // byte-identical, not merely statistically close.
        EXPECT_EQ(r.metrics, base.metrics)
            << "threads=" << threads;
        EXPECT_EQ(r.rx, base.rx) << "threads=" << threads;
        EXPECT_EQ(r.finished, base.finished)
            << "threads=" << threads;
        EXPECT_TRUE(r.exactly_once) << "threads=" << threads;
    }
}

} // namespace
} // namespace bmhive
