/**
 * @file
 * PollScheduler tests: DWRR fairness and batching, the adaptive
 * poll governor (busy -> backoff -> sleep and bounded-latency
 * wake), containment weights, the Dedicated loop's fixed cadence,
 * per-unit wedge detection under both policies — plus
 * shared-mode BmHiveServer integration: end-to-end I/O on a
 * 2-core pool, scheduler-level quarantine starvation, and
 * same-seed determinism of the metrics snapshot.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "cloud/block_service.hh"
#include "cloud/vswitch.hh"
#include "core/bmhive_server.hh"
#include "core/instance_catalog.hh"
#include "sched/poll_scheduler.hh"
#include "workloads/guest_iface.hh"
#include "workloads/net_perf.hh"

namespace bmhive {
namespace {

using sched::PollScheduler;
using sched::PollSchedulerParams;

class FakePollable : public sched::Pollable
{
  public:
    explicit FakePollable(std::string name, Simulation *sim = nullptr)
        : name_(std::move(name)), sim_(sim)
    {
    }

    unsigned
    servicePoll(unsigned budget, hw::CpuExecutor &) override
    {
        ++polls_;
        lastBudget_ = budget;
        if (sim_)
            lastPollAt_ = sim_->now();
        auto n = std::min<std::uint64_t>(budget, pending_);
        if (n > 0 && served_ == 0 && sim_)
            firstServedAt_ = sim_->now();
        pending_ -= n;
        served_ += n;
        return unsigned(n);
    }

    bool pollAlive() const override { return alive_; }
    Tick pollBlockedUntil() const override { return blockedUntil_; }

    std::string name_;
    Simulation *sim_ = nullptr;
    std::uint64_t pending_ = 0;
    std::uint64_t polls_ = 0;
    std::uint64_t served_ = 0;
    unsigned lastBudget_ = 0;
    Tick lastPollAt_ = 0;
    Tick firstServedAt_ = 0; ///< first poll that found the work
    bool alive_ = true;
    Tick blockedUntil_ = 0;
};

class SchedTest : public ::testing::Test
{
  protected:
    SchedTest() : sim(7)
    {
        for (int i = 0; i < 2; ++i) {
            cpus.push_back(std::make_unique<hw::CpuExecutor>(
                sim, "cpu" + std::to_string(i)));
        }
    }

    PollScheduler &
    make(PollSchedulerParams p = {})
    {
        sched = std::make_unique<PollScheduler>(
            sim, "sched",
            std::vector<hw::CpuExecutor *>{cpus[0].get(),
                                           cpus[1].get()},
            p);
        return *sched;
    }

    Simulation sim;
    std::vector<std::unique_ptr<hw::CpuExecutor>> cpus;
    std::unique_ptr<PollScheduler> sched;
};

TEST_F(SchedTest, DwrrSharesFollowWeights)
{
    auto &s = make();
    FakePollable a("a"), b("b");
    a.pending_ = b.pending_ = 1u << 30; // always backlogged
    s.add(0, a, 1.0, a.name_);
    s.add(0, b, 0.25, b.name_);
    sim.run(sim.now() + msToTicks(2));
    ASSERT_GT(b.served_, 0u);
    double ratio = double(a.served_) / double(b.served_);
    // Weight 1.0 vs 0.25: the heavy guest gets ~4x the items.
    EXPECT_NEAR(ratio, 4.0, 0.4);
    // Per-round budget is capped at one quantum of credit.
    EXPECT_EQ(a.lastBudget_, s.params().quantum);
}

TEST_F(SchedTest, DryRunForfeitsDeficit)
{
    auto &s = make();
    FakePollable a("a");
    auto h = s.add(0, a, 1.0, a.name_);
    a.pending_ = 3; // runs dry on the first round
    sim.run(sim.now() + msToTicks(1));
    EXPECT_EQ(a.served_, 3u);
    // The unused deficit was forfeited: when work reappears the
    // budget restarts at one quantum, not at the hoarded credit.
    a.pending_ = 1u << 20;
    s.wake(h);
    sim.run(sim.now() + msToTicks(1));
    EXPECT_EQ(a.lastBudget_, s.params().quantum);
}

TEST_F(SchedTest, GovernorBacksOffAndSleeps)
{
    auto &s = make();
    FakePollable a("a");
    s.add(0, a, 1.0, a.name_); // registered but idle
    sim.run(sim.now() + msToTicks(2));
    // Busy-polling 2 ms at the 2 us period would be ~1000 rounds;
    // the governor backs off exponentially and then sleeps.
    EXPECT_GE(s.sleeps(0), 1u);
    EXPECT_LT(s.rounds(0), 60u);
    auto settled = s.rounds(0);
    sim.run(sim.now() + msToTicks(2));
    EXPECT_EQ(s.rounds(0), settled); // asleep: no rounds at all
}

TEST_F(SchedTest, WakeResumesWithinBoundedLatency)
{
    auto &s = make();
    FakePollable a("a", &sim);
    auto h = s.add(0, a, 1.0, a.name_);
    sim.run(sim.now() + msToTicks(2)); // drift into sleep
    ASSERT_GE(s.sleeps(0), 1u);

    Tick posted = sim.now();
    a.pending_ = 8;
    s.wake(h); // the IO-Bond doorbell path
    sim.run(sim.now() + msToTicks(1));
    EXPECT_EQ(a.served_, 8u);
    EXPECT_GE(a.firstServedAt_, posted);
    EXPECT_LE(a.firstServedAt_ - posted, s.params().wakeLatency);
    EXPECT_GE(s.wakes(0), 1u);
    EXPECT_GE(s.wakeToPoll(0).count(), 1u);
}

TEST_F(SchedTest, WeightZeroStarvesUntilRestored)
{
    auto &s = make();
    FakePollable a("a");
    auto h = s.add(0, a, 1.0, a.name_);
    s.setWeight(h, 0.0);
    a.pending_ = 100;
    s.wake(h); // a starved guest's doorbell must not buy service
    sim.run(sim.now() + msToTicks(2));
    EXPECT_EQ(a.served_, 0u);

    s.setWeight(h, 1.0); // restoration picks the posted work up
    sim.run(sim.now() + msToTicks(2));
    EXPECT_EQ(a.served_, 100u);
}

TEST_F(SchedTest, WedgedSeesStalledNotIdleOrStarved)
{
    auto &s = make();
    FakePollable stalled("stalled"), idle("idle"),
        starved("starved");
    stalled.blockedUntil_ = secToTicks(10); // e.g. hv stall fault
    stalled.pending_ = 5;
    auto hs = s.add(0, stalled, 1.0, stalled.name_);
    auto hi = s.add(0, idle, 1.0, idle.name_);
    auto hz = s.add(1, starved, 1.0, starved.name_);
    s.setWeight(hz, 0.0);
    starved.pending_ = 5;
    s.wake(hs);
    s.wake(hz);

    // Dedicated loops need no posted work: alive and unvisited for
    // a whole window is wedged, stalls included.
    FakePollable dstalled("dstalled"), didle("didle"),
        dstopped("dstopped");
    dstalled.blockedUntil_ = secToTicks(10);
    Tick period = s.params().pollPeriod;
    auto ds = s.addDedicated(*cpus[0], dstalled, period);
    auto di = s.addDedicated(*cpus[1], didle, period);
    auto dz = s.addDedicated(*cpus[1], dstopped, period);
    dstopped.alive_ = false; // e.g. mid live-upgrade
    dstopped.replan();

    sim.run(sim.now() + msToTicks(4));
    Tick window = msToTicks(2);
    EXPECT_TRUE(s.wedged(hs, window));  // posted, never visited
    EXPECT_FALSE(s.wedged(hi, window)); // never posted: just idle
    EXPECT_FALSE(s.wedged(hz, window)); // starvation is deliberate
    EXPECT_EQ(s.serviceVisits(hs), 0u);

    EXPECT_TRUE(s.wedged(ds, window));  // stalled past the window
    EXPECT_FALSE(s.wedged(di, window)); // idle, but visited
    EXPECT_FALSE(s.wedged(dz, window)); // stopped on purpose
    EXPECT_EQ(s.serviceVisits(ds), 0u);
    EXPECT_GT(s.serviceVisits(di), 0u);
    EXPECT_EQ(dstopped.polls_, 0u);

    // The window runs from registration: a unit that has not had
    // its first visit yet (a fresh respawn or migration) is not
    // wedged.
    FakePollable fresh("fresh");
    auto df = s.addDedicated(*cpus[0], fresh, period);
    EXPECT_FALSE(s.wedged(df, 0));
}

TEST_F(SchedTest, DedicatedLoopKeepsItsCadence)
{
    auto &s = make();
    const auto names = sim.metrics().size();
    FakePollable a("a", &sim);
    const Tick period = s.params().pollPeriod;
    const Tick t0 = sim.now();
    auto h = s.addDedicated(*cpus[0], a, period);

    // Idle, yet visited exactly once per period with an unlimited
    // budget: no backoff, no sleep, and no metrics of its own.
    sim.run(t0 + 100 * period);
    EXPECT_EQ(a.polls_, 100u);
    EXPECT_EQ(s.serviceVisits(h), 100u);
    EXPECT_EQ(a.lastPollAt_, t0 + 100 * period);
    EXPECT_EQ(a.lastBudget_, std::numeric_limits<unsigned>::max());
    EXPECT_EQ(sim.metrics().size(), names);

    // A busy core holds the visit after next until busyUntil().
    const Tick busy = cpus[0]->charge(10 * period);
    sim.run(busy - 1);
    EXPECT_EQ(a.lastPollAt_, t0 + 101 * period);
    sim.run(busy);
    EXPECT_EQ(a.lastPollAt_, busy);

    // A reported stall moves the next visit to its end at once.
    auto polls = a.polls_;
    a.blockedUntil_ = sim.now() + 50 * period;
    a.replan();
    sim.run(a.blockedUntil_ - 1);
    EXPECT_EQ(a.polls_, polls);
    sim.run(a.blockedUntil_);
    EXPECT_EQ(a.polls_, polls + 1);
    EXPECT_EQ(a.lastPollAt_, a.blockedUntil_);

    // An unreported one is found at the next visit and waited out.
    a.blockedUntil_ = sim.now() + 50 * period;
    sim.run(a.blockedUntil_ - 1);
    EXPECT_EQ(a.polls_, polls + 1);
    sim.run(a.blockedUntil_);
    EXPECT_EQ(a.lastPollAt_, a.blockedUntil_);
}

TEST_F(SchedTest, PlacementPicksLeastLoadedCore)
{
    auto &s = make();
    FakePollable a("a"), b("b"), c("c");
    EXPECT_EQ(s.leastLoadedCore(), 0u);
    auto ha = s.add(0, a, 1.0, a.name_);
    EXPECT_EQ(s.leastLoadedCore(), 1u);
    s.add(1, b, 1.0, b.name_);
    EXPECT_EQ(s.leastLoadedCore(), 0u);
    s.add(0, c, 1.0, c.name_);
    EXPECT_EQ(s.pollablesOn(0), 2u);
    s.remove(ha);
    EXPECT_EQ(s.pollablesOn(0), 1u);
}

TEST_F(SchedTest, AddKicksASleepingCore)
{
    auto &s = make();
    sim.run(sim.now() + msToTicks(1)); // both cores asleep, empty
    FakePollable a("a");
    a.pending_ = 4;
    s.add(0, a, 1.0, a.name_); // registration alone must discover the work
    sim.run(sim.now() + msToTicks(1));
    EXPECT_EQ(a.served_, 4u);
}

// --- Shared-mode server integration ---

core::BmServerParams
sharedParams(unsigned poll_cores)
{
    core::BmServerParams p;
    p.maxBoards = 4;
    p.schedMode = core::SchedMode::Shared;
    p.pollCores = poll_cores;
    return p;
}

class SharedServerTest : public ::testing::Test
{
  protected:
    SharedServerTest()
        : sim(11), vswitch(sim, "vs"), storage(sim, "st"),
          server(sim, "srv", vswitch, &storage, sharedParams(2))
    {
    }

    core::BmGuest &
    guestWithVolume(cloud::MacAddr mac)
    {
        auto &vol = storage.createVolume("v" + std::to_string(mac),
                                         8 * MiB);
        return server.provision(core::InstanceCatalog::evaluated(),
                                mac, &vol);
    }

    bool
    writeOk(core::BmGuest &g)
    {
        bool ok = false;
        std::vector<std::uint8_t> data(512, 0x5a);
        g.blk()->write(8, 512, &data, g.os().cpu(1),
                       [&ok](std::uint8_t st, Addr) {
                           ok = (st == virtio::VIRTIO_BLK_S_OK);
                       });
        sim.run(sim.now() + msToTicks(30));
        return ok;
    }

    Simulation sim;
    cloud::VSwitch vswitch;
    cloud::BlockService storage;
    core::BmHiveServer server;
};

TEST_F(SharedServerTest, FourGuestsOnTwoCoresDoIo)
{
    std::vector<core::BmGuest *> gs;
    for (unsigned i = 0; i < 4; ++i)
        gs.push_back(&guestWithVolume(0x10 + i));
    ASSERT_NE(server.scheduler(), nullptr);
    EXPECT_EQ(server.scheduler()->coreCount(), 2u);
    EXPECT_EQ(server.scheduler()->pollablesOn(0), 2u);
    EXPECT_EQ(server.scheduler()->pollablesOn(1), 2u);
    sim.run(sim.now() + msToTicks(1));
    for (auto *g : gs)
        EXPECT_TRUE(writeOk(*g));
}

TEST_F(SharedServerTest, QuarantineStarvesAtTheScheduler)
{
    auto &g0 = guestWithVolume(0x20);
    auto &g1 = guestWithVolume(0x21);
    sim.run(sim.now() + msToTicks(1));
    ASSERT_TRUE(writeOk(g0));

    server.quarantineGuest(0);
    auto polls = g0.hypervisor().service().pollsTotal();
    sim.run(sim.now() + msToTicks(1)); // within the 2 ms dwell
    // Weight 0: the scheduler never visits the quarantined guest's
    // backend, while its neighbor keeps doing I/O.
    EXPECT_EQ(g0.hypervisor().service().pollsTotal(), polls);
    EXPECT_TRUE(writeOk(g1));

    // Dwell expiry releases the quarantine; a fresh write works
    // again through the reset functions.
    sim.run(sim.now() + msToTicks(4));
    EXPECT_EQ(server.guestHealth(0), core::GuestHealth::Healthy);
    EXPECT_TRUE(writeOk(g0));
}

/** One fixed scenario; returns the end-of-run metrics JSON. */
std::string
sharedScenarioJson(std::uint64_t seed)
{
    Simulation sim(seed);
    cloud::VSwitch vswitch(sim, "vs");
    cloud::BlockService storage(sim, "st");
    core::BmHiveServer server(sim, "srv", vswitch, &storage,
                              sharedParams(2));
    auto &va = storage.createVolume("va", 8 * MiB);
    auto &vb = storage.createVolume("vb", 8 * MiB);
    auto &a = server.provision(core::InstanceCatalog::evaluated(),
                               0xa, &va);
    auto &b = server.provision(core::InstanceCatalog::evaluated(),
                               0xb, &vb);
    sim.run(sim.now() + msToTicks(1));

    workloads::PacketFloodParams fp;
    fp.flows = 2;
    fp.batch = 8;
    fp.warmup = msToTicks(1);
    fp.window = msToTicks(5);
    workloads::PacketFlood flood(
        sim, "flood", workloads::GuestContext::of(a),
        workloads::GuestContext::of(b), fp);
    auto r = flood.run();
    EXPECT_GT(r.received, 0u);
    return sim.metrics().toJson();
}

TEST(SharedSchedDeterminism, SameSeedSameMetrics)
{
    // The shared pool must not perturb determinism: two identical
    // runs produce byte-identical metric snapshots (scheduler
    // counters, wake latencies, traces and all).
    auto j1 = sharedScenarioJson(20200316);
    auto j2 = sharedScenarioJson(20200316);
    EXPECT_EQ(j1, j2);
    EXPECT_NE(j1.find("srv.sched.core0.rounds"), std::string::npos);
}

} // namespace
} // namespace bmhive
