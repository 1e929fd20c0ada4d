/**
 * @file
 * Unit tests for the discrete-event core: ordering, priorities,
 * rescheduling, one-shot events, and SimObject plumbing.
 */

#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "base/logging.hh"
#include "sim/eventq.hh"
#include "sim/sim_object.hh"

namespace bmhive {
namespace {

/** A copyable capture whose shared state bumps @p count when the
 *  last copy is destroyed: std::function may copy or move it, but
 *  the capture as a whole dies exactly once. */
std::shared_ptr<int>
dtorProbe(int &count)
{
    return std::shared_ptr<int>(new int(0), [&count](int *p) {
        ++count;
        delete p;
    });
}

/** Message of the panic @p fn raises ("" if it does not). */
template <typename Fn>
std::string
panicText(Fn &&fn)
{
    try {
        fn();
    } catch (const PanicError &e) {
        return e.what();
    }
    return "";
}

TEST(EventQueueTest, RunsInTimeOrder)
{
    EventQueue q;
    std::vector<int> order;
    EventFunctionWrapper e1([&] { order.push_back(1); }, "e1");
    EventFunctionWrapper e2([&] { order.push_back(2); }, "e2");
    EventFunctionWrapper e3([&] { order.push_back(3); }, "e3");
    q.schedule(&e2, 200);
    q.schedule(&e1, 100);
    q.schedule(&e3, 300);
    q.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(q.curTick(), 300u);
    EXPECT_TRUE(q.empty());
}

TEST(EventQueueTest, SameTickFifoWithinPriority)
{
    EventQueue q;
    std::vector<int> order;
    EventFunctionWrapper a([&] { order.push_back(1); }, "a");
    EventFunctionWrapper b([&] { order.push_back(2); }, "b");
    EventFunctionWrapper c([&] { order.push_back(3); }, "c");
    q.schedule(&a, 50);
    q.schedule(&b, 50);
    q.schedule(&c, 50);
    q.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueueTest, PriorityOrdersSameTick)
{
    EventQueue q;
    std::vector<char> order;
    EventFunctionWrapper poll([&] { order.push_back('p'); }, "poll",
                              Event::pollPri);
    EventFunctionWrapper stats([&] { order.push_back('s'); },
                               "stats", Event::statsPri);
    EventFunctionWrapper norm([&] { order.push_back('n'); }, "norm");
    q.schedule(&stats, 10);
    q.schedule(&poll, 10);
    q.schedule(&norm, 10);
    q.run();
    EXPECT_EQ(order, (std::vector<char>{'n', 'p', 's'}));
}

TEST(EventQueueTest, DescheduleRemovesEvent)
{
    EventQueue q;
    bool ran = false;
    EventFunctionWrapper e([&] { ran = true; }, "e");
    q.schedule(&e, 10);
    q.deschedule(&e);
    EXPECT_FALSE(e.scheduled());
    q.run();
    EXPECT_FALSE(ran);
    EXPECT_TRUE(q.empty());
}

// A descheduled event may be destroyed immediately: the queue must
// never touch it again. Any event owner torn down mid-simulation
// relies on this (ASan catches any regression here as a
// use-after-free).
TEST(EventQueueTest, DescheduledEventCanBeDestroyedBeforePop)
{
    EventQueue q;
    bool ran = false;
    EventFunctionWrapper keep([&] { ran = true; }, "keep");
    q.schedule(&keep, 20);
    {
        EventFunctionWrapper doomed([] { FAIL(); }, "doomed");
        q.schedule(&doomed, 10);
        q.deschedule(&doomed);
    } // doomed destroyed before the queue reaches tick 10
    q.run();
    EXPECT_TRUE(ran);
    EXPECT_TRUE(q.empty());
    EXPECT_EQ(q.processedCount(), 1u);
}

TEST(EventQueueTest, RescheduleMovesEvent)
{
    EventQueue q;
    Tick fired = 0;
    EventFunctionWrapper e([&] { fired = q.curTick(); }, "e");
    q.schedule(&e, 100);
    q.reschedule(&e, 500);
    q.run();
    EXPECT_EQ(fired, 500u);
}

TEST(EventQueueTest, RescheduleEarlierWorks)
{
    EventQueue q;
    Tick fired = 0;
    EventFunctionWrapper e([&] { fired = q.curTick(); }, "e");
    q.schedule(&e, 500);
    q.reschedule(&e, 100);
    q.run();
    EXPECT_EQ(fired, 100u);
    EXPECT_EQ(q.processedCount(), 1u);
}

TEST(EventQueueTest, RunWithLimitStopsAtLimit)
{
    EventQueue q;
    int count = 0;
    EventFunctionWrapper e1([&] { ++count; }, "e1");
    EventFunctionWrapper e2([&] { ++count; }, "e2");
    q.schedule(&e1, 100);
    q.schedule(&e2, 2000);
    q.run(1000);
    EXPECT_EQ(count, 1);
    EXPECT_EQ(q.curTick(), 1000u);
    EXPECT_FALSE(q.empty());
    q.run();
    EXPECT_EQ(count, 2);
}

// Regression for the drained-queue fix: run(limit) must land
// curTick exactly on the limit even when the queue empties first.
// Fixed-window callers (fleet pumps, partition rounds) read curTick
// after the window and would otherwise observe the tick of whatever
// event happened to run last — or no advance at all on an idle
// window. The pre-fix run() returned as soon as the heap drained.
TEST(EventQueueTest, RunAdvancesToLimitWhenDrained)
{
    EventQueue q;
    int count = 0;
    EventFunctionWrapper e([&] { ++count; }, "e");
    q.schedule(&e, 100);
    q.run(1000);
    EXPECT_EQ(count, 1);
    EXPECT_EQ(q.curTick(), 1000u);
    // An already-empty queue owes the caller the window too.
    q.run(2500);
    EXPECT_EQ(q.curTick(), 2500u);
    // Run-to-drain (no limit) must NOT teleport time to maxTick.
    q.run();
    EXPECT_EQ(q.curTick(), 2500u);
    // And events scheduled after an idle window run normally.
    EventFunctionWrapper e2([&] { ++count; }, "e2");
    q.schedule(&e2, 3000);
    q.run(4000);
    EXPECT_EQ(count, 2);
    EXPECT_EQ(q.curTick(), 4000u);
}

// A limit behind the clock never moves time backwards, whether the
// queue is drained or still holds an event past the limit: the next
// event would otherwise run at a tick the clock already passed.
TEST(EventQueueTest, RunWithPastLimitKeepsTheClock)
{
    EventQueue q;
    int count = 0;
    EventFunctionWrapper e([&] { ++count; }, "e");
    q.schedule(&e, 100);
    q.run(50);
    EXPECT_EQ(q.curTick(), 50u);
    q.run(20); // e still pending at 100
    EXPECT_EQ(q.curTick(), 50u);
    EXPECT_EQ(count, 0);
    q.run();
    EXPECT_EQ(count, 1);
    q.run(20); // drained
    EXPECT_EQ(q.curTick(), 100u);
}

TEST(EventQueueTest, ScheduleAtCurTickFromProcess)
{
    // A handler may schedule work at the very tick being processed;
    // it runs later within the same tick, in insertion order, and
    // time does not advance in between.
    EventQueue q;
    std::vector<int> order;
    EventFunctionWrapper tail(
        [&] {
            order.push_back(2);
            EXPECT_EQ(q.curTick(), 100u);
        },
        "tail");
    EventFunctionWrapper head(
        [&] {
            order.push_back(1);
            q.schedule(&tail, q.curTick());
        },
        "head");
    q.schedule(&head, 100);
    q.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2}));
    EXPECT_EQ(q.curTick(), 100u);
}

TEST(EventQueueTest, DescheduleSameTickPendingMidRun)
{
    // A handler cancels a sibling already pending at the same tick:
    // the sibling never runs, and the queue keeps running events
    // behind it.
    EventQueue q;
    bool victim_ran = false;
    bool later_ran = false;
    EventFunctionWrapper victim([&] { victim_ran = true; },
                                "victim");
    EventFunctionWrapper killer([&] { q.deschedule(&victim); },
                                "killer");
    EventFunctionWrapper later([&] { later_ran = true; }, "later");
    q.schedule(&killer, 10);
    q.schedule(&victim, 10);
    q.schedule(&later, 20);
    q.run();
    EXPECT_FALSE(victim_ran);
    EXPECT_FALSE(victim.scheduled());
    EXPECT_TRUE(later_ran);
    EXPECT_TRUE(q.empty());
    EXPECT_EQ(q.processedCount(), 2u);
}

TEST(EventQueueTest, EventsCanScheduleEvents)
{
    EventQueue q;
    std::vector<Tick> times;
    EventFunctionWrapper second(
        [&] { times.push_back(q.curTick()); }, "second");
    EventFunctionWrapper first(
        [&] {
            times.push_back(q.curTick());
            q.schedule(&second, q.curTick() + 50);
        },
        "first");
    q.schedule(&first, 100);
    q.run();
    EXPECT_EQ(times, (std::vector<Tick>{100, 150}));
}

TEST(EventQueueTest, SchedulingInPastPanics)
{
    Logger::global().setThrowOnDeath(true);
    EventQueue q;
    EventFunctionWrapper mover([] {}, "mover");
    EventFunctionWrapper late([] {}, "late");
    q.schedule(&mover, 100);
    q.run();
    std::string msg = panicText([&] { q.schedule(&late, 50); });
    // The diagnostic names the event by its tag, and the ticks.
    EXPECT_NE(msg.find("event 'late' in the past: 50 < 100"),
              std::string::npos)
        << msg;
    Logger::global().setThrowOnDeath(false);
}

TEST(EventQueueTest, DoubleSchedulePanics)
{
    Logger::global().setThrowOnDeath(true);
    EventQueue q;
    EventFunctionWrapper e([] {}, "e");
    q.schedule(&e, 10);
    std::string msg = panicText([&] { q.schedule(&e, 20); });
    EXPECT_NE(msg.find("event 'e' is already scheduled at 10"),
              std::string::npos)
        << msg;
    q.deschedule(&e);
    Logger::global().setThrowOnDeath(false);
}

TEST(EventQueueTest, OneShotSelfDeletes)
{
    int runs = 0;
    int fired_dtors = 0;
    int pending_dtors = 0;
    {
        EventQueue q;
        q.schedule(new OneShotEvent(
                       [&runs, c = dtorProbe(fired_dtors)] { ++runs; },
                       "oneshot"),
                   10);
        q.schedule(new OneShotEvent(
                       [c = dtorProbe(pending_dtors)] {
                           ADD_FAILURE() << "ran past the limit";
                       },
                       "pending"),
                   1000);
        // A descheduled event the queue must not touch at teardown:
        // it is already gone (ASan flags any touch).
        auto gone = std::make_unique<EventFunctionWrapper>([] {}, "gone");
        q.schedule(gone.get(), 2000);
        q.deschedule(gone.get());
        gone.reset();
        q.run(100);
        EXPECT_EQ(runs, 1);
        // Freed, capture and all, when it fired.
        EXPECT_EQ(fired_dtors, 1);
        EXPECT_EQ(pending_dtors, 0);
        EXPECT_EQ(q.size(), 1u);
    }
    // The queue owns the one-shots it holds: the pending one dies
    // with it, and the fired one is not freed a second time.
    EXPECT_EQ(fired_dtors, 1);
    EXPECT_EQ(pending_dtors, 1);
}

// The pop order is the contract: (when, priority, insertion order)
// whatever mix of schedule, deschedule and reschedule calls put the
// queue in its state, issued between steps or from inside handlers,
// with ticks colliding and events destroyed right after their
// deschedule (ASan flags any later touch). A std::set keyed the
// same way names the event every pop must run.
TEST(EventQueueTest, RandomChurnPopsInReferenceOrder)
{
    using Key = std::tuple<Tick, Event::Priority, std::uint64_t, int>;
    constexpr int numEvents = 300;
    constexpr Event::Priority pris[] = {
        Event::defaultPri, Event::pollPri, Event::statsPri};
    EventQueue q;
    Rng rng(7);
    std::set<Key> ref;
    std::vector<std::optional<Key>> keyOf(numEvents);
    std::vector<std::unique_ptr<EventFunctionWrapper>> evs(numEvents);
    std::uint64_t inserted = 0;
    std::uint64_t pops = 0;
    int running = -1;
    std::function<void()> churn;

    auto make = [&](int id) {
        evs[id] = std::make_unique<EventFunctionWrapper>(
            [&, id] {
                ASSERT_FALSE(ref.empty());
                ASSERT_EQ(std::get<3>(*ref.begin()), id);
                ASSERT_EQ(std::get<0>(*ref.begin()), q.curTick());
                ref.erase(ref.begin());
                keyOf[id].reset();
                ++pops;
                if (rng.uniformInt(0, 3) == 0) {
                    running = id;
                    churn();
                    running = -1;
                }
            },
            "churn", pris[rng.uniformInt(0, 2)]);
    };
    auto cancel = [&](int id) {
        if (!keyOf[id])
            return;
        q.deschedule(evs[id].get());
        ref.erase(*keyOf[id]);
        keyOf[id].reset();
    };
    churn = [&] {
        int id = int(rng.uniformInt(0, numEvents - 1));
        Tick when = q.curTick() + rng.uniformInt(0, 16);
        EventFunctionWrapper *ev = evs[id].get();
        switch (rng.uniformInt(0, 3)) {
          case 0: // schedule, or move if already pending
          case 1:
            if (keyOf[id])
                ref.erase(*keyOf[id]);
            if (keyOf[id] || rng.uniformInt(0, 1))
                q.reschedule(ev, when);
            else
                q.schedule(ev, when);
            keyOf[id] = Key{when, ev->priority(), inserted++, id};
            ref.insert(*keyOf[id]);
            break;
          case 2:
            cancel(id);
            break;
          case 3: // cancel and destroy at once, then replace
            if (id == running)
                break;
            cancel(id);
            make(id);
            break;
        }
        ASSERT_EQ(evs[id]->scheduled(), keyOf[id].has_value());
    };

    for (int id = 0; id < numEvents; ++id)
        make(id);
    for (int call = 0; call < 20000; ++call) {
        churn();
        if (rng.uniformInt(0, 2) == 0)
            q.step();
        ASSERT_EQ(q.size(), ref.size());
        ASSERT_EQ(q.nextTick(),
                  ref.empty() ? maxTick : std::get<0>(*ref.begin()));
    }
    q.run();
    EXPECT_TRUE(ref.empty());
    EXPECT_EQ(q.processedCount(), pops);
    EXPECT_GT(pops, 5000u);
}

TEST(EventQueueTest, ManyEventsStressOrdering)
{
    // Property: with random schedule times, execution times are
    // monotonically non-decreasing.
    EventQueue q;
    Rng rng(11);
    std::vector<Tick> fired;
    std::vector<std::unique_ptr<EventFunctionWrapper>> events;
    for (int i = 0; i < 2000; ++i) {
        events.push_back(std::make_unique<EventFunctionWrapper>(
            [&] { fired.push_back(q.curTick()); }, "e"));
        q.schedule(events.back().get(),
                   Tick(rng.uniformInt(0, 1000000)));
    }
    q.run();
    ASSERT_EQ(fired.size(), 2000u);
    for (std::size_t i = 1; i < fired.size(); ++i)
        ASSERT_LE(fired[i - 1], fired[i]);
}

TEST(SimulationTest, SeedReproducibility)
{
    auto run_once = [](std::uint64_t seed) {
        Simulation sim(seed);
        std::vector<double> vals;
        for (int i = 0; i < 50; ++i)
            vals.push_back(sim.rng().uniform());
        return vals;
    };
    EXPECT_EQ(run_once(3), run_once(3));
    EXPECT_NE(run_once(3), run_once(4));
}

TEST(SimObjectTest, ScheduleInUsesRelativeDelay)
{
    Simulation sim;
    struct Obj : SimObject
    {
        using SimObject::SimObject;
    } obj(sim, "obj");
    Tick fired = 0;
    EventFunctionWrapper e([&] { fired = sim.now(); }, "e");
    obj.scheduleIn(&e, 250);
    sim.run();
    EXPECT_EQ(fired, 250u);
    EXPECT_EQ(obj.name(), "obj");
}

} // namespace
} // namespace bmhive
