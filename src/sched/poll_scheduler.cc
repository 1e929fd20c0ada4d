#include "sched/poll_scheduler.hh"

#include <algorithm>
#include <limits>
#include <utility>

#include "base/logging.hh"

namespace bmhive {
namespace sched {

void
Pollable::wake()
{
    if (sched_)
        sched_->wake(handle_);
}

void
Pollable::replan()
{
    if (sched_)
        sched_->replan(handle_);
}

bool
Pollable::sharedLoop() const
{
    return sched_ && handle_.loop < sched_->coreCount();
}

PollScheduler::PollScheduler(Simulation &sim, std::string name,
                             std::vector<hw::CpuExecutor *> cores)
    : SimObject(sim, std::move(name)),
      sharedCores_(unsigned(cores.size()))
{
    loops_.resize(cores.size());
    for (unsigned i = 0; i < cores.size(); ++i) {
        Loop &c = loops_[i];
        c.exec = cores[i];
        c.period = paper::bmPollPeriod;
        std::string base =
            this->name() + ".core" + std::to_string(i);
        c.rounds = &metrics().counter(base + ".rounds");
        c.busy = &metrics().counter(base + ".busy_rounds");
        c.items = &metrics().counter(base + ".items");
        c.wakes = &metrics().counter(base + ".wakes");
        c.sleeps = &metrics().counter(base + ".sleeps");
        c.pollables = &metrics().gauge(base + ".pollables");
        c.roundItems = &metrics().histogram(base + ".round_items");
        c.wakeToPoll = &metrics().latency(base + ".wake_to_poll");
        c.event = std::make_unique<EventFunctionWrapper>(
            [this, i] { runRound(i); }, "sched.round", Event::pollPri);
    }
}

PollScheduler::~PollScheduler()
{
    for (Loop &l : loops_) {
        if (l.event->scheduled())
            eventq().deschedule(l.event.get());
    }
}

hw::CpuExecutor &
PollScheduler::coreExecutor(unsigned i)
{
    panic_if(i >= sharedCores_, name(), ": bad core ", i);
    return *loops_[i].exec;
}

unsigned
PollScheduler::leastLoadedCore() const
{
    // A Dedicated loop on a pool core's executor (a passthrough
    // queue) occupies that core as much as a Shared unit does.
    std::vector<std::size_t> load(sharedCores_);
    for (unsigned li = 0; li < loops_.size(); ++li) {
        const Loop &l = loops_[li];
        for (unsigned c = 0; c < sharedCores_; ++c) {
            if (l.exec == loops_[c].exec)
                load[c] += l.members.size();
        }
    }
    return unsigned(std::min_element(load.begin(), load.end()) -
                    load.begin());
}

PollScheduler::Handle
PollScheduler::enroll(Pollable &p, unsigned li, Member m)
{
    panic_if(p.registered(), name(), ": unit registered twice");
    m.id = nextId_++;
    m.pollable = &p;
    loops_[li].members.push_back(m);
    p.sched_ = this;
    p.handle_ = Handle{li, m.id};
    return p.handle_;
}

PollScheduler::Handle
PollScheduler::add(unsigned core, Pollable &p, double weight,
                   const std::string &label)
{
    panic_if(core >= sharedCores_, name(), ": bad core ", core);
    Member m;
    m.weight = weight;
    m.served = &metrics().counter(name() + ".served." + label);
    Handle h = enroll(p, core, m);
    Loop &c = loops_[core];
    c.pollables->set(double(c.members.size()));
    // Kick the core: work queued before registration (bring-up,
    // recovery republish) has no doorbell left to post a wake.
    if (c.state == CoreState::Sleep) {
        c.state = CoreState::Busy;
        c.period = paper::bmPollPeriod;
        c.idleRounds = 0;
    }
    kick(core, curTick() + paper::schedWakeLatency);
    return h;
}

PollScheduler::Handle
PollScheduler::addDedicated(hw::CpuExecutor &exec, Pollable &p,
                            Tick period)
{
    unsigned li;
    if (!freeLoops_.empty()) {
        li = freeLoops_.back();
        freeLoops_.pop_back();
    } else {
        li = unsigned(loops_.size());
        loops_.emplace_back().event =
            std::make_unique<EventFunctionWrapper>(
                [this, li] { runDedicated(li); }, "sched.loop",
                Event::pollPri);
    }
    loops_[li].exec = &exec;
    loops_[li].period = period;
    Member m;
    m.lastServiced = curTick();
    Handle h = enroll(p, li, m);
    planDedicated(li);
    return h;
}

void
PollScheduler::remove(Handle h)
{
    if (!h.valid() || h.loop >= loops_.size())
        return;
    Loop &l = loops_[h.loop];
    for (auto it = l.members.begin(); it != l.members.end(); ++it) {
        if (it->id != h.id)
            continue;
        it->pollable->sched_ = nullptr;
        l.members.erase(it);
        if (dedicated(h.loop)) {
            if (l.event->scheduled())
                eventq().deschedule(l.event.get());
            freeLoops_.push_back(h.loop);
        } else {
            l.pollables->set(double(l.members.size()));
        }
        return;
    }
}

void
PollScheduler::setWeight(Handle h, double w)
{
    Member *m = find(h);
    if (!m || dedicated(h.loop))
        return;
    m->weight = w;
    if (w <= 0.0) {
        // Starved: forfeit accumulated credit so a restored guest
        // restarts from a clean share.
        m->deficit = 0.0;
        return;
    }
    // Work posted while starved or deprioritized waits for the
    // weight to come back; the restore is its wake.
    if (m->wakePending)
        expedite(h.loop, true);
}

void
PollScheduler::setFlightRecorder(Handle h, obs::FlightRecorder *fr)
{
    Member *m = find(h);
    if (m)
        m->flight = fr;
}

void
PollScheduler::setPeriod(Handle h, Tick period)
{
    if (find(h) && dedicated(h.loop))
        loops_[h.loop].period = period;
}

void
PollScheduler::wake(Handle h)
{
    Member *m = find(h);
    if (!m || dedicated(h.loop) || !m->pollable->pollAlive())
        return;
    if (!m->wakePending) {
        m->wakePending = true;
        m->postedAt = curTick();
    }
    if (m->weight <= 0.0)
        return; // starved by containment: no wake for you
    expedite(h.loop, true);
}

void
PollScheduler::replan(Handle h)
{
    Member *m = find(h);
    if (!m || !dedicated(h.loop))
        return;
    Event *ev = loops_[h.loop].event.get();
    if (!m->pollable->pollAlive()) {
        if (ev->scheduled())
            eventq().deschedule(ev);
        return;
    }
    Tick blocked = m->pollable->pollBlockedUntil();
    if (blocked > curTick())
        eventq().reschedule(ev, blocked);
}

void
PollScheduler::expedite(unsigned ci, bool count_wake)
{
    Loop &c = loops_[ci];
    Tick at = curTick() + paper::schedWakeLatency;
    bool resting = c.state != CoreState::Busy ||
                   !c.event->scheduled() || c.event->when() > at;
    if (!resting)
        return; // already polling at least as fast as the bound
    if (count_wake &&
        (c.state == CoreState::Sleep || !c.event->scheduled() ||
         c.event->when() > at))
        c.wakes->inc();
    c.state = CoreState::Busy;
    c.period = paper::bmPollPeriod;
    c.idleRounds = 0;
    kick(ci, at);
}

void
PollScheduler::kick(unsigned ci, Tick at)
{
    Loop &c = loops_[ci];
    if (c.event->scheduled()) {
        if (c.event->when() <= at)
            return;
        eventq().reschedule(c.event.get(), at);
    } else {
        eventq().schedule(c.event.get(), at);
    }
}

void
PollScheduler::runDedicated(unsigned li)
{
    Loop &l = loops_[li];
    Member &m = l.members.front();
    Pollable &p = *m.pollable;
    const std::uint64_t id = m.id;
    const Tick now = curTick();
    if (!p.pollAlive())
        return;
    if (p.pollBlockedUntil() > now) {
        eventq().schedule(l.event.get(), p.pollBlockedUntil());
        return;
    }
    ++m.visits;
    m.lastServiced = now;
    p.servicePoll(std::numeric_limits<unsigned>::max(), *l.exec);
    // The visit may have stopped the unit or taken its loop down.
    if (!l.members.empty() && l.members.front().id == id)
        planDedicated(li);
}

void
PollScheduler::planDedicated(unsigned li)
{
    Loop &l = loops_[li];
    Pollable &p = *l.members.front().pollable;
    if (!p.pollAlive()) {
        if (l.event->scheduled())
            eventq().deschedule(l.event.get());
        return;
    }
    Tick at = std::max({curTick() + l.period, l.exec->busyUntil(),
                        p.pollBlockedUntil()});
    eventq().reschedule(l.event.get(), at);
}

void
PollScheduler::runRound(unsigned ci)
{
    Loop &c = loops_[ci];
    const Tick now = curTick();
    c.rounds->inc();
    unsigned total = 0;
    Tick next_blocked = maxTick;
    for (std::size_t i = 0; i < c.members.size(); ++i) {
        Member &m = c.members[i];
        if (!m.pollable->pollAlive())
            continue;
        if (m.weight <= 0.0)
            continue; // quarantined: starved at the scheduler
        Tick blocked = m.pollable->pollBlockedUntil();
        if (blocked > now) {
            next_blocked = std::min(next_blocked, blocked);
            continue;
        }
        // DWRR: earn quantum*weight credit, service up to the
        // accumulated deficit, forfeit the remainder on running
        // dry so idle rounds never bank future bursts.
        m.deficit += double(paper::schedQuantum) * m.weight;
        auto budget = unsigned(m.deficit);
        if (budget == 0)
            continue; // fractional weight, still accruing credit
        if (m.wakePending) {
            c.wakeToPoll->record(now - m.postedAt);
            m.wakePending = false;
        }
        unsigned served = m.pollable->servicePoll(budget, *c.exec);
        ++m.visits;
        m.lastServiced = now;
        if (served < budget)
            m.deficit = 0.0;
        else
            m.deficit -= double(served);
        if (served > 0) {
            m.served->inc(served);
            if (m.flight)
                m.flight->record(now, obs::FlightEvent::SchedVisit,
                                 0, 0, served);
        }
        total += served;
    }
    c.items->inc(total);
    c.roundItems->record(total);
    if (total > 0)
        c.busy->inc();

    // Adaptive-poll governor: busy-poll -> backoff -> sleep.
    if (total > 0) {
        c.state = CoreState::Busy;
        c.period = paper::bmPollPeriod;
        c.idleRounds = 0;
    } else {
        ++c.idleRounds;
        if (c.state == CoreState::Busy) {
            if (c.idleRounds >= paper::schedIdleRoundsBeforeBackoff) {
                c.state = CoreState::Backoff;
                c.period =
                    std::min(c.period * 2, paper::schedMaxBackoff);
            }
        } else if (c.state == CoreState::Backoff) {
            if (c.period >= paper::schedMaxBackoff)
                c.state = CoreState::Sleep; // ceiling and still dry
            else
                c.period =
                    std::min(c.period * 2, paper::schedMaxBackoff);
        }
    }

    if (c.state == CoreState::Sleep) {
        if (next_blocked != maxTick) {
            // A stalled unit exists; resume when it unblocks
            // instead of waiting for a doorbell it already rang.
            c.state = CoreState::Backoff;
            c.period = paper::schedMaxBackoff;
            kick(ci, std::max(next_blocked,
                              now + paper::bmPollPeriod));
        } else {
            c.sleeps->inc(); // no events until a wake
        }
        return;
    }
    Tick at = now + c.period;
    if (c.exec->busyUntil() > at)
        at = c.exec->busyUntil();
    kick(ci, at);
}

PollScheduler::Member *
PollScheduler::find(Handle h)
{
    if (!h.valid() || h.loop >= loops_.size())
        return nullptr;
    for (Member &m : loops_[h.loop].members) {
        if (m.id == h.id)
            return &m;
    }
    return nullptr;
}

const PollScheduler::Member *
PollScheduler::find(Handle h) const
{
    return const_cast<PollScheduler *>(this)->find(h);
}

std::uint64_t
PollScheduler::serviceVisits(Handle h) const
{
    const Member *m = find(h);
    return m ? m->visits : 0;
}

bool
PollScheduler::wedged(Handle h, Tick window) const
{
    const Member *m = find(h);
    if (!m || !m->pollable->pollAlive())
        return false;
    if (dedicated(h.loop))
        return curTick() - m->lastServiced > window;
    if (m->weight <= 0.0)
        return false;
    return m->wakePending && curTick() - m->postedAt > window;
}

const PollScheduler::Loop &
PollScheduler::sharedCore(unsigned core) const
{
    panic_if(core >= sharedCores_, name(), ": bad core ", core);
    return loops_[core];
}

std::uint64_t
PollScheduler::rounds(unsigned core) const
{
    return sharedCore(core).rounds->value();
}

std::uint64_t
PollScheduler::wakes(unsigned core) const
{
    return sharedCore(core).wakes->value();
}

std::uint64_t
PollScheduler::sleeps(unsigned core) const
{
    return sharedCore(core).sleeps->value();
}

unsigned
PollScheduler::pollablesOn(unsigned core) const
{
    return unsigned(sharedCore(core).members.size());
}

double
PollScheduler::busyRatio(unsigned core) const
{
    const Loop &c = sharedCore(core);
    std::uint64_t r = c.rounds->value();
    return r ? double(c.busy->value()) / double(r) : 0.0;
}

const LatencyRecorder &
PollScheduler::wakeToPoll(unsigned core) const
{
    return *sharedCore(core).wakeToPoll;
}

} // namespace sched
} // namespace bmhive
