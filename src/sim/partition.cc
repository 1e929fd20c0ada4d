/**
 * @file
 * Coordinator for the partitioned simulation core: the windowed
 * round loop, worker pool, cross-partition mailboxes, and the
 * thread-local partition context. See partition.hh for the model
 * and the determinism argument.
 */

#include "sim/partition.hh"

#include <algorithm>

#include "base/logging.hh"
#include "base/paper_constants.hh"
#include "sim/sim_object.hh"

namespace bmhive {
namespace psim {

namespace {

thread_local ExecCtx tlsCtx;

/** SplitMix64 finalizer: decorrelates per-partition RNG seeds. */
std::uint64_t
mixSeed(std::uint64_t seed, std::uint64_t partition)
{
    std::uint64_t z = seed + 0x9E3779B97F4A7C15ull * (partition + 1);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
}

} // namespace

unsigned
currentPartitionOf(const void *sim)
{
    return tlsCtx.sim == sim ? tlsCtx.part : 0;
}

const unsigned *
currentCellOf(const void *sim)
{
    return tlsCtx.sim == sim ? tlsCtx.cell : nullptr;
}

PartitionScope::PartitionScope(Simulation &sim, unsigned part)
    : prev_(tlsCtx)
{
    tlsCtx = ExecCtx{&sim, part, nullptr};
}

PartitionScope::PartitionScope(Simulation &sim, const unsigned *cell,
                               unsigned part)
    : prev_(tlsCtx)
{
    tlsCtx = ExecCtx{&sim, cell ? *cell : part, cell};
}

PartitionScope::~PartitionScope()
{
    tlsCtx = prev_;
}

Coordinator::Coordinator(Simulation &sim, unsigned servers,
                         Params params)
    : sim_(sim),
      lookahead_(params.lookahead ? params.lookahead
                                  : paper::ioBondPciAccess),
      threads_(std::max(1u, params.threads))
{
    panic_if(servers == 0, "partitioned simulation needs at least "
                           "one server partition");
    panic_if(lookahead_ == 0, "conservative lookahead must be > 0");

    queues_.push_back(&sim.eventq());
    for (unsigned p = 1; p <= servers; ++p) {
        ownedQueues_.push_back(std::make_unique<EventQueue>());
        queues_.push_back(ownedQueues_.back().get());
        rngs_.push_back(
            std::make_unique<Rng>(mixSeed(sim.seed(), p)));
    }
    outboxes_.resize(queues_.size());

    auto &reg = sim.metrics();
    roundsCtr_ = &reg.counter("sim.psim.rounds");
    messagesCtr_ = &reg.counter("sim.psim.messages");

    // Workers sleep on cv_ between rounds; the coordinator thread
    // participates in every parallel phase, so N configured threads
    // means N - 1 spawned workers, and never more than there are
    // server partitions to run.
    unsigned spawn = std::min(threads_ - 1, servers - 1);
    workers_.reserve(spawn);
    for (unsigned i = 0; i < spawn; ++i)
        workers_.emplace_back([this] { workerMain(); });
}

Coordinator::~Coordinator()
{
    {
        std::lock_guard<std::mutex> lk(mu_);
        stop_ = true;
    }
    cv_.notify_all();
    for (auto &w : workers_)
        w.join();
}

void
Coordinator::post(unsigned dst, Tick when, std::function<void()> fn,
                  Event::Priority pri, const char *tag)
{
    panic_if(dst >= queues_.size(), "post to unknown partition ",
             dst);
    unsigned src = currentPartitionOf(&sim_);
    if (!inParallel_.load(std::memory_order_relaxed) || dst == src) {
        // Setup code, phase A control, or a same-partition send:
        // single-threaded with respect to the destination queue, so
        // a direct schedule is safe and deterministic.
        queue(dst).schedule(new OneShotEvent(std::move(fn), tag, pri),
                            when);
        return;
    }
    panic_if(src == 0, "control partition posted cross-partition "
                       "during the parallel phase");
    Tick horizon = queue(src).curTick() + lookahead_;
    panic_if(when < horizon, "cross-partition post '", tag,
             "' at ", when, " violates lookahead horizon ", horizon);
    Outbox &ob = outboxes_[src];
    ob.msgs.push_back(Msg{when, pri, src, ob.nextSeq++, dst,
                          std::move(fn), tag});
}

void
Coordinator::run(Tick limit)
{
    while (true) {
        Tick gm = maxTick;
        for (auto *q : queues_)
            gm = std::min(gm, q->nextTick());
        if (gm > limit || gm == maxTick)
            break;
        Tick w = gm + lookahead_ - 1;
        if (w < gm) // overflow
            w = maxTick;
        w = std::min(w, limit);
        windowEnd_ = w;
        {
            // Phase A: control runs the window serially. It may
            // touch parked server state and schedule directly into
            // any queue; determinism follows from serial execution.
            PartitionScope ctl(sim_, 0);
            queues_[0]->run(w);
        }
        // Phase B: server partitions run the same window in
        // parallel; cross-partition effects buffer in outboxes.
        runParallel(w);
        flush();
        ++rounds_;
    }
    if (limit != maxTick) {
        // Park every queue exactly at the limit so idle partitions
        // observe up-to-date time (the run-to-drain fix in
        // EventQueue::run does the same for each queue).
        for (unsigned p = 0; p < queues_.size(); ++p) {
            PartitionScope scope(sim_, p);
            queues_[p]->run(limit);
        }
    }
    syncCounters();
}

void
Coordinator::runParallel(Tick window)
{
    unsigned servers = unsigned(queues_.size()) - 1;
    phaseLimit_.store(window, std::memory_order_relaxed);
    if (threads_ == 1 || servers == 1) {
        inParallel_.store(true, std::memory_order_relaxed);
        for (unsigned p = 1; p <= servers; ++p) {
            PartitionScope scope(sim_, p);
            queues_[p]->run(window);
        }
        inParallel_.store(false, std::memory_order_relaxed);
        return;
    }
    pending_.store(servers, std::memory_order_relaxed);
    inParallel_.store(true, std::memory_order_relaxed);
    // The release store on nextPart_ publishes the window limit and
    // all queue state written since the last round; workers claim
    // partitions with an acquire RMW on it.
    nextPart_.store(1, std::memory_order_release);
    {
        std::lock_guard<std::mutex> lk(mu_);
        ++phaseSeq_;
    }
    cv_.notify_all();
    workLoop();
    {
        std::unique_lock<std::mutex> lk(mu_);
        doneCv_.wait(lk, [this] {
            return pending_.load(std::memory_order_acquire) == 0;
        });
    }
    inParallel_.store(false, std::memory_order_relaxed);
}

void
Coordinator::workLoop()
{
    while (true) {
        unsigned p = nextPart_.fetch_add(1, std::memory_order_acquire);
        if (p >= queues_.size())
            return;
        {
            PartitionScope scope(sim_, p);
            queues_[p]->run(phaseLimit_.load(std::memory_order_relaxed));
        }
        if (pending_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
            std::lock_guard<std::mutex> lk(mu_);
            doneCv_.notify_all();
        }
    }
}

void
Coordinator::workerMain()
{
    std::uint64_t seen = 0;
    while (true) {
        {
            std::unique_lock<std::mutex> lk(mu_);
            cv_.wait(lk, [&] { return stop_ || phaseSeq_ != seen; });
            if (stop_)
                return;
            seen = phaseSeq_;
        }
        workLoop();
    }
}

void
Coordinator::flush()
{
    auto &all = flushScratch_;
    all.clear();
    for (auto &ob : outboxes_) {
        std::move(ob.msgs.begin(), ob.msgs.end(),
                  std::back_inserter(all));
        ob.msgs.clear();
    }
    if (all.empty())
        return;
    // (when, pri, src, seq) is a total order — src/seq break ties —
    // so the merged delivery order, and with it every destination
    // queue's insertion sequence numbers, is independent of thread
    // count and arrival interleaving.
    std::sort(all.begin(), all.end(),
              [](const Msg &a, const Msg &b) {
                  if (a.when != b.when)
                      return a.when < b.when;
                  if (a.pri != b.pri)
                      return a.pri < b.pri;
                  if (a.src != b.src)
                      return a.src < b.src;
                  return a.seq < b.seq;
              });
    for (auto &m : all) {
        panic_if(m.when <= windowEnd_, "mailbox message '", m.tag,
                 "' lands at ", m.when, " inside the closed window "
                 "ending ", windowEnd_);
        queue(m.dst).schedule(
            new OneShotEvent(std::move(m.fn), m.tag, m.pri), m.when);
        ++messages_;
    }
    all.clear();
}

void
Coordinator::syncCounters()
{
    // The round and message counts live in plain members while the
    // workers run; they reach the registry here, after the final
    // barrier, on the coordinator thread alone.
    roundsCtr_->inc(rounds_ - roundsSynced_);
    roundsSynced_ = rounds_;
    messagesCtr_->inc(messages_ - messagesSynced_);
    messagesSynced_ = messages_;
}

} // namespace psim

void
Simulation::enablePartitions(unsigned servers, psim::Params params)
{
    panic_if(psim_ != nullptr, "partitions already enabled");
    panic_if(eventq_.curTick() != 0 || !eventq_.empty(),
             "enablePartitions must run before any simulation "
             "activity");
    psim_ = std::make_unique<psim::Coordinator>(*this, servers,
                                                params);
}

} // namespace bmhive
