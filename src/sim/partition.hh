/**
 * @file
 * Parallel simulation core: per-server event partitions with
 * conservative lookahead.
 *
 * The simulation is split into partition 0 (the "control"
 * partition: fleet controller, network fabric, block service,
 * benchmark pumps) plus one partition per base server. Each
 * partition has its own EventQueue; a coordinator advances them in
 * bounded rounds:
 *
 *   globalMin = min over all queues of nextTick()
 *   window    = [globalMin, min(globalMin + L - 1, limit)]
 *
 * where L is the lookahead — the smallest modelled latency any
 * cross-partition interaction can have (a PCIe hop; fabric RTTs
 * and block-fabric legs are far larger). Phase A runs the control
 * queue through the window serially; control code may touch parked
 * server state and schedule into any queue directly, which stays
 * deterministic because phase A is single-threaded. Phase B runs
 * all server partitions through the same window in parallel;
 * cross-partition effects must go through post(), which buffers
 * them in per-source outboxes. Any message sent from inside the
 * window carries at least L of modelled delay, so it lands strictly
 * after the window and no partition can miss an incoming event it
 * should already have processed — the classic conservative
 * (Chandy–Misra style) argument.
 *
 * Determinism: after the round barrier, buffered messages are
 * drained in (when, priority, source partition, per-source
 * sequence) order, never thread arrival order, so the insertion
 * sequence numbers each destination queue assigns — and therefore
 * same-tick tie-breaking — are identical for any thread count.
 */

#ifndef BMHIVE_SIM_PARTITION_HH
#define BMHIVE_SIM_PARTITION_HH

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "base/random.hh"
#include "base/units.hh"
#include "sim/eventq.hh"

namespace bmhive {

class Simulation;
class Counter;

namespace psim {

/** Tuning for the partitioned execution core. */
struct Params
{
    /** Execution threads for server partitions (>= 1). The
     *  coordinator thread participates, so N threads means N - 1
     *  spawned workers. */
    unsigned threads = 1;
    /** Conservative lookahead in ticks; 0 selects the modelled
     *  PCIe hop (paper::ioBondPciAccess), the smallest latency any
     *  cross-partition interaction carries. */
    Tick lookahead = 0;
};

/** A buffered cross-partition delivery. */
struct Msg
{
    Tick when;
    Event::Priority pri;
    /** Partition that sent the message. */
    unsigned src;
    /** Per-source sequence number; (src, seq) is a total order. */
    std::uint64_t seq;
    unsigned dst;
    std::function<void()> fn;
    /** Static label of the delivered event. */
    const char *tag;
};

/**
 * Owns the per-server queues, RNG shards, outboxes and worker pool
 * of a partitioned simulation, and runs the round loop.
 */
class Coordinator
{
  public:
    /**
     * @param servers number of server partitions (1..N); partition
     * 0 aliases the simulation's classic event queue.
     */
    Coordinator(Simulation &sim, unsigned servers, Params params);
    ~Coordinator();

    Coordinator(const Coordinator &) = delete;
    Coordinator &operator=(const Coordinator &) = delete;

    /** Total partitions including control partition 0. */
    unsigned partitions() const { return unsigned(queues_.size()); }

    EventQueue &queue(unsigned p) { return *queues_.at(p); }
    const EventQueue &
    queue(unsigned p) const
    {
        return *queues_.at(p);
    }

    /** RNG shard for server partition @p p (>= 1). */
    Rng &rng(unsigned p) { return *rngs_.at(p - 1); }

    Tick lookahead() const { return lookahead_; }

    /**
     * Deliver @p fn in partition @p dst at tick @p when. Outside
     * the parallel phase this schedules directly (single-threaded,
     * deterministic). From inside the parallel phase the send is
     * buffered in the executing partition's outbox and must respect
     * the lookahead contract: when >= sender's curTick + L.
     */
    void post(unsigned dst, Tick when, std::function<void()> fn,
              Event::Priority pri, const char *tag);

    /** Run the round loop until every queue is past @p limit. */
    void run(Tick limit);

    std::uint64_t rounds() const { return rounds_; }
    std::uint64_t messages() const { return messages_; }

  private:
    void runParallel(Tick window);
    void flush();
    void workLoop();
    void workerMain();
    void syncCounters();

    struct Outbox
    {
        std::vector<Msg> msgs;
        std::uint64_t nextSeq = 0;
    };

    Simulation &sim_;
    Tick lookahead_;
    unsigned threads_;

    /** queues_[0] aliases the simulation's control queue; the rest
     *  are owned server-partition queues. */
    std::vector<EventQueue *> queues_;
    std::vector<std::unique_ptr<EventQueue>> ownedQueues_;
    /** RNG shard per server partition, seeded from the root seed
     *  and the partition id (stable across thread counts). */
    std::vector<std::unique_ptr<Rng>> rngs_;
    /** One outbox per partition, touched only by its own thread
     *  during the parallel phase. */
    std::vector<Outbox> outboxes_;

    /** End of the current/last closed window (inclusive). */
    Tick windowEnd_ = 0;
    std::atomic<bool> inParallel_{false};
    std::atomic<Tick> phaseLimit_{0};
    std::atomic<unsigned> nextPart_{0};
    std::atomic<unsigned> pending_{0};

    std::mutex mu_;
    std::condition_variable cv_;
    std::condition_variable doneCv_;
    std::uint64_t phaseSeq_ = 0;
    bool stop_ = false;
    std::vector<std::thread> workers_;

    std::uint64_t rounds_ = 0;
    std::uint64_t messages_ = 0;
    std::uint64_t roundsSynced_ = 0;
    std::uint64_t messagesSynced_ = 0;
    std::uint64_t compactionsSynced_ = 0;
    Counter *roundsCtr_ = nullptr;
    Counter *messagesCtr_ = nullptr;
    Counter *compactionsCtr_ = nullptr;

    /** Scratch buffer reused by flush(). */
    std::vector<Msg> flushScratch_;
};

/**
 * Thread-local execution/construction context. SimObjects capture
 * the active partition at construction; the round loop installs
 * the executing partition so Simulation::eventq()/now() resolve to
 * the right queue from worker threads.
 */
struct ExecCtx
{
    const void *sim = nullptr;
    unsigned part = 0;
    /** Optional shared partition cell: objects constructed under a
     *  cell-scoped context resolve their partition through it, so a
     *  whole guest re-homes atomically on migration. */
    const unsigned *cell = nullptr;
};

/** Partition of the innermost scope for @p sim (0 if none). */
unsigned currentPartitionOf(const void *sim);

/** Partition cell of the innermost scope for @p sim, if any. */
const unsigned *currentCellOf(const void *sim);

/**
 * RAII partition context. Wrap component construction (and the
 * coordinator wraps phase execution) so partition affinity is
 * captured without threading an argument through every ctor.
 */
class PartitionScope
{
  public:
    PartitionScope(Simulation &sim, unsigned part);
    /** Cell-scoped: partition resolves through @p cell (falling
     *  back to @p part when @p cell is null). */
    PartitionScope(Simulation &sim, const unsigned *cell,
                   unsigned part);
    ~PartitionScope();

    PartitionScope(const PartitionScope &) = delete;
    PartitionScope &operator=(const PartitionScope &) = delete;

  private:
    ExecCtx prev_;
};

} // namespace psim
} // namespace bmhive

#endif // BMHIVE_SIM_PARTITION_HH
