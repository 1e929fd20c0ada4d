/**
 * @file
 * SimObject: named component attached to a Simulation context.
 * Simulation bundles the event queue and the root random source so
 * that a whole run is reproducible from one seed.
 *
 * A Simulation normally runs single-threaded on one event queue.
 * enablePartitions() switches it to the partitioned core
 * (sim/partition.hh): one queue per base server plus the control
 * queue, advanced in conservative lookahead rounds by a worker
 * pool. SimObjects capture their partition at construction (via
 * psim::PartitionScope) and route their queue and RNG accessors
 * through it, but read one clock: that of the partition running
 * the code. Every hop that may cross partitions goes through one
 * Simulation::post() whose delivery tick carries the modelled
 * delay, so component code is identical in both modes.
 */

#ifndef BMHIVE_SIM_SIM_OBJECT_HH
#define BMHIVE_SIM_SIM_OBJECT_HH

#include <cstdint>
#include <memory>
#include <string>

#include "base/logging.hh"
#include "base/random.hh"
#include "base/units.hh"
#include "fault/fault.hh"
#include "obs/metric_registry.hh"
#include "sim/eventq.hh"
#include "sim/partition.hh"

namespace bmhive {

/**
 * Owner of simulated time and randomness for one experiment run.
 * Also owns the run's metric registry, which every SimObject
 * registers into. Keeping it per-simulation, not process-global,
 * means benches that build several testbeds never mix samples.
 */
class Simulation
{
  public:
    explicit Simulation(std::uint64_t seed = 1)
        : seed_(seed), rng_(seed)
    {
        // Log lines carry the current simulated time of the most
        // recently constructed simulation.
        Logger::global().setTickSource([this] { return now(); },
                                       this);
    }

    ~Simulation() { Logger::global().clearTickSource(this); }

    Simulation(const Simulation &) = delete;
    Simulation &operator=(const Simulation &) = delete;

    std::uint64_t seed() const { return seed_; }

    /**
     * Queue of the current execution context: the control queue in
     * a classic simulation, the executing partition's queue inside
     * a partitioned round. Partition-affine components should use
     * SimObject::eventq(), which resolves through the object's own
     * partition instead.
     */
    EventQueue &
    eventq()
    {
        if (!psim_)
            return eventq_;
        return psim_->queue(currentPartition());
    }

    Rng &rng() { return rng_; }

    /** Simulated time of the current execution context. */
    Tick
    now() const
    {
        if (!psim_)
            return eventq_.curTick();
        return psim_->queue(currentPartition()).curTick();
    }

    obs::MetricRegistry &metrics() { return metrics_; }
    fault::FaultHookRegistry &faults() { return faults_; }

    /** Run the event loop until empty or @p limit. */
    void
    run(Tick limit = maxTick)
    {
        if (psim_)
            psim_->run(limit);
        else
            eventq_.run(limit);
    }

    /**
     * @name Partitioned execution
     * @{
     */

    /**
     * Switch to the partitioned core with @p servers server
     * partitions (plus control partition 0). Must be called before
     * any events run; component construction afterwards should be
     * wrapped in psim::PartitionScope to assign affinity.
     */
    void enablePartitions(unsigned servers, psim::Params params = {});

    bool partitioned() const { return psim_ != nullptr; }

    /** Partition count including control (1 when classic). */
    unsigned
    partitions() const
    {
        return psim_ ? psim_->partitions() : 1;
    }

    /** Partition of the innermost active scope (0 outside any). */
    unsigned
    currentPartition() const
    {
        return psim_ ? psim::currentPartitionOf(this) : 0;
    }

    EventQueue &
    partitionQueue(unsigned p)
    {
        if (!psim_ || p == 0)
            return eventq_;
        return psim_->queue(p);
    }

    /** Per-partition RNG shard; partition 0 is the root rng(). */
    Rng &
    partitionRng(unsigned p)
    {
        if (!psim_ || p == 0)
            return rng_;
        return psim_->rng(p);
    }

    /** Conservative lookahead in ticks (0 when classic). */
    Tick lookahead() const { return psim_ ? psim_->lookahead() : 0; }

    /**
     * Deliver @p fn in partition @p dst at absolute tick @p when —
     * the one way to make a hop that may cross partitions. From
     * inside a parallel phase a send to another partition buffers
     * in the source partition's outbox and @p when must respect the
     * lookahead contract; everywhere else (and in classic mode) it
     * degenerates to scheduling a OneShotEvent, so the caller needs
     * no classic branch. @p tag is a string literal naming the
     * event in diagnostics.
     */
    void
    post(unsigned dst, Tick when, std::function<void()> fn,
         Event::Priority pri = Event::defaultPri,
         const char *tag = "xpart")
    {
        if (psim_)
            psim_->post(dst, when, std::move(fn), pri, tag);
        else
            eventq_.schedule(new OneShotEvent(std::move(fn), tag, pri),
                             when);
    }

    /** @} */

  private:
    std::uint64_t seed_;
    EventQueue eventq_;
    Rng rng_;
    obs::MetricRegistry metrics_;
    fault::FaultHookRegistry faults_;
    std::unique_ptr<psim::Coordinator> psim_;
};

/**
 * Base class for every simulated component. Provides the name and
 * convenience access to the owning Simulation's queue and RNG.
 *
 * Partition affinity is captured from the thread-local
 * psim::PartitionScope active at construction (partition 0 when
 * none is). When the scope carries a shared partition cell (one
 * per guest), the object resolves its partition through the cell,
 * so migrating the guest re-homes every component at once.
 *
 * The partition picks the object's queue and RNG shard, never its
 * clock: curTick() is Simulation::now(), the time of the partition
 * executing the code. Control code calling into a server's object
 * in Phase A therefore reads control time, not the server queue's
 * clock, which lags the round. A construction scope must not
 * change the clock either, so keep it around the construction.
 */
class SimObject
{
  public:
    SimObject(Simulation &sim, std::string name)
        : sim_(sim), name_(std::move(name)),
          partition_(psim::currentPartitionOf(&sim)),
          partitionCell_(psim::currentCellOf(&sim)) {}
    virtual ~SimObject() = default;

    SimObject(const SimObject &) = delete;
    SimObject &operator=(const SimObject &) = delete;

    const std::string &name() const { return name_; }
    Simulation &sim() { return sim_; }

    /** Partition this object's events execute in. */
    unsigned
    partition() const
    {
        return partitionCell_ ? *partitionCell_ : partition_;
    }

    EventQueue &eventq() { return sim_.partitionQueue(partition()); }
    Rng &rng() { return sim_.partitionRng(partition()); }
    Tick curTick() const { return sim_.now(); }
    obs::MetricRegistry &metrics() { return sim_.metrics(); }
    fault::FaultHookRegistry &faults() { return sim_.faults(); }

    /** Debug log attributed to this object (see Logger::debugEnable). */
    template <typename... Args>
    void
    logDebug(Args &&...args) const
    {
        bmhive::debug(name_, std::forward<Args>(args)...);
    }

    /** Schedule @p ev at a delay relative to now. */
    void
    scheduleIn(Event *ev, Tick delay)
    {
        eventq().schedule(ev, curTick() + delay);
    }

  protected:
    /** Cell this object's partition resolves through, if any
     *  (constructed under a cell-carrying PartitionScope). */
    const unsigned *partitionCell() const { return partitionCell_; }

    Simulation &sim_;

  private:
    std::string name_;
    unsigned partition_;
    const unsigned *partitionCell_;
};

} // namespace bmhive

#endif // BMHIVE_SIM_SIM_OBJECT_HH
