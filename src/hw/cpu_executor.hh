/**
 * @file
 * CpuExecutor: one hardware thread (or vCPU) as a serialized work
 * timeline. Guest drivers and workloads run closures with explicit
 * CPU costs; the executor serializes them, applies the CPU's
 * single-thread speed factor, and lets a platform hook *stretch*
 * work — the mechanism by which the KVM baseline charges VM exits,
 * EPT-lengthened walks, and host preemption (paper section 2.1),
 * while a bm-guest executes at native speed.
 */

#ifndef BMHIVE_HW_CPU_EXECUTOR_HH
#define BMHIVE_HW_CPU_EXECUTOR_HH

#include <functional>
#include <string>
#include <utility>

#include "base/stats.hh"
#include "base/units.hh"
#include "sim/sim_object.hh"

namespace bmhive {
namespace hw {

/**
 * Platform-dependent execution overhead. Given a nominal work
 * duration and its start tick, returns the stretched duration on
 * this platform. The default is the identity (bare metal).
 */
class ExecutionModel
{
  public:
    virtual ~ExecutionModel() = default;

    /**
     * @param start   tick at which the work begins
     * @param nominal native duration of the work
     * @param exits   VM-exit-triggering events in the work (MSR
     *                writes, IPIs, MMIO, ...); ignored on bare metal
     * @return actual duration on this platform
     */
    virtual Tick
    stretch(Tick start, Tick nominal, unsigned exits)
    {
        (void)start;
        (void)exits;
        return nominal;
    }
};

class CpuExecutor : public SimObject
{
  public:
    /**
     * @param speed_factor  single-thread performance factor
     * @param exec          overhead model; nullptr = native
     */
    CpuExecutor(Simulation &sim, std::string name,
                double speed_factor = 1.0,
                ExecutionModel *exec = nullptr)
        : SimObject(sim, std::move(name)),
          speedFactor_(speed_factor), exec_(exec) {}

    /**
     * Run @p fn after @p nominal_cost of CPU work (at native speed
     * on this SKU), serialized after previously queued work.
     * @param exits  number of exit-causing events within the work
     * @return tick at which the work completes
     */
    Tick
    run(Tick nominal_cost, std::function<void()> fn,
        unsigned exits = 0)
    {
        Tick end = charge(nominal_cost, exits);
        eventq().schedule(new OneShotEvent(std::move(fn), "cpu.work"),
                          end);
        return end;
    }

    /**
     * Account work with no completion callback: the work occupies
     * the timeline, and nothing is scheduled.
     * @return tick at which the work completes
     */
    Tick
    charge(Tick nominal_cost, unsigned exits = 0)
    {
        Tick start = busyUntil_ > curTick() ? busyUntil_ : curTick();
        Tick scaled = Tick(double(nominal_cost) / speedFactor_);
        Tick dur = exec_ ? exec_->stretch(start, scaled, exits)
                         : scaled;
        busyUntil_ = start + dur;
        busyTime_ += dur;
        return busyUntil_;
    }

    /** When this CPU thread next becomes idle. */
    Tick busyUntil() const { return busyUntil_; }

    /** Utilization over [0, now]. */
    double
    utilization() const
    {
        Tick now = curTick();
        return now == 0 ? 0.0
                        : double(busyTime_) / double(now);
    }

    double speedFactor() const { return speedFactor_; }

  private:
    double speedFactor_;
    ExecutionModel *exec_;
    Tick busyUntil_ = 0;
    Tick busyTime_ = 0;
};

} // namespace hw
} // namespace bmhive

#endif // BMHIVE_HW_CPU_EXECUTOR_HH
