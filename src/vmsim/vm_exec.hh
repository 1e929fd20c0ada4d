/**
 * @file
 * VmExecutionModel: how CPU work is stretched inside a KVM-style
 * vm-guest (paper section 2.1):
 *  - every exit-causing event (MMIO, MSR writes, IPIs) costs
 *    ~10 us of hypervisor handling;
 *  - a background exit rate covers timers and housekeeping;
 *  - host tasks preempt vCPUs, stealing slices of wall time (Fig 1
 *    quantifies p99/p99.9 of this for shared vs exclusive VMs);
 *  - EPT-lengthened page walks stretch memory-intensive work.
 *
 * Bare-metal guests use no execution model at all — their CPUs run
 * untouched, which is the paper's core performance claim.
 */

#ifndef BMHIVE_VMSIM_VM_EXEC_HH
#define BMHIVE_VMSIM_VM_EXEC_HH

#include <deque>
#include <utility>

#include "base/paper_constants.hh"
#include "base/random.hh"
#include "hw/cpu_executor.hh"

namespace bmhive {
namespace vmsim {

struct VmExecParams
{
    /** Hypervisor handling time per exit. */
    Tick exitCost = paper::vmExitCost;
    /** Background exit rate (timers, IPIs), exits/s. */
    double backgroundExitsPerSec = 1000.0;
    /** Host-task preemptions of this vCPU, events/s. */
    double preemptRatePerSec = 2.0;
    /** Mean stolen time per preemption (exponential). */
    Tick preemptMeanDuration = usToTicks(200);
    /** Multiplier on all work from two-level paging. */
    double memStretch = paper::eptMemoryStretch;

    /** A pinned, exclusive high-end VM (paper Fig. 1). */
    static VmExecParams
    exclusive()
    {
        VmExecParams p;
        p.preemptRatePerSec = 0.35;
        p.preemptMeanDuration = usToTicks(120);
        return p;
    }

    /** A shared (unpinned) VM: more and longer preemption. */
    static VmExecParams
    shared()
    {
        VmExecParams p;
        p.preemptRatePerSec = 18.0;
        p.preemptMeanDuration = usToTicks(1400);
        return p;
    }

    /** The storage iothread: contends with the 8-10 I/O cores the
     *  hypervisor burns on a busy server (paper section 2.1), so
     *  it sees frequent, long scheduler preemptions. */
    static VmExecParams
    ioThread()
    {
        VmExecParams p;
        p.exitCost = 0;
        p.backgroundExitsPerSec = 0;
        p.preemptRatePerSec = 68.0;
        p.preemptMeanDuration = usToTicks(1300);
        p.memStretch = 1.0;
        return p;
    }

    /** A host service thread (vhost): steal only, no guest exits. */
    static VmExecParams
    hostThread()
    {
        VmExecParams p;
        p.exitCost = 0;
        p.backgroundExitsPerSec = 0;
        p.preemptRatePerSec = 1.5;
        p.preemptMeanDuration = usToTicks(200);
        p.memStretch = 1.0;
        return p;
    }
};

class VmExecutionModel : public hw::ExecutionModel
{
  public:
    VmExecutionModel(Rng &rng, VmExecParams params)
        : rng_(rng), params_(params) {}

    Tick
    stretch(Tick start, Tick nominal, unsigned exits) override
    {
        double dur = double(nominal) * params_.memStretch;
        // Explicit exits plus background exits over the interval.
        double n_exits =
            double(exits) +
            params_.backgroundExitsPerSec * ticksToSec(nominal);
        dur += n_exits * double(params_.exitCost);

        // Host preemption occupies *wall-clock* windows: work that
        // lands in (or spans) a stolen window waits it out. The
        // windows persist until wall time passes them, so several
        // work items (or vCPUs) caught by one preemption all wait
        // — matching how Fig 1 measures preemption as a fraction
        // of the VM's lifetime, independent of vCPU business.
        if (params_.preemptRatePerSec > 0.0) {
            Tick work = Tick(dur);
            Tick cursor = start;
            Tick extra = 0;
            std::size_t idx = 0;
            while (true) {
                ensureWindows(cursor + work + 1);
                // First window that has not ended by `cursor`.
                while (idx < windows_.size() &&
                       windows_[idx].second <= cursor)
                    ++idx;
                if (idx >= windows_.size())
                    break; // generation horizon exceeded: done
                auto [ws, we] = windows_[idx];
                if (cursor >= ws) {
                    // Inside a stall: wait it out.
                    extra += we - cursor;
                    cursor = we;
                    continue;
                }
                Tick runway = ws - cursor;
                if (work <= runway)
                    break;
                work -= runway;
                cursor = ws;
            }
            prune(start);
            return Tick(dur) + extra;
        }
        return Tick(dur);
    }

    const VmExecParams &params() const { return params_; }

  private:
    /** Generate stall windows covering wall time up to @p until. */
    void
    ensureWindows(Tick until)
    {
        while (genEnd_ <= until) {
            double gap = rng_.exponential(
                double(tickSec) / params_.preemptRatePerSec);
            Tick ws = genEnd_ + Tick(gap);
            Tick we =
                ws + Tick(rng_.exponential(
                         double(params_.preemptMeanDuration)));
            windows_.push_back({ws, we});
            genEnd_ = we;
        }
    }

    /** Drop windows far behind the current wall time. Callers
     *  (vCPUs of one guest) stay within a bounded skew of each
     *  other; one simulated second of slack is generous. */
    void
    prune(Tick cursor)
    {
        while (windows_.size() > 8 &&
               windows_.front().second + tickSec < cursor)
            windows_.pop_front();
    }

    Rng &rng_;
    VmExecParams params_;
    std::deque<std::pair<Tick, Tick>> windows_;
    Tick genEnd_ = 0;
};

} // namespace vmsim
} // namespace bmhive

#endif // BMHIVE_VMSIM_VM_EXEC_HH
