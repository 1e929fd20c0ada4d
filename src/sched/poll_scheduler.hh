/**
 * @file
 * PollScheduler: the one home of backend poll loops. Every poll
 * event in the simulator belongs to one of its loops, each run
 * under one of two policies:
 *
 *  - Dedicated: one unit per loop — the seed design's busy-polling
 *    bm-hypervisor PMD (paper section 3.4.2), the vm's vhost thread,
 *    or a passthrough queue. The unit is visited one poll period
 *    after its last visit, or later while its core is still busy or
 *    the unit is stalled, with an unlimited budget. No backoff, no
 *    sleep, no metrics of its own.
 *
 *  - Shared: N units multiplexed over M base-board cores, the
 *    density alternative (cf. the paper's section 3.5 economics).
 *    Each core runs a scheduler round that services its registered
 *    units with deficit-weighted round-robin: every round a ready
 *    unit earns quantum*weight items of deficit, is serviced up to
 *    its accumulated deficit, and loses the unused remainder when it
 *    runs dry (classic DWRR, so a backlogged guest cannot hoard
 *    credit and an active one gets cross-guest batching within the
 *    round). An adaptive-poll governor walks each core busy-poll ->
 *    backoff -> sleep as its units run dry: rounds with work keep
 *    the busy-poll period, an idle streak doubles the period up to a
 *    ceiling, and one more idle round at the ceiling stops
 *    scheduling rounds entirely. IO-Bond doorbell writes (and
 *    backend rx/console input) post a wake; a sleeping core resumes
 *    within a bounded wake latency, modeled in ticks.
 *
 * Containment hooks: per-unit weights on Shared loops. Suspect
 * guests get a fractional weight (deprioritized but serviced),
 * quarantined guests weight 0 (starved at the scheduler, not just
 * at the doorbell).
 *
 * Liveness: the watchdog asks wedged() and nothing else. A Shared
 * unit is wedged when work posted a full window ago has had no
 * visit since; a Dedicated unit when it is alive and has not been
 * visited for a whole window, stalls included.
 */

#ifndef BMHIVE_SCHED_POLL_SCHEDULER_HH
#define BMHIVE_SCHED_POLL_SCHEDULER_HH

#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "base/paper_constants.hh"
#include "base/stats.hh"
#include "hw/cpu_executor.hh"
#include "obs/flight_recorder.hh"
#include "sched/pollable.hh"
#include "sim/sim_object.hh"

namespace bmhive {
namespace sched {

struct PollSchedulerParams
{
    /** Round period while busy (the PMD spin granularity). */
    Tick pollPeriod = paper::bmPollPeriod;
    /** Work items one unit of weight earns per round. */
    unsigned quantum = paper::schedQuantum;
    /** Idle rounds before the governor starts backing off. */
    unsigned idleRoundsBeforeBackoff =
        paper::schedIdleRoundsBeforeBackoff;
    /** Backoff ceiling; idle there sends the core to sleep. */
    Tick maxBackoff = paper::schedMaxBackoff;
    /** Doorbell-to-first-poll latency of a sleeping core. */
    Tick wakeLatency = paper::schedWakeLatency;
};

class PollScheduler : public SimObject
{
  public:
    using Handle = PollHandle;

    /** @p cores is the Shared pool; a scheduler that only runs
     *  Dedicated loops passes none. */
    PollScheduler(Simulation &sim, std::string name,
                  std::vector<hw::CpuExecutor *> cores = {},
                  PollSchedulerParams params = {});
    ~PollScheduler() override;

    /** Cores in the Shared pool. */
    unsigned coreCount() const { return sharedCores_; }
    hw::CpuExecutor &coreExecutor(unsigned i);

    /** Pool core with the fewest units polled on it, Dedicated
     *  loops included (placement). */
    unsigned leastLoadedCore() const;

    /**
     * Shared policy: register @p p on pool core @p core with
     * @p weight; the items it is served count under
     * "<name>.served.<label>". The core is kicked so queued bring-up
     * work is discovered without a doorbell.
     */
    Handle add(unsigned core, Pollable &p, double weight,
               const std::string &label);

    /**
     * Dedicated policy: a loop of its own for @p p on @p exec,
     * visited every @p period from now on.
     */
    Handle addDedicated(hw::CpuExecutor &exec, Pollable &p,
                        Tick period);

    void remove(Handle h);

    /**
     * Containment lever (Shared units): 1.0 = normal share,
     * fractions deprioritize, 0 starves (the unit keeps its slot but
     * is never serviced until the weight comes back).
     */
    void setWeight(Handle h, double w);

    /** Attach @p h's guest flight recorder: each serviced Shared
     *  round records SchedVisit (a = items served). */
    void setFlightRecorder(Handle h, obs::FlightRecorder *fr);

    /** Period of @p h's later visits (Dedicated loops). */
    void setPeriod(Handle h, Tick period);

    /**
     * Work was posted for @p h (doorbell, backend rx, console
     * input): wake a sleeping/backed-off Shared core so it polls
     * within wakeLatency. Dedicated loops never sleep.
     */
    void wake(Handle h);

    /** See Pollable::replan(). */
    void replan(Handle h);

    // --- Watchdog interface (per-unit progress) ---

    /** Visits of @p h. */
    std::uint64_t serviceVisits(Handle h) const;
    /**
     * True when @p h is wedged, not merely idle: a Shared unit had
     * work posted more than @p window ago and no visit since (an
     * idle guest posts nothing, a starved weight-0 guest is
     * deliberate); a Dedicated unit is alive and unvisited for more
     * than @p window.
     */
    bool wedged(Handle h, Tick window) const;

    // --- Observability (Shared pool cores) ---

    std::uint64_t rounds(unsigned core) const;
    std::uint64_t wakes(unsigned core) const;
    std::uint64_t sleeps(unsigned core) const;
    unsigned pollablesOn(unsigned core) const;
    double busyRatio(unsigned core) const;
    const LatencyRecorder &wakeToPoll(unsigned core) const;

    const PollSchedulerParams &params() const { return params_; }

  private:
    enum class CoreState { Busy, Backoff, Sleep };

    struct Member
    {
        std::uint64_t id = 0;
        Pollable *pollable = nullptr;
        double weight = 1.0;
        double deficit = 0.0;
        std::uint64_t visits = 0;
        Tick lastServiced = 0;
        /** Posted work not yet followed by a service visit. */
        bool wakePending = false;
        Tick postedAt = 0;
        /** Items serviced, attributed per guest backend. */
        Counter *served = nullptr;
        /** Owning guest's flight recorder, when attached. */
        obs::FlightRecorder *flight = nullptr;
    };

    /** One poll loop: a Shared pool core or a Dedicated loop. */
    struct Loop
    {
        hw::CpuExecutor *exec = nullptr;
        std::vector<Member> members;
        CoreState state = CoreState::Sleep;
        /** Shared: the governor's current period; Dedicated: the
         *  fixed one. */
        Tick period = 0;
        unsigned idleRounds = 0;
        std::unique_ptr<EventFunctionWrapper> event;
        // Shared pool cores only.
        Counter *rounds = nullptr;
        Counter *busy = nullptr;
        Counter *items = nullptr;
        Counter *wakes = nullptr;
        Counter *sleeps = nullptr;
        Gauge *pollables = nullptr;
        Histogram *roundItems = nullptr;
        LatencyRecorder *wakeToPoll = nullptr;
    };

    bool dedicated(unsigned li) const { return li >= sharedCores_; }
    void runRound(unsigned ci);
    void runDedicated(unsigned li);
    /** Arm @p li's next Dedicated visit (or stop a dead unit's). */
    void planDedicated(unsigned li);
    /** Resume busy polling on @p ci within wakeLatency. */
    void expedite(unsigned ci, bool count_wake);
    /** Schedule (or expedite) core @p ci's next round at @p at. */
    void kick(unsigned ci, Tick at);
    /** Record @p h as @p p's registration. */
    Handle enroll(Pollable &p, unsigned li, Member m);
    Member *find(Handle h);
    const Member *find(Handle h) const;
    const Loop &sharedCore(unsigned core) const;

    PollSchedulerParams params_;
    /** Pool cores first, then Dedicated loops (recycled). */
    std::deque<Loop> loops_;
    unsigned sharedCores_ = 0;
    std::vector<unsigned> freeLoops_;
    std::uint64_t nextId_ = 1;
};

} // namespace sched
} // namespace bmhive

#endif // BMHIVE_SCHED_POLL_SCHEDULER_HH
