/**
 * @file
 * Pollable: one unit of poll-mode backend work — a whole
 * bm-hypervisor/vhost service, or one slice of it (a net queue
 * pair, a blk queue, the console) — and the contract between it and
 * the PollScheduler loop that visits it. The loop decides when to
 * visit and which core pays; the unit only does the work, so the
 * interface carries no timing state of its own.
 */

#ifndef BMHIVE_SCHED_POLLABLE_HH
#define BMHIVE_SCHED_POLLABLE_HH

#include <cstdint>

#include "base/units.hh"

namespace bmhive {
namespace hw {
class CpuExecutor;
}
namespace sched {

class PollScheduler;

/** Registration handle; id 0 is "never registered". */
struct PollHandle
{
    unsigned loop = 0;
    std::uint64_t id = 0;

    bool valid() const { return id != 0; }
};

class Pollable
{
  public:
    Pollable() = default;
    Pollable(const Pollable &) = delete;
    Pollable &operator=(const Pollable &) = delete;
    virtual ~Pollable() = default;

    /**
     * Service up to @p budget work items (packets, block requests,
     * console lines) and return how many were actually serviced.
     * CPU costs charge @p core, the executor of the visiting loop.
     * Called only while pollAlive() and not blocked.
     */
    virtual unsigned servicePoll(unsigned budget,
                                 hw::CpuExecutor &core) = 0;

    /** False once the backing process stopped or died; loops skip
     *  dead units entirely. */
    virtual bool pollAlive() const = 0;

    /**
     * Tick before which this unit must not be serviced (an injected
     * stall, a preempted process). 0 / past ticks mean ready now.
     */
    virtual Tick pollBlockedUntil() const = 0;

    /** Work was posted for this unit (doorbell, backend rx, console
     *  input): wake its loop. No-op while unregistered. */
    void wake();

    /**
     * pollAlive() or pollBlockedUntil() just changed: a Dedicated
     * loop stops, or moves its next visit to the end of the stall,
     * at once (a Shared round notices on its own). No-op while
     * unregistered.
     */
    void replan();

    bool registered() const { return sched_ != nullptr; }

    /** Registered under the Shared policy: the wait for a visit is
     *  then its own Fig. 6 stage (sched_delay). */
    bool sharedLoop() const;

  private:
    friend class PollScheduler;

    PollScheduler *sched_ = nullptr;
    PollHandle handle_;
};

} // namespace sched
} // namespace bmhive

#endif // BMHIVE_SCHED_POLLABLE_HH
