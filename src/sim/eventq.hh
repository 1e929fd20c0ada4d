/**
 * @file
 * Discrete-event simulation core: Event, EventQueue.
 *
 * The event queue is the single source of simulated time. Events
 * are ordered by (tick, priority, insertion sequence); same-tick
 * events therefore execute in a deterministic order, which the
 * test suite relies on.
 */

#ifndef BMHIVE_SIM_EVENTQ_HH
#define BMHIVE_SIM_EVENTQ_HH

#include <algorithm>
#include <cstdint>
#include <functional>
#include <unordered_set>
#include <vector>

#include "base/units.hh"

namespace bmhive {

class EventQueue;

/**
 * An occurrence scheduled at a point in simulated time. Subclass
 * and implement process(), or use EventFunctionWrapper for
 * lambda-based events.
 *
 * Every event carries a static tag — a string literal that names
 * it in diagnostics and is never copied or freed.
 *
 * Events do not own themselves; the creating object manages their
 * lifetime and must keep them alive while scheduled. Once
 * descheduled, an event may be destroyed immediately: the queue
 * identifies its stale heap entry by sequence number and never
 * touches the event pointer again (this is what lets a demoted
 * passthrough poller be torn down mid-simulation). The one
 * exception is OneShotEvent, which the queue owns.
 */
class Event
{
  public:
    /** Lower value runs first among same-tick events. */
    using Priority = int;

    static constexpr Priority defaultPri = 0;
    /** Service/poll loops run after ordinary events of that tick. */
    static constexpr Priority pollPri = 10;
    /** Statistics collection runs last at a given tick. */
    static constexpr Priority statsPri = 100;

    explicit Event(const char *tag, Priority pri = defaultPri)
        : tag_(tag), priority_(pri) {}
    virtual ~Event();

    Event(const Event &) = delete;
    Event &operator=(const Event &) = delete;

    /** Called by the queue when simulated time reaches when(). */
    virtual void process() = 0;

    bool scheduled() const { return scheduled_; }
    Tick when() const { return when_; }
    Priority priority() const { return priority_; }

  private:
    friend class EventQueue;

    /** Static label for the queue's diagnostics. */
    const char *tag_;
    Tick when_ = 0;
    Priority priority_;
    std::uint64_t sequence_ = 0;
    bool scheduled_ = false;
    /** Queue holding this event while scheduled. Partitioned
     *  simulations have one queue per partition; descheduling
     *  through the wrong one would corrupt that queue's stale-entry
     *  bookkeeping, so the owning queue is checked explicitly. */
    EventQueue *queue_ = nullptr;
};

/** Event that invokes a stored callable; the common case. */
class EventFunctionWrapper : public Event
{
  public:
    EventFunctionWrapper(std::function<void()> fn, const char *tag,
                         Priority pri = defaultPri)
        : Event(tag, pri), fn_(std::move(fn)) {}

    void process() override { fn_(); }

  private:
    std::function<void()> fn_;
};

/**
 * Fire-and-forget event: runs its callable once. Use for
 * asynchronous completions with no owner (e.g. in-flight MSI
 * messages). Must be heap-allocated; the queue it is scheduled on
 * owns it, freeing it when it fires or, if it is still pending,
 * when the queue is destroyed.
 */
class OneShotEvent : public Event
{
  public:
    OneShotEvent(std::function<void()> fn, const char *tag,
                 Priority pri = defaultPri)
        : Event(tag, pri), fn_(std::move(fn)) {}

    void
    process() override
    {
        auto fn = std::move(fn_);
        delete this;
        if (fn)
            fn();
    }

  private:
    std::function<void()> fn_;
};

/**
 * The ordering structure for events. A classic simulation has one
 * queue that everything shares; a partitioned simulation has one
 * per partition, each advancing its own curTick within the bounds
 * negotiated by the coordinator.
 */
class EventQueue
{
  public:
    EventQueue() = default;
    /** Frees the one-shots still pending. */
    ~EventQueue();

    EventQueue(const EventQueue &) = delete;
    EventQueue &operator=(const EventQueue &) = delete;

    /** Current simulated time. */
    Tick curTick() const { return curTick_; }

    /** Schedule @p ev at absolute time @p when (>= curTick). */
    void schedule(Event *ev, Tick when);

    /** Remove a scheduled event from the queue. */
    void deschedule(Event *ev);

    /** Deschedule (if scheduled) and re-schedule at @p when. */
    void reschedule(Event *ev, Tick when);

    /** True if no events remain. */
    bool empty() const { return liveCount_ == 0; }

    /** Number of scheduled (non-squashed) events. */
    std::size_t size() const { return liveCount_; }

    /** Tick of the next live event; maxTick when empty. */
    Tick nextTick() const;

    /**
     * Run the next event.
     * @return false if the queue was empty.
     */
    bool step();

    /**
     * Run until curTick exceeds @p limit or the queue is empty.
     * With a finite limit, curTick lands exactly on @p limit —
     * including when the queue drains first — so fixed-window
     * callers (fleet pumps, partition rounds) never observe stale
     * time after an idle window; a limit already in the past
     * leaves curTick where it is.
     */
    void run(Tick limit = maxTick);

    /** Total events processed since construction. */
    std::uint64_t processedCount() const { return processed_; }

    /**
     * Heap entries currently held, live plus stale. Compaction
     * keeps this within ~2x the live count (plus a small floor)
     * under reschedule storms.
     */
    std::size_t heapSize() const { return heap_.size(); }

    /** Times the heap was rebuilt to shed stale entries. */
    std::uint64_t compactions() const { return compactions_; }

    /** Invoked after every compaction (metric counter hookup). */
    void
    setCompactionHook(std::function<void()> hook)
    {
        onCompact_ = std::move(hook);
    }

    /** Same-tick events after which step() declares a livelock. */
    static constexpr std::uint64_t sameTickLimit = 2'000'000;

    /** Stale entries below this never trigger a compaction. */
    static constexpr std::size_t compactMinStale = 64;

  private:
    struct Entry
    {
        Tick when;
        Event::Priority pri;
        std::uint64_t seq;
        Event *ev;

        bool
        operator>(const Entry &o) const
        {
            if (when != o.when)
                return when > o.when;
            if (pri != o.pri)
                return pri > o.pri;
            return seq > o.seq;
        }
    };

    /** Min-heap on (when, pri, seq): std::*_heap with greater. */
    static constexpr std::greater<Entry> heapCmp{};

    /** Drop stale entries from the top of the heap. */
    void skim();

    /** Rebuild the heap without stale entries once they dominate. */
    void maybeCompact();

    /** Binary min-heap over Entry (std::*_heap with greater-than).
     *  A raw vector rather than std::priority_queue so compaction
     *  can filter stale entries in place and re-heapify. */
    std::vector<Entry> heap_;
    /** Sequence numbers of descheduled-but-not-yet-popped entries.
     *  Staleness is decided on these alone — the Event behind a
     *  stale entry may already be gone. */
    std::unordered_set<std::uint64_t> staleSeqs_;
    Tick curTick_ = 0;
    std::uint64_t nextSeq_ = 0;
    std::uint64_t processed_ = 0;
    std::uint64_t sameTickCount_ = 0;
    std::uint64_t compactions_ = 0;
    std::size_t liveCount_ = 0;
    std::function<void()> onCompact_;
};

} // namespace bmhive

#endif // BMHIVE_SIM_EVENTQ_HH
