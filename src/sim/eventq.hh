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

#include <cstddef>
#include <cstdint>
#include <functional>
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
 * lifetime and must keep them alive while scheduled. Descheduling
 * removes an event from its queue at once, so it may be destroyed
 * right after; an owner torn down mid-simulation relies on that.
 * The one exception is OneShotEvent, which the queue owns.
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

    bool scheduled() const { return queue_ != nullptr; }
    Tick when() const { return when_; }
    Priority priority() const { return priority_; }

  private:
    friend class EventQueue;

    /** Static label for the queue's diagnostics. */
    const char *tag_;
    Tick when_ = 0;
    Priority priority_;
    /** Index of this event's entry in queue_'s heap. */
    std::size_t slot_ = 0;
    /** Queue holding this event while scheduled, null otherwise.
     *  Partitioned simulations have one queue per partition;
     *  descheduling through the wrong one would remove another
     *  queue's heap slot, so the owning queue is checked
     *  explicitly. */
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
    bool empty() const { return heap_.empty(); }

    /** Number of scheduled events. */
    std::size_t size() const { return heap_.size(); }

    /** Tick of the next event; maxTick when empty. */
    Tick
    nextTick() const
    {
        return heap_.empty() ? maxTick : heap_.front().when;
    }

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

    /** Same-tick events after which step() declares a livelock. */
    static constexpr std::uint64_t sameTickLimit = 2'000'000;

  private:
    /** An event's heap key, copied so comparisons never touch the
     *  event itself. */
    struct Entry
    {
        Tick when;
        Event::Priority pri;
        std::uint64_t seq;
        Event *ev;

        bool
        before(const Entry &o) const
        {
            if (when != o.when)
                return when < o.when;
            if (pri != o.pri)
                return pri < o.pri;
            return seq < o.seq;
        }
    };

    /** Store @p e at heap index @p i and tell its event. */
    void
    place(std::size_t i, const Entry &e)
    {
        heap_[i] = e;
        e.ev->slot_ = i;
    }

    /** Move @p e up from the free slot @p i to where it belongs. */
    void siftUp(std::size_t i, const Entry &e);

    /** Take the entry at heap index @p i out of the heap. */
    void remove(std::size_t i);

    /** Binary min-heap on (when, pri, seq); holds only scheduled
     *  events, each of which knows its index. */
    std::vector<Entry> heap_;
    Tick curTick_ = 0;
    std::uint64_t nextSeq_ = 0;
    std::uint64_t processed_ = 0;
    std::uint64_t sameTickCount_ = 0;
};

} // namespace bmhive

#endif // BMHIVE_SIM_EVENTQ_HH
