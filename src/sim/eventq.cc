#include "sim/eventq.hh"

#include "base/logging.hh"

namespace bmhive {

Event::~Event()
{
    panic_if(scheduled_, "event '", tag_,
             "' destroyed while scheduled at ", when_);
}

EventQueue::~EventQueue()
{
    // The queue owns the one-shots it holds. A stale entry's event
    // may already be gone, so only live entries are looked at.
    for (const Entry &e : heap_) {
        if (staleSeqs_.contains(e.seq))
            continue;
        if (auto *os = dynamic_cast<OneShotEvent *>(e.ev)) {
            os->scheduled_ = false;
            delete os;
        }
    }
}

void
EventQueue::schedule(Event *ev, Tick when)
{
    panic_if(ev == nullptr, "scheduling a null event");
    panic_if(ev->scheduled_, "event '", ev->tag_,
             "' is already scheduled at ", ev->when_);
    panic_if(when < curTick_, "scheduling event '", ev->tag_,
             "' in the past: ", when, " < ", curTick_);
    ev->when_ = when;
    ev->sequence_ = nextSeq_++;
    ev->scheduled_ = true;
    ev->queue_ = this;
    heap_.push_back(Entry{when, ev->priority_, ev->sequence_, ev});
    std::push_heap(heap_.begin(), heap_.end(), heapCmp);
    ++liveCount_;
}

void
EventQueue::deschedule(Event *ev)
{
    panic_if(ev == nullptr, "descheduling a null event");
    panic_if(!ev->scheduled_,
             "event '", ev->tag_, "' is not scheduled");
    panic_if(ev->queue_ != this, "event '", ev->tag_,
             "' descheduled through a foreign queue");
    // Lazy deletion: the heap entry stays behind, keyed by its
    // sequence number, and skim() drops it without dereferencing
    // the event — which may be destroyed as soon as we return.
    ev->scheduled_ = false;
    ev->queue_ = nullptr;
    staleSeqs_.insert(ev->sequence_);
    --liveCount_;
    maybeCompact();
}

void
EventQueue::reschedule(Event *ev, Tick when)
{
    if (ev->scheduled_)
        deschedule(ev);
    schedule(ev, when);
}

void
EventQueue::skim()
{
    // Every deschedule (including the one inside reschedule)
    // records its entry's sequence number, so membership alone
    // decides staleness; the Event* in a stale entry is never
    // touched.
    while (!heap_.empty() && staleSeqs_.erase(heap_.front().seq)) {
        std::pop_heap(heap_.begin(), heap_.end(), heapCmp);
        heap_.pop_back();
    }
}

void
EventQueue::maybeCompact()
{
    // Stale entries buried below the top survive skim() until the
    // heap shrinks down to them, so a reschedule-heavy timer (the
    // adaptive poll governor re-arms constantly) would otherwise
    // grow heap_ and staleSeqs_ without bound relative to live
    // events. Rebuilding is O(n) and amortizes to O(1) per
    // deschedule at the 50% threshold.
    if (staleSeqs_.size() < compactMinStale ||
        staleSeqs_.size() * 2 < heap_.size())
        return;
    std::erase_if(heap_, [this](const Entry &e) {
        return staleSeqs_.erase(e.seq) != 0;
    });
    staleSeqs_.clear();
    std::make_heap(heap_.begin(), heap_.end(), heapCmp);
    ++compactions_;
    if (onCompact_)
        onCompact_();
}

Tick
EventQueue::nextTick() const
{
    auto *self = const_cast<EventQueue *>(this);
    self->skim();
    return heap_.empty() ? maxTick : heap_.front().when;
}

bool
EventQueue::step()
{
    skim();
    if (heap_.empty())
        return false;
    Entry e = heap_.front();
    std::pop_heap(heap_.begin(), heap_.end(), heapCmp);
    heap_.pop_back();
    panic_if(e.when < curTick_, "time went backwards");
    if (e.when != curTick_) {
        curTick_ = e.when;
        sameTickCount_ = 0;
    }
    // A zero-latency event cycle would freeze simulated time while
    // burning host CPU forever. No legitimate model comes close to
    // this many events in one tick; treat it as a modelling bug.
    panic_if(++sameTickCount_ > sameTickLimit,
             "event livelock: ", sameTickLimit,
             " events at tick ", curTick_, "; last: '",
             e.ev->tag_, "'");
    e.ev->scheduled_ = false;
    e.ev->queue_ = nullptr;
    --liveCount_;
    ++processed_;
    e.ev->process();
    return true;
}

void
EventQueue::run(Tick limit)
{
    while (true) {
        skim();
        if (heap_.empty() || heap_.front().when > limit)
            break;
        step();
    }
    // Drained or not, the queue owes the caller the full window:
    // fixed-window pumps (and parked partitions) read curTick
    // afterwards and must see the limit, not the tick of whatever
    // event happened to run last. A limit already behind the clock
    // never moves it back.
    if (limit != maxTick && limit > curTick_)
        curTick_ = limit;
}

} // namespace bmhive
