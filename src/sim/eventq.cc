#include "sim/eventq.hh"

#include "base/logging.hh"

namespace bmhive {

Event::~Event()
{
    panic_if(scheduled(), "event '", tag_,
             "' destroyed while scheduled at ", when_);
}

EventQueue::~EventQueue()
{
    // The queue owns the one-shots it holds.
    for (const Entry &e : heap_) {
        if (auto *os = dynamic_cast<OneShotEvent *>(e.ev)) {
            os->queue_ = nullptr;
            delete os;
        }
    }
}

void
EventQueue::schedule(Event *ev, Tick when)
{
    panic_if(ev == nullptr, "scheduling a null event");
    panic_if(ev->scheduled(), "event '", ev->tag_,
             "' is already scheduled at ", ev->when_);
    panic_if(when < curTick_, "scheduling event '", ev->tag_,
             "' in the past: ", when, " < ", curTick_);
    ev->when_ = when;
    ev->queue_ = this;
    heap_.emplace_back();
    siftUp(heap_.size() - 1, Entry{when, ev->priority_, nextSeq_++, ev});
}

void
EventQueue::deschedule(Event *ev)
{
    panic_if(ev == nullptr, "descheduling a null event");
    panic_if(!ev->scheduled(),
             "event '", ev->tag_, "' is not scheduled");
    panic_if(ev->queue_ != this, "event '", ev->tag_,
             "' descheduled through a foreign queue");
    remove(ev->slot_);
    ev->queue_ = nullptr;
}

void
EventQueue::reschedule(Event *ev, Tick when)
{
    if (ev->scheduled())
        deschedule(ev);
    schedule(ev, when);
}

void
EventQueue::siftUp(std::size_t i, const Entry &e)
{
    while (i > 0) {
        std::size_t parent = (i - 1) / 2;
        if (!e.before(heap_[parent]))
            break;
        place(i, heap_[parent]);
        i = parent;
    }
    place(i, e);
}

void
EventQueue::remove(std::size_t i)
{
    const Entry last = heap_.back();
    heap_.pop_back();
    const std::size_t n = heap_.size();
    if (i == n)
        return;
    // Walk the hole down to a leaf along the smaller children, then
    // sift the last entry up from there. It usually belongs near
    // the bottom, so this costs one comparison per level where
    // sifting it down from the top would cost two.
    for (std::size_t c; (c = 2 * i + 1) < n; i = c) {
        if (c + 1 < n && heap_[c + 1].before(heap_[c]))
            ++c;
        place(i, heap_[c]);
    }
    siftUp(i, last);
}

bool
EventQueue::step()
{
    if (heap_.empty())
        return false;
    const Entry e = heap_.front();
    remove(0);
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
    e.ev->queue_ = nullptr;
    ++processed_;
    e.ev->process();
    return true;
}

void
EventQueue::run(Tick limit)
{
    while (!heap_.empty() && heap_.front().when <= limit)
        step();
    // Drained or not, the queue owes the caller the full window:
    // fixed-window pumps (and parked partitions) read curTick
    // afterwards and must see the limit, not the tick of whatever
    // event happened to run last. A limit already behind the clock
    // never moves it back.
    if (limit != maxTick && limit > curTick_)
        curTick_ = limit;
}

} // namespace bmhive
