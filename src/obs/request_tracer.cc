#include "obs/request_tracer.hh"

#include <cstdio>
#include <utility>

#include "base/logging.hh"

namespace bmhive {
namespace obs {

RequestTracer::RequestTracer(std::string path,
                             MetricRegistry &registry)
    : path_(std::move(path))
{
    for (unsigned i = 1; i < numStages; ++i) {
        stage_[i] = &registry.latency(
            path_ + ".stage." + stageName(Stage(i)));
    }
    total_ = &registry.latency(path_ + ".stage.total");
    started_ = &registry.counter(path_ + ".flows.started");
    completed_ = &registry.counter(path_ + ".flows.completed");
    unmatched_ = &registry.counter(path_ + ".flows.unmatched");
    evicted_ = &registry.counter(path_ + ".flows.evicted");
    aborted_ = &registry.counter(path_ + ".flows.aborted");
    // Shared across every tracer in the registry: one place to see
    // whether any guest is leaking open flows.
    evictedGlobal_ = &registry.counter("obs.tracer.evicted_flows");
}

void
RequestTracer::stamp(std::uint64_t key, Stage s, Tick now)
{
    if (s == Stage::GuestPost) {
        // (Re)open the flow; a key reuse implicitly abandons any
        // earlier flow that never saw its MSI.
        OpenFlow f{now, now, Stage::GuestPost, ++seq_};
        open_[key] = f;
        order_.emplace_back(key, f.seq);
        started_->inc();
        enforceBound();
        return;
    }

    auto it = open_.find(key);
    if (it == open_.end()) {
        // Backend-initiated work (rx delivery) or a flow opened
        // before tracing was enabled: not an error, just unmatched.
        unmatched_->inc();
        return;
    }
    OpenFlow &f = it->second;
    Tick prev = f.lastAt;
    panic_if(now < prev, path_, ": flow ", key, " stamped ",
             stageName(s), " before ", stageName(f.last));
    stage_[unsigned(s)]->record(now - prev);
    if (spans_)
        spans_->recordSpan(prev, s, now - prev, unsigned(key >> 32),
                           unsigned(key >> 16) & 0xffff, key);
    f.lastAt = now;
    f.last = s;

    if (s == finalStage_) {
        Tick e2e = now - f.start;
        total_->record(e2e);
        completed_->inc();
        open_.erase(it);
        if (closeHook_)
            closeHook_(e2e, now);
    }
}

void
RequestTracer::enforceBound()
{
    while (open_.size() > maxOpen_ && !order_.empty()) {
        auto [key, seq] = order_.front();
        order_.pop_front();
        auto it = open_.find(key);
        // Stale entry: the flow closed, was dropped, or the key was
        // reopened under a newer seq. Nothing to evict for it.
        if (it == open_.end() || it->second.seq != seq)
            continue;
        open_.erase(it);
        evicted_->inc();
        evictedGlobal_->inc();
    }
    // The order log itself must stay bounded too: stale entries
    // (closed, dropped, or reopened flows) pile up behind a
    // long-lived open flow and the loop above never reaches them.
    // Compact once they outnumber live flows by a full table —
    // amortized O(1) per open.
    if (order_.size() > open_.size() + maxOpen_) {
        std::deque<std::pair<std::uint64_t, std::uint64_t>> live;
        for (const auto &[key, seq] : order_) {
            auto it = open_.find(key);
            if (it != open_.end() && it->second.seq == seq)
                live.emplace_back(key, seq);
        }
        order_.swap(live);
    }
}

void
RequestTracer::dropOpen(unsigned fn, unsigned q)
{
    std::uint64_t prefix = flowKey(fn, q, 0);
    auto it = open_.lower_bound(prefix);
    while (it != open_.end() && (it->first & ~0xffffull) == prefix) {
        it = open_.erase(it);
        aborted_->inc();
    }
    // order_ entries for the dropped keys go stale and are popped
    // lazily by enforceBound().
}

const LatencyRecorder &
RequestTracer::stageLatency(Stage s) const
{
    panic_if(s == Stage::GuestPost,
             path_, ": GuestPost opens flows, it has no latency");
    return *stage_[unsigned(s)];
}

std::string
RequestTracer::breakdown() const
{
    std::string out;
    char buf[128];
    std::snprintf(buf, sizeof(buf), "%s I/O path breakdown (%llu "
                  "flows)\n",
                  path_.c_str(),
                  (unsigned long long)completed_->value());
    out += buf;
    double sum = 0.0;
    for (unsigned i = 1; i < numStages; ++i) {
        const LatencyRecorder &r = *stage_[i];
        std::snprintf(buf, sizeof(buf),
                      "  %-14s %8.2f us mean  (n=%llu)\n",
                      stageName(Stage(i)), r.meanUs(),
                      (unsigned long long)r.count());
        out += buf;
        sum += r.meanUs();
    }
    std::snprintf(buf, sizeof(buf),
                  "  %-14s %8.2f us (stage sum %.2f us)\n",
                  "end-to-end", total_->meanUs(), sum);
    out += buf;
    return out;
}

} // namespace obs
} // namespace bmhive
