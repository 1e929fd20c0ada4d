/**
 * @file
 * RequestTracer: per-stage latency attribution for one guest's I/O
 * path. Each request is a *flow*, keyed by (function, queue,
 * descriptor head), stamped as it crosses the layer boundaries of
 * the BM-Hive datapath (paper Fig. 6):
 *
 *   GuestPost   guest rang the IO-Bond doorbell (flow start)
 *   ShadowSync  chain published on the shadow vring (DMA landed)
 *   SchedDelay  shared poll-core scheduler reached the backend
 *               (zero-width under dedicated polling)
 *   PollPickup  bm-hypervisor PMD popped the shadow chain
 *   Service     vSwitch handoff / block-service completion
 *   CompleteDma used element + data DMA'd back to guest memory
 *   GuestIrq    MSI raised toward the guest (flow end)
 *
 * Every transition feeds a LatencyRecorder registered under
 * "<path>.stage.<name>" in the owning simulation's MetricRegistry,
 * so stage sums reconstruct the end-to-end latency exactly. When a
 * span target is attached, each transition is also written to that
 * FlightRecorder as a Span record (a Chrome complete event).
 *
 * Stamping with no tracer attached costs one null check at the
 * instrumentation site; the tracer itself is allocated only when
 * tracing is requested.
 */

#ifndef BMHIVE_OBS_REQUEST_TRACER_HH
#define BMHIVE_OBS_REQUEST_TRACER_HH

#include <array>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <string>

#include "base/stats.hh"
#include "base/units.hh"
#include "obs/flight_recorder.hh"
#include "obs/metric_registry.hh"

namespace bmhive {
namespace obs {

class RequestTracer
{
  public:
    /**
     * @param path hierarchical name, e.g. "server.guest0.hv.net";
     *        stage recorders register under "<path>.stage.*"
     */
    RequestTracer(std::string path, MetricRegistry &registry);

    /** Flow key: one in-flight request is unique per (fn, q, head). */
    static std::uint64_t
    flowKey(unsigned fn, unsigned q, std::uint16_t head)
    {
        return (std::uint64_t(fn) << 32) | (std::uint64_t(q) << 16) |
               head;
    }

    /**
     * Stamp stage @p s of flow @p key at time @p now. GuestPost
     * opens the flow; the final stage (GuestIrq by default) closes
     * it. Stamps for unknown flows (e.g. backend-initiated rx
     * completions) count as unmatched and are otherwise ignored.
     */
    void stamp(std::uint64_t key, Stage s, Tick now);

    /**
     * Which stage completes a flow. Defaults to GuestIrq; paths
     * whose driver suppresses completion interrupts (virtio-net tx
     * reclaims used buffers opportunistically, without an MSI) end
     * at CompleteDma instead.
     */
    void setFinalStage(Stage s) { finalStage_ = s; }
    Stage finalStage() const { return finalStage_; }

    /**
     * Invoked once per closed flow with the end-to-end
     * GuestPost -> final-stage latency. This is SloMonitor's feed;
     * it fires after the stage recorders update, at most once per
     * flow (evicted/aborted flows never close).
     */
    using CloseHook = std::function<void(Tick e2eLatency, Tick now)>;
    void setCloseHook(CloseHook cb) { closeHook_ = std::move(cb); }

    /**
     * Write every stage transition to @p fr as a Span record (null
     * detaches). Only the guest's partition stamps its tracers, so
     * a recorder shared by one guest's tracers needs no lock.
     */
    void setSpanTarget(FlightRecorder *fr) { spans_ = fr; }

    /**
     * Drop every open flow on (fn, q) without closing it — a queue
     * reset means those requests will never see their MSI, so the
     * entries would otherwise pin the open table forever. Counted
     * under "<path>.flows.aborted".
     */
    void dropOpen(unsigned fn, unsigned q);

    /** Cap on concurrently open flows; oldest-first eviction past
     *  it. Guards against a hostile guest posting heads it never
     *  lets complete. */
    void setMaxOpen(std::size_t n) { maxOpen_ = n ? n : 1; }

    /** Transition-latency recorder feeding stage @p s (not valid
     *  for GuestPost, which opens flows and has no predecessor). */
    const LatencyRecorder &stageLatency(Stage s) const;

    /** End-to-end GuestPost -> final-stage latency. */
    const LatencyRecorder &totalLatency() const { return *total_; }

    std::uint64_t started() const { return started_->value(); }
    std::uint64_t completed() const { return completed_->value(); }
    std::uint64_t unmatched() const { return unmatched_->value(); }
    std::uint64_t evicted() const { return evicted_->value(); }
    std::uint64_t aborted() const { return aborted_->value(); }
    std::size_t openFlows() const { return open_.size(); }

    const std::string &path() const { return path_; }

    /**
     * Human-readable per-stage breakdown: one line per stage with
     * count and mean, then the stage sum next to the end-to-end
     * mean (they match by construction; the printout shows it).
     */
    std::string breakdown() const;

  private:
    struct OpenFlow
    {
        Tick start = 0;  ///< GuestPost tick
        Tick lastAt = 0; ///< tick of the latest stamp
        Stage last = Stage::GuestPost;
        std::uint64_t seq = 0; ///< insertion order, for eviction
    };

    static constexpr std::size_t defaultMaxOpen = 4096;

    /** Evict oldest open flows until the table fits maxOpen_. */
    void enforceBound();

    std::string path_;
    Stage finalStage_ = Stage::GuestIrq;
    FlightRecorder *spans_ = nullptr;
    std::array<LatencyRecorder *, numStages> stage_{};
    LatencyRecorder *total_;
    Counter *started_;
    Counter *completed_;
    Counter *unmatched_;
    Counter *evicted_;       ///< "<path>.flows.evicted"
    Counter *aborted_;       ///< "<path>.flows.aborted"
    Counter *evictedGlobal_; ///< registry-wide "obs.tracer.evicted_flows"
    std::map<std::uint64_t, OpenFlow> open_;
    std::size_t maxOpen_ = defaultMaxOpen;
    std::uint64_t seq_ = 0;
    /** Insertion order as (key, seq); entries whose seq no longer
     *  matches open_ are stale and popped lazily. */
    std::deque<std::pair<std::uint64_t, std::uint64_t>> order_;
    CloseHook closeHook_;
};

} // namespace obs
} // namespace bmhive

#endif // BMHIVE_OBS_REQUEST_TRACER_HH
