/**
 * @file
 * FlightRecorder: the simulator's one event stream. Each record()
 * writes one fixed-size POD slot of a preallocated ring, O(1) with
 * zero steady-state allocation, so it is cheap enough to instrument
 * every doorbell, DMA burst, used publish, MSI, and scheduler visit
 * of every guest in every configuration.
 *
 * Every guest owns one, always on: the black box that is still
 * there when something goes wrong. On quarantine entry, watchdog
 * recovery, reset propagation, or an SLO breach, BmHiveServer dumps
 * the implicated guest's last-N events as a Chrome trace_event JSON
 * (loadable in chrome://tracing or Perfetto) next to the bench's
 * --metrics-out snapshot — no recompile, no re-run.
 *
 * The same ring carries request spans. A RequestTracer given a span
 * target writes each Fig. 6 stage transition as one Span record
 * (at = span start, a = duration, b = flow key), which the Chrome
 * export renders as a complete event. A full-run trace is just a
 * recorder the caller sizes for the run and attaches to a guest's
 * tracers.
 */

#ifndef BMHIVE_OBS_FLIGHT_RECORDER_HH
#define BMHIVE_OBS_FLIGHT_RECORDER_HH

#include <cstdint>
#include <string>
#include <type_traits>
#include <vector>

#include "base/stats.hh"
#include "base/units.hh"
#include "obs/metric_registry.hh"

namespace bmhive {
namespace obs {

/** Layer boundaries a request crosses on the BM-Hive datapath
 *  (paper Fig. 6); RequestTracer documents each one. */
enum class Stage : std::uint8_t {
    GuestPost = 0,
    ShadowSync,
    SchedDelay,
    PollPickup,
    Service,
    CompleteDma,
    GuestIrq,
};

constexpr unsigned numStages = 7;

const char *stageName(Stage s);

/** Compact event vocabulary of the BM-Hive datapath (Fig. 6) plus
 *  the fault/containment machinery wrapped around it. */
enum class FlightEvent : std::uint8_t {
    DoorbellAccept = 0, ///< guest notify crossed to the mailbox
    DoorbellThrottle,   ///< storm throttle swallowed the notify
    DoorbellDrop,       ///< a=1 quarantine, a=2 injected fault
    AvailSync,          ///< burst published on the shadow vring
    CopyvSubmit,        ///< DMA transfer enqueued (a=segs, b=bytes)
    CopyvComplete,      ///< DMA transfer landed (a=segs, b=bytes)
    UsedPublish,        ///< used batch returned to guest memory
    Msi,                ///< interrupt raised toward the guest
    SchedVisit,         ///< shared poll core serviced the backend
    FaultInject,        ///< injected infrastructure fault (a=kind)
    FaultRecover,       ///< resync sweep recovered chains (a=n)
    GuestFault,         ///< contained guest fault (a=kind)
    Containment,        ///< a: 0 healthy, 1 suspect, 2 quarantined
    Reset,              ///< DEVICE_NEEDS_RESET raised on fn
    Respawn,            ///< backend process respawned
    SloBreach,          ///< burn rate crossed the policy threshold
    Drain,              ///< a: 1 doorbells deferred, 0 resumed
    MigrateStart,       ///< migration left Drain (a=target server)
    MigrateCommit,      ///< source exported the guest (a=target)
    MigrateDone,        ///< guest resumed on target (a=blackout us)
    MigrateAbort,       ///< rolled back to source (a=reason)
    Failover,           ///< reactive migration off a dead server
    IntegrityDetect,    ///< checksum/scrub mismatch (a=where)
    IntegrityRetry,     ///< detected corruption healed by retry
    IntegrityEscalate,  ///< repeated corruption -> reset/migrate
    Span,               ///< request stage span (a=dur, b=flow key)
};

const char *flightEventName(FlightEvent e);

class FlightRecorder
{
  public:
    /** One ring slot. POD on purpose: record() is a struct store. */
    struct Record
    {
        Tick at = 0;
        FlightEvent ev = FlightEvent::DoorbellAccept;
        Stage stage = Stage::GuestPost; ///< the stage a Span closes
        std::uint16_t fn = 0;
        std::uint16_t q = 0;
        std::uint64_t a = 0;
        std::uint64_t b = 0;
    };
    static_assert(std::is_trivially_copyable_v<Record> &&
                      std::is_standard_layout_v<Record> &&
                      sizeof(Record) == 32,
                  "flight records are 32-byte PODs");

    /**
     * @param path hierarchical name, e.g. "server.guest0.flight";
     *        counters register under "<path>.events" /
     *        "<path>.overwritten"
     * @param capacity ring slots, preallocated here (the only
     *        allocation the recorder ever makes)
     */
    FlightRecorder(std::string path, MetricRegistry &registry,
                   std::size_t capacity = 1024);

    /** Append one event; overwrites the oldest slot when full. */
    void
    record(Tick now, FlightEvent ev, unsigned fn = 0, unsigned q = 0,
           std::uint64_t a = 0, std::uint64_t b = 0)
    {
        push({now, ev, Stage::GuestPost, std::uint16_t(fn),
              std::uint16_t(q), a, b});
    }

    /** Append the span of stage @p s of flow @p key on (@p fn,
     *  @p q), which ran [@p start, @p start + @p dur]. */
    void
    recordSpan(Tick start, Stage s, Tick dur, unsigned fn, unsigned q,
               std::uint64_t key)
    {
        push({start, FlightEvent::Span, s, std::uint16_t(fn),
              std::uint16_t(q), dur, key});
    }

    std::size_t capacity() const { return ring_.size(); }
    /** Live slots (== capacity once wrapped). */
    std::size_t size() const { return count_; }
    std::uint64_t recorded() const { return events_->value(); }
    std::uint64_t overwritten() const
    {
        return overwritten_->value();
    }

    /** Up to the last @p n events, oldest first (0 = everything
     *  live). Unwraps the ring; allocation is the caller's. */
    std::vector<Record> lastEvents(std::size_t n = 0) const;

    /**
     * Chrome trace_event JSON of the last @p n events on a lane
     * named after this recorder: a complete ("X") event named by
     * stageName() per Span record, an instant per other record,
     * with fn/q/a/b carried in args. @p trigger lands in metadata
     * so a dump says why it exists.
     */
    std::string toChromeJson(std::size_t n = 0,
                             const std::string &trigger = "") const;

    /** Write toChromeJson() to @p path; false on I/O error. */
    bool writeChromeJson(const std::string &path, std::size_t n = 0,
                         const std::string &trigger = "") const;

    const std::string &path() const { return path_; }

  private:
    void
    push(const Record &r)
    {
        ring_[head_] = r;
        if (++head_ == ring_.size())
            head_ = 0;
        if (count_ < ring_.size())
            ++count_;
        else
            overwritten_->inc();
        events_->inc();
    }

    std::string path_;
    std::vector<Record> ring_;
    std::size_t head_ = 0;  ///< next write position
    std::size_t count_ = 0; ///< live slots
    Counter *events_;
    Counter *overwritten_;
};

} // namespace obs
} // namespace bmhive

#endif // BMHIVE_OBS_FLIGHT_RECORDER_HH
