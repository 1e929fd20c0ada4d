#include "obs/flight_recorder.hh"

#include <cstdio>
#include <utility>

#include "base/logging.hh"

namespace bmhive {
namespace obs {

const char *
stageName(Stage s)
{
    switch (s) {
      case Stage::GuestPost:
        return "guest_post";
      case Stage::ShadowSync:
        return "shadow_sync";
      case Stage::SchedDelay:
        return "sched_delay";
      case Stage::PollPickup:
        return "poll_pickup";
      case Stage::Service:
        return "service";
      case Stage::CompleteDma:
        return "complete_dma";
      case Stage::GuestIrq:
        return "guest_irq";
    }
    return "?";
}

const char *
flightEventName(FlightEvent e)
{
    switch (e) {
      case FlightEvent::DoorbellAccept:
        return "doorbell_accept";
      case FlightEvent::DoorbellThrottle:
        return "doorbell_throttle";
      case FlightEvent::DoorbellDrop:
        return "doorbell_drop";
      case FlightEvent::AvailSync:
        return "avail_sync";
      case FlightEvent::CopyvSubmit:
        return "copyv_submit";
      case FlightEvent::CopyvComplete:
        return "copyv_complete";
      case FlightEvent::UsedPublish:
        return "used_publish";
      case FlightEvent::Msi:
        return "msi";
      case FlightEvent::SchedVisit:
        return "sched_visit";
      case FlightEvent::FaultInject:
        return "fault_inject";
      case FlightEvent::FaultRecover:
        return "fault_recover";
      case FlightEvent::GuestFault:
        return "guest_fault";
      case FlightEvent::Containment:
        return "containment";
      case FlightEvent::Reset:
        return "reset";
      case FlightEvent::Respawn:
        return "respawn";
      case FlightEvent::SloBreach:
        return "slo_breach";
      case FlightEvent::Drain:
        return "drain";
      case FlightEvent::MigrateStart:
        return "migrate_start";
      case FlightEvent::MigrateCommit:
        return "migrate_commit";
      case FlightEvent::MigrateDone:
        return "migrate_done";
      case FlightEvent::MigrateAbort:
        return "migrate_abort";
      case FlightEvent::Failover:
        return "failover";
      case FlightEvent::IntegrityDetect:
        return "integrity_detect";
      case FlightEvent::IntegrityRetry:
        return "integrity_retry";
      case FlightEvent::IntegrityEscalate:
        return "integrity_escalate";
      case FlightEvent::Span:
        return "span";
    }
    return "?";
}

FlightRecorder::FlightRecorder(std::string path,
                               MetricRegistry &registry,
                               std::size_t capacity)
    : path_(std::move(path)),
      events_(&registry.counter(path_ + ".events")),
      overwritten_(&registry.counter(path_ + ".overwritten"))
{
    panic_if(capacity == 0, path_,
             ": a flight recorder needs at least one slot");
    ring_.resize(capacity);
}

std::vector<FlightRecorder::Record>
FlightRecorder::lastEvents(std::size_t n) const
{
    if (n == 0 || n > count_)
        n = count_;
    std::vector<Record> out;
    out.reserve(n);
    // head_ is the next write position; once wrapped it is also the
    // oldest live slot. Walk the last n slots oldest-first.
    std::size_t cap = ring_.size();
    std::size_t start = count_ < cap ? count_ - n
                                     : (head_ + cap - n) % cap;
    for (std::size_t i = 0; i < n; ++i)
        out.push_back(ring_[(start + i) % cap]);
    return out;
}

std::string
FlightRecorder::toChromeJson(std::size_t n,
                             const std::string &trigger) const
{
    std::string out = "{\"displayTimeUnit\":\"ns\",";
    if (!trigger.empty())
        out += "\"otherData\":{\"trigger\":\"" + trigger + "\"},";
    out += "\"traceEvents\":[";
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "\n{\"name\":\"thread_name\",\"ph\":\"M\","
                  "\"pid\":1,\"tid\":0,"
                  "\"args\":{\"name\":\"%s\"}}",
                  path_.c_str());
    out += buf;
    for (const Record &r : lastEvents(n)) {
        // Ticks are picoseconds; trace_event "ts" is microseconds.
        if (r.ev == FlightEvent::Span)
            std::snprintf(buf, sizeof(buf),
                          ",\n{\"name\":\"%s\",\"cat\":\"flight\","
                          "\"ph\":\"X\",\"ts\":%.6f,\"dur\":%.6f,",
                          stageName(r.stage), ticksToUs(r.at),
                          ticksToUs(r.a));
        else
            std::snprintf(buf, sizeof(buf),
                          ",\n{\"name\":\"%s\",\"cat\":\"flight\","
                          "\"ph\":\"i\",\"s\":\"t\",\"ts\":%.6f,",
                          flightEventName(r.ev), ticksToUs(r.at));
        out += buf;
        std::snprintf(
            buf, sizeof(buf),
            "\"pid\":1,\"tid\":0,"
            "\"args\":{\"fn\":%u,\"q\":%u,\"a\":%llu,\"b\":%llu}}",
            unsigned(r.fn), unsigned(r.q), (unsigned long long)r.a,
            (unsigned long long)r.b);
        out += buf;
    }
    out += "\n]}";
    return out;
}

bool
FlightRecorder::writeChromeJson(const std::string &path,
                                std::size_t n,
                                const std::string &trigger) const
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    std::string json = toChromeJson(n, trigger);
    bool ok = std::fwrite(json.data(), 1, json.size(), f) ==
              json.size();
    ok = std::fclose(f) == 0 && ok;
    return ok;
}

} // namespace obs
} // namespace bmhive
