#include "obs/metric_registry.hh"

#include <cmath>
#include <cstdio>

#include "base/logging.hh"

namespace bmhive {
namespace obs {

namespace {

const char *
kindName(MetricRegistry::Kind k)
{
    switch (k) {
      case MetricRegistry::Kind::Counter:
        return "counter";
      case MetricRegistry::Kind::Gauge:
        return "gauge";
      case MetricRegistry::Kind::Histogram:
        return "histogram";
      case MetricRegistry::Kind::Latency:
        return "latency";
    }
    return "?";
}

/** Metric names are ASCII identifiers; escape defensively anyway. */
void
appendJsonString(std::string &out, const std::string &s)
{
    out += '"';
    for (char c : s) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (std::uint8_t(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof(buf), "\\u%04x", c);
            out += buf;
        } else {
            out += c;
        }
    }
    out += '"';
}

void
appendJsonNumber(std::string &out, double v)
{
    if (!std::isfinite(v)) {
        out += "null";
        return;
    }
    char buf[32];
    if (v == std::floor(v) && std::fabs(v) < 1e15)
        std::snprintf(buf, sizeof(buf), "%.0f", v);
    else
        std::snprintf(buf, sizeof(buf), "%.6g", v);
    out += buf;
}

} // namespace

MetricRegistry::Entry &
MetricRegistry::fetch(const std::string &name, Kind kind)
{
    // Caller holds mu_.
    auto [it, fresh] = entries_.try_emplace(name);
    if (fresh)
        it->second.kind = kind;
    panic_if(it->second.kind != kind, "metric '", name,
             "' registered as ", kindName(it->second.kind),
             ", requested as ", kindName(kind));
    return it->second;
}

Counter &
MetricRegistry::counter(const std::string &name)
{
    std::lock_guard<std::mutex> lk(mu_);
    Entry &e = fetch(name, Kind::Counter);
    if (!e.counter)
        e.counter = std::make_unique<Counter>();
    return *e.counter;
}

Gauge &
MetricRegistry::gauge(const std::string &name)
{
    std::lock_guard<std::mutex> lk(mu_);
    Entry &e = fetch(name, Kind::Gauge);
    if (!e.gauge)
        e.gauge = std::make_unique<Gauge>();
    return *e.gauge;
}

Histogram &
MetricRegistry::histogram(const std::string &name)
{
    std::lock_guard<std::mutex> lk(mu_);
    Entry &e = fetch(name, Kind::Histogram);
    if (!e.histogram)
        e.histogram = std::make_unique<Histogram>();
    return *e.histogram;
}

LatencyRecorder &
MetricRegistry::latency(const std::string &name)
{
    std::lock_guard<std::mutex> lk(mu_);
    Entry &e = fetch(name, Kind::Latency);
    if (!e.latency)
        e.latency = std::make_unique<LatencyRecorder>();
    return *e.latency;
}

bool
MetricRegistry::has(const std::string &name) const
{
    std::lock_guard<std::mutex> lk(mu_);
    return entries_.count(name) != 0;
}

std::size_t
MetricRegistry::size() const
{
    std::lock_guard<std::mutex> lk(mu_);
    return entries_.size();
}

void
MetricRegistry::forEach(
    const std::function<void(const std::string &, Kind)> &fn) const
{
    std::lock_guard<std::mutex> lk(mu_);
    for (const auto &[name, entry] : entries_)
        fn(name, entry.kind);
}

void
MetricRegistry::appendJsonValue(std::string &out, const Entry &e)
{
    switch (e.kind) {
      case Kind::Counter:
        appendJsonNumber(out, double(e.counter->value()));
        break;
      case Kind::Gauge:
        out += "{\"value\":";
        appendJsonNumber(out, e.gauge->value());
        out += ",\"min\":";
        appendJsonNumber(out, e.gauge->minWatermark());
        out += ",\"max\":";
        appendJsonNumber(out, e.gauge->maxWatermark());
        out += ",\"updates\":";
        appendJsonNumber(out, double(e.gauge->updates()));
        out += '}';
        break;
      case Kind::Histogram: {
        const Histogram &h = *e.histogram;
        out += "{\"total\":";
        appendJsonNumber(out, double(h.total()));
        out += ",\"p50\":";
        appendJsonNumber(out, h.percentile(0.50));
        out += ",\"p90\":";
        appendJsonNumber(out, h.percentile(0.90));
        out += ",\"p99\":";
        appendJsonNumber(out, h.percentile(0.99));
        out += ",\"p999\":";
        appendJsonNumber(out, h.percentile(0.999));
        out += ",\"buckets\":[";
        bool first = true;
        for (std::size_t i = 0; i < Histogram::numBuckets; ++i) {
            if (h.bucketCount(i) == 0)
                continue;
            if (!first)
                out += ',';
            first = false;
            out += '[';
            appendJsonNumber(out, Histogram::bucketLow(i));
            out += ',';
            appendJsonNumber(out, Histogram::bucketHigh(i));
            out += ',';
            appendJsonNumber(out, double(h.bucketCount(i)));
            out += ']';
        }
        out += "]}";
        break;
      }
      case Kind::Latency: {
        const LatencyRecorder &l = *e.latency;
        out += "{\"count\":";
        appendJsonNumber(out, double(l.count()));
        out += ",\"mean_us\":";
        appendJsonNumber(out, l.meanUs());
        out += ",\"p50_us\":";
        appendJsonNumber(out, l.p50Us());
        out += ",\"p90_us\":";
        appendJsonNumber(out, l.p90Us());
        out += ",\"p99_us\":";
        appendJsonNumber(out, l.p99Us());
        out += ",\"p999_us\":";
        appendJsonNumber(out, l.p999Us());
        out += ",\"max_us\":";
        appendJsonNumber(out, l.maxUs());
        out += '}';
        break;
      }
    }
}

std::string
MetricRegistry::toJson() const
{
    // "schema_version" leads every registry object; metric names
    // are dotted, so the bare key can never collide. The map is
    // name-ordered, so the emitted key order is stable for
    // byte-diffable same-seed snapshots.
    std::lock_guard<std::mutex> lk(mu_);
    std::string out = "{\n  \"schema_version\": ";
    appendJsonNumber(out, double(jsonSchemaVersion));
    for (const auto &[name, entry] : entries_) {
        out += ",\n  ";
        appendJsonString(out, name);
        out += ": ";
        appendJsonValue(out, entry);
    }
    out += "\n}";
    return out;
}

void
MetricRegistry::resetAll()
{
    std::lock_guard<std::mutex> lk(mu_);
    for (auto &[name, entry] : entries_) {
        (void)name;
        switch (entry.kind) {
          case Kind::Counter:
            entry.counter->reset();
            break;
          case Kind::Gauge:
            entry.gauge->reset();
            break;
          case Kind::Histogram:
            entry.histogram->reset();
            break;
          case Kind::Latency:
            entry.latency->reset();
            break;
        }
    }
}

} // namespace obs
} // namespace bmhive
