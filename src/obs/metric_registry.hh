/**
 * @file
 * MetricRegistry: named handles to Counter / Gauge / Histogram /
 * LatencyRecorder instances, registered under hierarchical
 * SimObject-path names (e.g. "server.guest0.iobond.chains"), with
 * snapshot/reset support and a JSON exporter.
 *
 * Handles are get-or-create: the first registration with a name
 * constructs the metric, later registrations return the same
 * object. Accessors on the owning component and registry exports
 * therefore can never disagree — they read the same cell.
 *
 * Each Simulation owns one registry, so concurrently-built
 * testbeds (every bench builds at least two) never mix samples.
 */

#ifndef BMHIVE_OBS_METRIC_REGISTRY_HH
#define BMHIVE_OBS_METRIC_REGISTRY_HH

#include <cstddef>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "base/stats.hh"

namespace bmhive {
namespace obs {

class MetricRegistry
{
  public:
    enum class Kind { Counter, Gauge, Histogram, Latency };

    /**
     * Version of the toJson() layout, emitted as the leading
     * "schema_version" key. Bump whenever a metric object gains,
     * loses, or reorders keys; tools/metrics_check.py validates
     * against it. v2: histogram/latency percentiles, schema field.
     * v3: log-bucketed histograms, no underflow/overflow.
     */
    static constexpr unsigned jsonSchemaVersion = 3;

    MetricRegistry() = default;
    MetricRegistry(const MetricRegistry &) = delete;
    MetricRegistry &operator=(const MetricRegistry &) = delete;

    /** Get-or-create handles. Re-registering a name with a
     *  different kind is a bug and panics. */
    Counter &counter(const std::string &name);
    Gauge &gauge(const std::string &name);
    Histogram &histogram(const std::string &name);
    LatencyRecorder &latency(const std::string &name);

    bool has(const std::string &name) const;
    std::size_t size() const;

    /** Visit every metric in name order. */
    void forEach(const std::function<void(const std::string &, Kind)>
                     &fn) const;

    /**
     * One JSON object keyed by metric name. Counters are numbers;
     * gauges, histograms, and latency recorders are objects. The
     * format is what `--metrics-out` dumps and what the bench
     * trajectory files ingest.
     */
    std::string toJson() const;

    /** Reset every metric (counters to zero, recorders emptied). */
    void resetAll();

  private:
    struct Entry
    {
        Kind kind;
        std::unique_ptr<Counter> counter;
        std::unique_ptr<Gauge> gauge;
        std::unique_ptr<Histogram> histogram;
        std::unique_ptr<LatencyRecorder> latency;
    };

    Entry &fetch(const std::string &name, Kind kind);
    static void appendJsonValue(std::string &out, const Entry &e);

    /** Guards lookup/creation: partitioned runs register from
     *  worker threads. Metric handles themselves are
     *  partition-affine and need no locking. */
    mutable std::mutex mu_;
    /** Name-ordered, so exports are byte-stable. */
    std::map<std::string, Entry> entries_;
};

} // namespace obs
} // namespace bmhive

#endif // BMHIVE_OBS_METRIC_REGISTRY_HH
