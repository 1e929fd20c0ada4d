/**
 * @file
 * SloMonitor: per-guest, per-role service-level indicator over the
 * doorbell->MSI span. The paper's density argument (section 3.5,
 * Fig. 10) holds only while tail latency stays flat as tenants
 * pack onto shared boards; after quarantine, shared-core
 * scheduling, and batched DMA, any of those mechanisms can shift
 * one tenant's p99 without moving an aggregate counter. This
 * monitor is the per-tenant view: RequestTracer feeds it one
 * end-to-end latency per closed flow, and it maintains a sliding
 * window of log-bucketed histograms per role (net, blk), rotated
 * in fixed sub-window epochs.
 *
 * Each epoch is one base Histogram over nanoseconds (4 sub-buckets
 * per octave: a reported percentile overstates the true value by
 * at most 25%), so record() is a handful of integer ops with no
 * allocation, and the monitor is always on. Each window rotation
 * exports p50/p90/p99/p999 and the SLO burn rate into the metric
 * registry; a burn rate at or above the policy threshold with
 * enough samples raises the breach signal (BmHiveServer wires it
 * to a flight-recorder dump).
 *
 * Burn rate follows the SRE convention: the fraction of requests
 * over the latency target, divided by the error budget. 1.0 means
 * the tenant is consuming budget exactly as fast as the SLO
 * allows; 2.0 means twice as fast.
 */

#ifndef BMHIVE_OBS_SLO_MONITOR_HH
#define BMHIVE_OBS_SLO_MONITOR_HH

#include <array>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "base/stats.hh"
#include "base/units.hh"
#include "obs/metric_registry.hh"

namespace bmhive {
namespace obs {

enum class SloRole : unsigned { Net = 0, Blk = 1 };
constexpr unsigned numSloRoles = 2;

const char *sloRoleName(SloRole r);

struct SloParams
{
    /** Sliding-window span the percentiles cover. */
    Tick window = msToTicks(5.0);
    /** Sub-window epochs the window rotates through. */
    unsigned epochs = 5;
    /** Per-role latency targets (the SLO threshold). */
    double netTargetUs = 200.0;
    double blkTargetUs = 1000.0;
    /** Allowed fraction of requests over target (p99 SLO: 1%). */
    double errorBudget = 0.01;
    /** Burn rate at/above which the breach signal fires. */
    double breachBurn = 1.0;
    /** Minimum window samples before a breach is credible. */
    std::uint64_t minWindowSamples = 64;
};

class SloMonitor
{
  public:
    using BreachCallback = std::function<void(SloRole, double burn)>;

    /**
     * @param path hierarchical name, e.g. "server.guest0.slo";
     *        per-role metrics register under "<path>.<role>.*"
     */
    SloMonitor(std::string path, MetricRegistry &registry,
               SloParams params = {});

    /** One closed flow of @p role with end-to-end @p latency. */
    void record(SloRole role, Tick latency, Tick now);

    /** Rotate stale epochs and refresh the exported gauges. */
    void refresh(Tick now);

    /**
     * Percentile in microseconds over the live window (merged
     * epochs), @p q in [0,1]. Reports the bucket upper edge, so the
     * estimate is conservative by at most one sub-bucket: 25%, at
     * a bucket's lower edge.
     */
    double percentileUs(SloRole role, double q) const;

    /** Violation fraction over error budget, live window. */
    double burnRate(SloRole role) const;

    std::uint64_t windowSamples(SloRole role) const;
    std::uint64_t totalSamples(SloRole role) const;
    std::uint64_t violations(SloRole role) const;
    std::uint64_t breaches(SloRole role) const;
    std::uint64_t rotations() const { return rotations_->value(); }

    void setBreachCallback(BreachCallback cb)
    {
        breachCb_ = std::move(cb);
    }

    const SloParams &params() const { return params_; }
    const std::string &path() const { return path_; }

  private:
    struct Epoch
    {
        std::uint64_t index = 0; ///< epoch number (now/epochLen)
        Histogram latencyNs;
        std::uint64_t violations = 0;
    };

    struct Role
    {
        Tick targetTicks = 0;
        std::vector<Epoch> epochs;
        std::uint64_t curEpoch = 0;
        bool started = false;
        Counter *samples = nullptr;
        Counter *violationsTotal = nullptr;
        Counter *breaches = nullptr;
        Gauge *p50 = nullptr;
        Gauge *p90 = nullptr;
        Gauge *p99 = nullptr;
        Gauge *p999 = nullptr;
        Gauge *burn = nullptr;
    };

    /** Rotate @p r to the epoch containing @p now; evaluates the
     *  breach condition and refreshes gauges on each rotation. */
    void advance(Role &r, Tick now);
    void updateGauges(Role &r);
    /** The live window: every epoch of @p r merged. */
    static Histogram window(const Role &r);
    double burnOf(const Role &r) const;

    std::string path_;
    SloParams params_;
    Tick epochLen_;
    std::array<Role, numSloRoles> roles_;
    Counter *rotations_;
    BreachCallback breachCb_;
};

} // namespace obs
} // namespace bmhive

#endif // BMHIVE_OBS_SLO_MONITOR_HH
