#include "obs/slo_monitor.hh"

#include <algorithm>
#include <utility>

#include "base/logging.hh"

namespace bmhive {
namespace obs {

const char *
sloRoleName(SloRole r)
{
    switch (r) {
      case SloRole::Net:
        return "net";
      case SloRole::Blk:
        return "blk";
    }
    return "?";
}

SloMonitor::SloMonitor(std::string path, MetricRegistry &registry,
                       SloParams params)
    : path_(std::move(path)), params_(params)
{
    fatal_if(params_.epochs == 0, path_,
             ": an SLO window needs at least one epoch");
    epochLen_ = std::max<Tick>(1, params_.window / params_.epochs);
    for (unsigned i = 0; i < numSloRoles; ++i) {
        Role &r = roles_[i];
        std::string base =
            path_ + "." + sloRoleName(SloRole(i));
        double target_us = SloRole(i) == SloRole::Net
                               ? params_.netTargetUs
                               : params_.blkTargetUs;
        r.targetTicks = usToTicks(target_us);
        r.epochs.resize(params_.epochs);
        r.samples = &registry.counter(base + ".samples");
        r.violationsTotal =
            &registry.counter(base + ".violations");
        r.breaches = &registry.counter(base + ".breaches");
        r.p50 = &registry.gauge(base + ".p50_us");
        r.p90 = &registry.gauge(base + ".p90_us");
        r.p99 = &registry.gauge(base + ".p99_us");
        r.p999 = &registry.gauge(base + ".p999_us");
        r.burn = &registry.gauge(base + ".burn_rate");
    }
    rotations_ = &registry.counter(path_ + ".rotations");
}

void
SloMonitor::record(SloRole role, Tick latency, Tick now)
{
    Role &r = roles_[unsigned(role)];
    advance(r, now);
    Epoch &e = r.epochs[r.curEpoch % r.epochs.size()];
    // Ticks are picoseconds; bucket on nanoseconds (sub-ns span
    // differences are below anything the timing model produces).
    e.latencyNs.record(latency / 1000);
    r.samples->inc();
    if (latency > r.targetTicks) {
        ++e.violations;
        r.violationsTotal->inc();
    }
}

void
SloMonitor::advance(Role &r, Tick now)
{
    std::uint64_t cur = std::uint64_t(now / epochLen_);
    if (!r.started) {
        r.started = true;
        r.curEpoch = cur;
        Epoch &e = r.epochs[cur % r.epochs.size()];
        e = Epoch{};
        e.index = cur;
        return;
    }
    if (cur == r.curEpoch)
        return;
    // An epoch boundary passed: evaluate the window that just
    // completed before any of it rotates out. The breach latch is
    // the rotation itself — at most one signal per epoch.
    double burn = burnOf(r);
    if (window(r).total() >= params_.minWindowSamples &&
        burn >= params_.breachBurn) {
        r.breaches->inc();
        if (breachCb_) {
            auto role = SloRole(unsigned(&r - roles_.data()));
            breachCb_(role, burn);
        }
    }
    updateGauges(r);
    rotations_->inc();
    // Clear every epoch slot the window slid past. A gap longer
    // than the whole window clears all of them.
    std::uint64_t n = r.epochs.size();
    std::uint64_t steps = std::min(cur - r.curEpoch, n);
    for (std::uint64_t i = cur - steps + 1; i <= cur; ++i) {
        Epoch &e = r.epochs[i % n];
        e = Epoch{};
        e.index = i;
    }
    r.curEpoch = cur;
}

void
SloMonitor::updateGauges(Role &r)
{
    Histogram w = window(r);
    r.p50->set(w.percentile(0.50) / 1e3);
    r.p90->set(w.percentile(0.90) / 1e3);
    r.p99->set(w.percentile(0.99) / 1e3);
    r.p999->set(w.percentile(0.999) / 1e3);
    r.burn->set(burnOf(r));
}

Histogram
SloMonitor::window(const Role &r)
{
    Histogram w;
    for (const Epoch &e : r.epochs)
        w.add(e.latencyNs);
    return w;
}

double
SloMonitor::burnOf(const Role &r) const
{
    std::uint64_t samples = 0, viol = 0;
    for (const Epoch &e : r.epochs) {
        samples += e.latencyNs.total();
        viol += e.violations;
    }
    if (samples == 0)
        return 0.0;
    double frac = double(viol) / double(samples);
    return params_.errorBudget > 0.0 ? frac / params_.errorBudget
                                     : 0.0;
}

void
SloMonitor::refresh(Tick now)
{
    for (Role &r : roles_) {
        advance(r, now);
        updateGauges(r);
    }
}

double
SloMonitor::percentileUs(SloRole role, double q) const
{
    return window(roles_[unsigned(role)]).percentile(q) / 1e3;
}

double
SloMonitor::burnRate(SloRole role) const
{
    return burnOf(roles_[unsigned(role)]);
}

std::uint64_t
SloMonitor::windowSamples(SloRole role) const
{
    return window(roles_[unsigned(role)]).total();
}

std::uint64_t
SloMonitor::totalSamples(SloRole role) const
{
    return roles_[unsigned(role)].samples->value();
}

std::uint64_t
SloMonitor::violations(SloRole role) const
{
    return roles_[unsigned(role)].violationsTotal->value();
}

std::uint64_t
SloMonitor::breaches(SloRole role) const
{
    return roles_[unsigned(role)].breaches->value();
}

} // namespace obs
} // namespace bmhive
