#include "fault/fault_injector.hh"

#include <cstdio>
#include <sstream>
#include <utility>

#include "base/logging.hh"

namespace bmhive {
namespace fault {

namespace {

struct KindEntry
{
    FaultKind kind;
    const char *name;
};

constexpr KindEntry kindTable[] = {
    {FaultKind::DmaCorrupt, "dma_corrupt"},
    {FaultKind::DmaFail, "dma_fail"},
    {FaultKind::DmaCorruptMeta, "dma_corrupt_meta"},
    {FaultKind::FabricCorrupt, "fabric_corrupt"},
    {FaultKind::LinkFlap, "link_flap"},
    {FaultKind::DropDoorbell, "drop_doorbell"},
    {FaultKind::FunctionFail, "function_fail"},
    {FaultKind::BlockLose, "block_lose"},
    {FaultKind::BlockDelay, "block_delay"},
    {FaultKind::PortStall, "port_stall"},
    {FaultKind::HvStall, "hv_stall"},
    {FaultKind::HvCrash, "hv_crash"},
    {FaultKind::ServerPowerLoss, "server_power_loss"},
    {FaultKind::BoardFail, "board_fail"},
    {FaultKind::FabricPartition, "fabric_partition"},
};

/** Kind-appropriate knob defaults for randomly drawn faults. */
FaultSpec
randomSpec(FaultKind k, Rng &rng)
{
    FaultSpec s;
    s.kind = k;
    switch (k) {
      case FaultKind::DmaCorrupt:
      case FaultKind::DmaFail:
      case FaultKind::DmaCorruptMeta:
      case FaultKind::FabricCorrupt:
      case FaultKind::DropDoorbell:
        s.count = rng.uniformInt(1, 4);
        break;
      case FaultKind::LinkFlap:
      case FaultKind::PortStall:
      case FaultKind::HvStall:
        s.duration = usToTicks(rng.uniformInt(20, 200));
        break;
      case FaultKind::FabricPartition:
        s.duration = usToTicks(rng.uniformInt(100, 800));
        break;
      case FaultKind::BlockLose:
        s.count = rng.uniformInt(1, 3);
        break;
      case FaultKind::BlockDelay:
        s.count = rng.uniformInt(1, 8);
        s.magnitude = double(rng.uniformInt(2, 8));
        break;
      case FaultKind::FunctionFail:
      case FaultKind::HvCrash:
      case FaultKind::ServerPowerLoss:
      case FaultKind::BoardFail:
        break;
    }
    return s;
}

} // namespace

FaultInjector::FaultInjector(Simulation &sim, std::string name)
    : SimObject(sim, std::move(name)),
      injected_(metrics().counter(this->name() + ".fault.injected")),
      unmatched_(metrics().counter(this->name() + ".fault.unmatched"))
{
}

void
FaultInjector::at(Tick when, std::string target, FaultSpec spec)
{
    plan_.push_back({when, std::move(target), spec});
}

bool
FaultInjector::loadPlan(const std::string &path)
{
    std::FILE *f = std::fopen(path.c_str(), "r");
    if (!f) {
        warn(name(), ": cannot open fault plan ", path);
        return false;
    }
    std::vector<PlanEntry> parsed;
    char line[512];
    unsigned lineno = 0;
    bool ok = true;
    while (ok && std::fgets(line, sizeof(line), f)) {
        ++lineno;
        std::string text(line);
        auto hash = text.find('#');
        if (hash != std::string::npos)
            text.resize(hash);
        std::istringstream in(text);
        double time_us;
        std::string target, kind_name;
        if (!(in >> time_us)) // blank or comment-only line
            continue;
        if (!(in >> target >> kind_name)) {
            ok = false;
            break;
        }
        auto kind = kindFromName(kind_name);
        if (!kind) {
            warn(name(), ": ", path, ":", lineno,
                 ": unknown fault kind '", kind_name, "'");
            ok = false;
            break;
        }
        PlanEntry e;
        e.at = usToTicks(time_us);
        e.target = target;
        e.spec.kind = *kind;
        std::string opt;
        while (ok && (in >> opt)) {
            auto eq = opt.find('=');
            if (eq == std::string::npos) {
                ok = false;
                break;
            }
            std::string key = opt.substr(0, eq);
            double val = std::atof(opt.c_str() + eq + 1);
            if (key == "count")
                e.spec.count = std::uint64_t(val);
            else if (key == "dur_us")
                e.spec.duration = usToTicks(val);
            else if (key == "mag")
                e.spec.magnitude = val;
            else
                ok = false;
        }
        if (ok)
            parsed.push_back(std::move(e));
    }
    std::fclose(f);
    if (!ok) {
        warn(name(), ": malformed fault plan ", path, " line ",
             lineno);
        return false;
    }
    for (auto &e : parsed)
        plan_.push_back(std::move(e));
    return true;
}

void
FaultInjector::randomPlan(std::uint64_t seed,
                          const std::vector<RandomTarget> &targets,
                          Tick horizon, unsigned events)
{
    if (targets.empty() || events == 0)
        return;
    // Private stream: the schedule depends only on the seed, never
    // on how much randomness the workload has consumed.
    Rng rng(seed);
    for (unsigned i = 0; i < events; ++i) {
        const RandomTarget &t =
            targets[rng.uniformInt(0, targets.size() - 1)];
        if (t.kinds.empty())
            continue;
        FaultKind k = t.kinds[rng.uniformInt(0, t.kinds.size() - 1)];
        Tick when = Tick(rng.uniformInt(0, horizon ? horizon - 1 : 0));
        at(when, t.name, randomSpec(k, rng));
    }
}

void
FaultInjector::arm()
{
    for (; armed_ < plan_.size(); ++armed_) {
        const PlanEntry &e = plan_[armed_];
        Tick when = e.at < curTick() ? curTick() : e.at;
        eventq().schedule(
            new OneShotEvent(
                [this, idx = armed_] { deliver(plan_[idx]); },
                "fault.fire"),
            when);
    }
}

void
FaultInjector::deliver(const PlanEntry &e)
{
    bool hit = sim_.faults().deliver(e.target, e.spec);
    if (hit) {
        injected_.inc();
    } else {
        unmatched_.inc();
        warn(name(), ": fault '", kindName(e.spec.kind),
             "' unmatched at target '", e.target, "'");
    }
    if (observer_)
        observer_(e, hit);
    logDebug("fault ", kindName(e.spec.kind), " -> ", e.target,
             hit ? "" : " (unmatched)");
}

const char *
FaultInjector::kindName(FaultKind k)
{
    for (const auto &e : kindTable)
        if (e.kind == k)
            return e.name;
    return "unknown";
}

std::optional<FaultKind>
FaultInjector::kindFromName(const std::string &s)
{
    for (const auto &e : kindTable)
        if (s == e.name)
            return e.kind;
    return std::nullopt;
}

} // namespace fault
} // namespace bmhive
