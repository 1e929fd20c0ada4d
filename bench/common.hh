/**
 * @file
 * Shared testbed for the experiment binaries: one cloud segment
 * (vSwitch + block storage), a BM-Hive server for bm-guests, and
 * factory helpers for vm-guests — the two platforms every figure
 * compares. Also small table-printing helpers so every bench
 * prints rows in the same style as the paper's tables/figures.
 */

#ifndef BMHIVE_BENCH_COMMON_HH
#define BMHIVE_BENCH_COMMON_HH

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "base/logging.hh"
#include "cloud/block_service.hh"
#include "cloud/vswitch.hh"
#include "core/bmhive_server.hh"
#include "fault/fault_injector.hh"
#include "obs/metric_registry.hh"
#include "vmsim/vm_guest.hh"
#include "workloads/guest_iface.hh"

namespace bmhive {
namespace bench {

/**
 * Collects the metric registries of every Testbed a bench builds —
 * including ones already destroyed, whose registries are snapshot
 * as JSON at teardown — so Session can dump them all at exit.
 */
class MetricsCapture
{
  public:
    static MetricsCapture &
    instance()
    {
        static MetricsCapture c;
        return c;
    }

    /** Track a live registry under @p label. */
    void
    attach(std::string label, obs::MetricRegistry &reg)
    {
        live_.push_back({std::move(label), &reg});
    }

    /** Snapshot and stop tracking (registry is going away). */
    void
    detach(obs::MetricRegistry &reg)
    {
        for (auto it = live_.begin(); it != live_.end(); ++it) {
            if (it->reg == &reg) {
                snapshots_.emplace_back(it->label,
                                        reg.toJson());
                live_.erase(it);
                return;
            }
        }
    }

    /** One JSON object: {"<label>": {<metrics>}, ...}. */
    std::string
    toJson() const
    {
        std::string out = "{";
        bool first = true;
        auto add = [&](const std::string &label,
                       const std::string &body) {
            if (!first)
                out += ",";
            first = false;
            out += "\n  \"" + label + "\": " + body;
        };
        for (const auto &[label, body] : snapshots_)
            add(label, body);
        for (const auto &l : live_)
            add(l.label, l.reg->toJson());
        out += "\n}\n";
        return out;
    }

  private:
    struct Live
    {
        std::string label;
        obs::MetricRegistry *reg;
    };
    std::vector<Live> live_;
    std::vector<std::pair<std::string, std::string>> snapshots_;
};

/**
 * Per-run bookkeeping every bench main owns: parses (and strips)
 * the common command-line flags, and at exit writes the end-of-run
 * metric snapshot of every testbed when --metrics-out=<path> was
 * given. Declare it first in main() so it outlives the testbeds.
 */
class Session
{
  public:
    Session(int &argc, char **argv)
    {
        const std::string metrics_flag = "--metrics-out=";
        const std::string seed_flag = "--fault-seed=";
        const std::string plan_flag = "--fault-plan=";
        const std::string cores_flag = "--poll-cores=";
        const std::string sched_flag = "--sched=";
        const std::string obs_flag = "--obs=";
        const std::string integrity_flag = "--integrity=";
        const std::string flight_dir_flag = "--flight-dump-dir=";
        const std::string threads_flag = "--sim-threads=";
        int w = 1;
        for (int i = 1; i < argc; ++i) {
            std::string a = argv[i];
            if (a == "--quick")
                quick = true;
            else if (a.rfind(metrics_flag, 0) == 0)
                metricsOut_ = a.substr(metrics_flag.size());
            else if (a.rfind(obs_flag, 0) == 0) {
                std::string v = a.substr(obs_flag.size());
                fatal_if(v != "on" && v != "off",
                         "--obs wants on|off, got '", v, "'");
                obsEnabled = (v == "on");
            } else if (a.rfind(integrity_flag, 0) == 0) {
                std::string v = a.substr(integrity_flag.size());
                fatal_if(v != "on" && v != "off",
                         "--integrity wants on|off, got '", v, "'");
                integrityOn = (v == "on");
            } else if (a.rfind(flight_dir_flag, 0) == 0)
                flightDumpDir = a.substr(flight_dir_flag.size());
            else if (a.rfind(threads_flag, 0) == 0)
                simThreads = unsigned(std::strtoul(
                    a.c_str() + threads_flag.size(), nullptr, 0));
            else if (a.rfind(seed_flag, 0) == 0)
                faultSeed = std::strtoull(
                    a.c_str() + seed_flag.size(), nullptr, 0);
            else if (a.rfind(plan_flag, 0) == 0)
                faultPlan = a.substr(plan_flag.size());
            else if (a.rfind(cores_flag, 0) == 0)
                pollCores = unsigned(std::strtoul(
                    a.c_str() + cores_flag.size(), nullptr, 0));
            else if (a.rfind(sched_flag, 0) == 0) {
                std::string v = a.substr(sched_flag.size());
                fatal_if(v != "dedicated" && v != "shared",
                         "--sched wants dedicated|shared, got '",
                         v, "'");
                schedShared = (v == "shared");
                schedSet = true;
            } else
                argv[w++] = argv[i];
        }
        argc = w;
        argv[argc] = nullptr;
    }

    /** --quick (the bench_smoke ctest target): benches shrink
     *  their measurement windows via window() so every binary gets
     *  exercised end to end without paying full-run duration.
     *  Numbers from quick runs are NOT paper-comparable. */
    inline static bool quick = false;

    /** Measurement window honoring --quick. */
    static Tick
    window(Tick full)
    {
        return quick ? full / 8 : full;
    }

    /** Chaos flags, visible to every Testbed the bench builds. */
    inline static std::uint64_t faultSeed = 0;
    inline static std::string faultPlan;
    /** --sim-threads=N: run the simulation core partitioned with N
     *  worker threads (0 = classic single-queue). Benches that
     *  support it call Simulation::enablePartitions; the metrics
     *  of a given seed are byte-identical for every N >= 1. */
    inline static unsigned simThreads = 0;
    /** Scheduler flags: --poll-cores=N picks the shared pool size
     *  (and implies --sched=shared unless overridden). */
    inline static unsigned pollCores = 0;
    inline static bool schedShared = false;
    inline static bool schedSet = false;

    /** --integrity=off strips the end-to-end data-integrity layer
     *  (ECRC DMA checks, DIF block tags, frame checksums, shadow
     *  scrubber) — the overhead baseline every integrity row in
     *  EXPERIMENTS.md compares against. */
    inline static bool integrityOn = true;

    /** Observability flags: --obs=off turns the per-tenant SLO
     *  monitor and flight recorder off; --flight-dump-dir picks
     *  where anomaly dumps land ("" = keep the default). */
    inline static bool obsEnabled = true;
    inline static std::string flightDumpDir;

    /** Where --metrics-out points ("" when not given); anomaly
     *  dumps default to landing beside it. */
    static const std::string &metricsOut() { return metricsOut_; }

    ~Session()
    {
        if (metricsOut_.empty())
            return;
        std::string json = MetricsCapture::instance().toJson();
        std::FILE *f = std::fopen(metricsOut_.c_str(), "w");
        if (!f) {
            std::fprintf(stderr, "cannot write %s\n",
                         metricsOut_.c_str());
            return;
        }
        std::fwrite(json.data(), 1, json.size(), f);
        std::fclose(f);
        std::printf("metrics snapshot written to %s\n",
                    metricsOut_.c_str());
    }

    Session(const Session &) = delete;
    Session &operator=(const Session &) = delete;

  private:
    inline static std::string metricsOut_;
};

/**
 * One experiment environment. Everything shares a Simulation, so
 * results are deterministic in the seed. Each testbed has a label
 * (`testbed<N>`, or `testbed_cfg<N>` for the explicit-config form)
 * that names its metric snapshot and the subdirectory of the dump
 * dir its flight dumps land in: every testbed names its server
 * `server`, so a shared directory would let a later testbed's
 * dumps overwrite an earlier one's.
 */
class Testbed
{
  public:
    explicit Testbed(std::uint64_t seed = 20200316,
                     unsigned max_boards = 4,
                     cloud::BlockServiceParams storage_params = {})
        : Testbed("testbed" + std::to_string(ordinal_++), seed,
                  smallServer(max_boards), storage_params)
    {
    }

    /** Second ctor form: a fully explicit server configuration
     *  (density sweeps build both scheduler modes themselves). */
    Testbed(std::uint64_t seed, core::BmServerParams server_params,
            cloud::BlockServiceParams storage_params = {})
        : Testbed("testbed_cfg" + std::to_string(cfgOrdinal_++), seed,
                  withSessionObs(std::move(server_params)),
                  storage_params)
    {
    }

    ~Testbed() { MetricsCapture::instance().detach(sim.metrics()); }

    static core::BmServerParams
    smallServer(unsigned max_boards)
    {
        core::BmServerParams p;
        p.maxBoards = max_boards;
        // Session-wide scheduler selection: --sched=shared, or
        // --poll-cores=N alone, moves every bench's server onto
        // the shared poll pool without per-bench plumbing.
        if (Session::schedShared ||
            (Session::pollCores > 0 && !Session::schedSet)) {
            p.schedMode = core::SchedMode::Shared;
            if (Session::pollCores > 0)
                p.pollCores = Session::pollCores;
        }
        return withSessionObs(p);
    }

    /** Overlay the session's --integrity / --obs /
     *  --flight-dump-dir flags on @p p. With no explicit dump dir,
     *  anomaly dumps land next to the --metrics-out snapshot (none
     *  without one: the triggers still count, nothing is
     *  written). */
    static core::BmServerParams
    withSessionObs(core::BmServerParams p)
    {
        p.integrity.enabled = Session::integrityOn;
        p.obs.enabled = Session::obsEnabled;
        if (!Session::flightDumpDir.empty()) {
            p.obs.flightDumpDir = Session::flightDumpDir;
        } else if (p.obs.flightDumpDir.empty() &&
                   !Session::metricsOut().empty()) {
            auto slash = Session::metricsOut().rfind('/');
            p.obs.flightDumpDir =
                slash == std::string::npos
                    ? "."
                    : Session::metricsOut().substr(0, slash);
        }
        return p;
    }

    /** Provision a bm-guest (with a volume unless @p vol_mib==0).
     *  @p type defaults to the section 4 evaluated instance;
     *  density sweeps pass a 16-boards-per-server type instead. */
    workloads::GuestContext
    bmGuest(cloud::MacAddr mac, Bytes vol_mib = 64,
            bool rate_limited = true,
            const core::InstanceType *type = nullptr)
    {
        cloud::Volume *vol = nullptr;
        if (vol_mib > 0) {
            vol = &storage.createVolume(
                "bmvol" + std::to_string(mac), vol_mib * MiB);
        }
        auto &g = server.provision(
            type ? *type : core::InstanceCatalog::evaluated(), mac,
            vol, rate_limited);
        armChaos();
        return workloads::GuestContext::of(g);
    }

    /** Create and bring up a vm-guest. */
    workloads::GuestContext
    vmGuest(cloud::MacAddr mac, Bytes vol_mib = 64,
            bool rate_limited = true, bool exclusive = true,
            bool io_contention = true)
    {
        vmsim::VmGuestParams p;
        p.mac = mac;
        p.exclusive = exclusive;
        p.rateLimited = rate_limited;
        p.ioThreadContention = io_contention;
        cloud::Volume *vol = nullptr;
        if (vol_mib > 0) {
            vol = &storage.createVolume(
                "vmvol" + std::to_string(mac), vol_mib * MiB);
            p.volumeSectors = vol_mib * MiB / 512;
        }
        vms.push_back(std::make_unique<vmsim::VmGuest>(
            sim, "vm" + std::to_string(vms.size()), p, vswitch,
            vol ? &storage : nullptr, vol));
        fatal_if(!vms.back()->bringUp(),
                 "vm guest bring-up failed");
        armChaos();
        return workloads::GuestContext::of(*vms.back());
    }

    /**
     * Arm the chaos plan once guest 0's components exist and start
     * the server watchdog so hv crashes recover. --fault-plan
     * entries may target any component; --fault-seed draws a
     * random schedule over the standard bm-guest-0 targets plus the
     * shared fabric.
     */
    void
    armChaos()
    {
        if (!chaos || chaosArmed_)
            return;
        chaosArmed_ = true;
        if (Session::faultSeed != 0) {
            std::vector<fault::FaultInjector::RandomTarget> t = {
                {"server.guest0.iobond",
                 {fault::FaultKind::LinkFlap,
                  fault::FaultKind::DropDoorbell,
                  fault::FaultKind::DmaCorruptMeta}},
                {"server.guest0.iobond.dma",
                 {fault::FaultKind::DmaCorrupt,
                  fault::FaultKind::DmaFail}},
                {"server.guest0.hv",
                 {fault::FaultKind::HvStall,
                  fault::FaultKind::HvCrash}},
                {"storage",
                 {fault::FaultKind::BlockLose,
                  fault::FaultKind::BlockDelay,
                  fault::FaultKind::FabricCorrupt}},
                {"vswitch", {fault::FaultKind::PortStall,
                             fault::FaultKind::FabricCorrupt}},
            };
            chaos->randomPlan(Session::faultSeed, t,
                              msToTicks(50.0), 24);
        }
        // Chaos targets guest 0; mirror every delivery into its
        // flight recorder so anomaly dumps show the injected fault
        // alongside the datapath events it perturbed.
        if (server.guestCount() > 0 && server.guest(0).flight()) {
            auto *fr = server.guest(0).flight();
            chaos->setObserver(
                [this, fr](const fault::FaultInjector::PlanEntry &e,
                           bool accepted) {
                    fr->record(sim.now(),
                               obs::FlightEvent::FaultInject, 0, 0,
                               std::uint64_t(e.spec.kind),
                               accepted ? 1 : 0);
                });
        }
        chaos->arm();
        server.startWatchdog(msToTicks(2.0));
    }

    Simulation sim;
    cloud::VSwitch vswitch;
    cloud::BlockService storage;
    core::BmHiveServer server;
    /** Non-null when --fault-seed / --fault-plan was given. */
    std::unique_ptr<fault::FaultInjector> chaos;
    std::vector<std::unique_ptr<vmsim::VmGuest>> vms;

  private:
    /** Both public forms: @p label names the metric snapshot and
     *  the flight-dump subdirectory (the server makes it on its
     *  first dump). */
    Testbed(const std::string &label, std::uint64_t seed,
            core::BmServerParams server_params,
            cloud::BlockServiceParams storage_params)
        : sim(seed), vswitch(sim, "vswitch"),
          storage(sim, "storage", storage_params),
          server(sim, "server", vswitch, &storage,
                 inSubdir(std::move(server_params), label))
    {
        vswitch.setIntegrity(Session::integrityOn);
        MetricsCapture::instance().attach(label, sim.metrics());
        if (Session::faultSeed != 0 ||
            !Session::faultPlan.empty()) {
            chaos = std::make_unique<fault::FaultInjector>(
                sim, "chaos");
            if (!Session::faultPlan.empty()) {
                fatal_if(!chaos->loadPlan(Session::faultPlan),
                         "cannot load fault plan ",
                         Session::faultPlan);
            }
        }
    }

    static core::BmServerParams
    inSubdir(core::BmServerParams p, const std::string &label)
    {
        if (!p.obs.flightDumpDir.empty())
            p.obs.flightDumpDir += "/" + label;
        return p;
    }

    inline static unsigned ordinal_ = 0;
    inline static unsigned cfgOrdinal_ = 0;
    bool chaosArmed_ = false;
};

/** Print a bench header in a uniform style. */
inline void
banner(const std::string &id, const std::string &title)
{
    std::printf("==============================================="
                "=================\n");
    std::printf("%s — %s\n", id.c_str(), title.c_str());
    std::printf("==============================================="
                "=================\n");
}

inline void
note(const std::string &text)
{
    std::printf("  %s\n", text.c_str());
}

} // namespace bench
} // namespace bmhive

#endif // BMHIVE_BENCH_COMMON_HH
