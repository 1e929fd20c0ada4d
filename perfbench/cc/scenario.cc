#include "scenario.hh"

#include <functional>

#include "bench/common.hh"
#include "core/instance_catalog.hh"
#include "fleet/fleet_controller.hh"

namespace perfbench {

namespace {

using workloads::GuestContext;
using workloads::NetStack;

/** Simulation seed of workload @p salt at benchmark seed @p seed. */
std::uint64_t
simSeed(std::uint64_t seed, std::uint64_t salt)
{
    return Gen(seed * 1000003 + salt).next();
}

void
pool(SampleSet &out, const LatencyRecorder &l)
{
    for (double x : l.samples().samples())
        out.record(x);
}

/** Pool every latency recorder whose name ends in @p suffix. */
void
poolRegistry(obs::MetricRegistry &reg, const std::string &suffix,
             SampleSet &out)
{
    std::vector<std::string> names;
    reg.forEach([&](const std::string &n, obs::MetricRegistry::Kind k) {
        if (k == obs::MetricRegistry::Kind::Latency &&
            n.size() >= suffix.size() &&
            n.compare(n.size() - suffix.size(), suffix.size(),
                      suffix) == 0)
            names.push_back(n);
    });
    for (const auto &n : names)
        pool(out, reg.latency(n));
}

void
putLatency(Report &r, const std::string &key, const SampleSet &s)
{
    r.sim[key + "_p50_us"] = s.count() ? s.percentile(0.50) : 0.0;
    r.sim[key + "_p99_us"] = s.count() ? s.percentile(0.99) : 0.0;
    r.sim[key + "_samples"] = double(s.count());
}

/** Doorbell-to-completion latency of every traced flow (Fig. 6
 *  tracer), net and block pooled as "io", and net alone. */
void
putTracerLatency(Report &r, obs::MetricRegistry &reg)
{
    SampleSet net, io;
    poolRegistry(reg, ".hv.net.stage.total", net);
    poolRegistry(reg, ".stage.total", io);
    putLatency(r, "net_lat", net);
    putLatency(r, "io_lat", io);
}

/** Section 4.3's local SSD: no fabric hop, NVMe-class service. */
cloud::BlockServiceParams
localSsd()
{
    cloud::BlockServiceParams p;
    p.networkLatency = usToTicks(2);
    p.readServiceMedian = usToTicks(45);
    p.writeServiceMedian = usToTicks(18);
    p.gcChance = 5e-4;
    p.gcPause = msToTicks(0.8);
    p.streamBandwidth = Bandwidth::gbps(6);
    return p;
}

/** Common part of the single-server workloads. */
class TestbedScenario : public Scenario
{
  public:
    Simulation &sim() override { return bed_->sim; }
    unsigned guests() override { return bed_->server.guestCount(); }

    Bytes
    guestMemoryBytes() override
    {
        Bytes b = bed_->server.base().memory().size();
        for (unsigned i = 0; i < bed_->server.guestCount(); ++i)
            b += bed_->server.guest(i).board().memory().size();
        return b;
    }

    bool driving() override { return sim().now() < end_; }

  protected:
    void
    boot()
    {
        bed_->sim.run(bed_->sim.now() + msToTicks(1));
    }

    /** Window [t0_, t1_) from now + @p warmup, load stops at t1_,
     *  the driven phase ends @p drain later. The seed stretches the
     *  warm-up and the window by up to 100 us each, so the window
     *  covers a different phase of the steady state. */
    void
    window(std::uint64_t seed, Tick warmup, Tick length, Tick drain,
           std::function<void()> stop)
    {
        Gen gen(seed);
        warmup += Tick(double(usToTicks(100)) * gen.unit());
        length += Tick(double(usToTicks(100)) * gen.unit());
        t0_ = sim().now() + warmup;
        t1_ = t0_ + length;
        end_ = t1_ + drain;
        at(sim(), t1_, std::move(stop));
    }

    double windowSec() const { return ticksToSec(t1_ - t0_); }

    std::unique_ptr<bench::Testbed> bed_;
    std::vector<GuestContext> g_;
    Tick t0_ = 0;
    Tick t1_ = 0;
    Tick end_ = 0;
};

// ------------------------------------------------------------ net_flood

/** Section 4.3 uncapped flood: two bm-guests, DPDK, 1-byte UDP. */
class NetFlood : public TestbedScenario
{
  public:
    explicit NetFlood(std::uint64_t seed)
    {
        bed_ = std::make_unique<bench::Testbed>(simSeed(seed, 1));
        g_.push_back(bed_->bmGuest(0xaa, 0, /*rate_limited=*/false));
        g_.push_back(bed_->bmGuest(0xbb, 0, /*rate_limited=*/false));
        boot();
        // PMD burst mode amortizes per-packet backend work.
        for (auto &g : g_)
            g.svc->setPerPacketCost(nsToTicks(55));
        seed_ = seed;
    }

    void
    start() override
    {
        window(simSeed(seed_, 10), msToTicks(2), msToTicks(10),
               msToTicks(1),
               [this] { flood_->stop(); });
        Flood::Shape s;
        s.payloadBytes = 1;
        s.flows = 28;
        s.batch = 64;
        s.stack = NetStack::Dpdk;
        flood_ = std::make_unique<Flood>(sim(), g_[0], g_[1], s,
                                         simSeed(seed_, 11), t0_, t1_);
        flood_->start();
    }

    Report
    finish() override
    {
        Report r;
        flood_->finish(r.violations);
        r.attempted = flood_->sent();
        r.ops = flood_->received();
        double pps = double(flood_->receivedInWindow()) / windowSec();
        r.sim["sim_kops"] = pps / 1e3;
        r.sim["net_mpps"] = pps / 1e6;
        SampleSet op;
        pool(op, flood_->latency());
        putLatency(r, "op_lat", op);
        putTracerLatency(r, sim().metrics());
        return r;
    }

  private:
    std::uint64_t seed_ = 0;
    std::unique_ptr<Flood> flood_;
};

// ----------------------------------------------------------- blk_randrw

/** One bm-guest on the local SSD: 4 read + 4 write fio jobs. */
class BlkRandRw : public TestbedScenario
{
  public:
    explicit BlkRandRw(std::uint64_t seed) : seed_(seed)
    {
        bed_ = std::make_unique<bench::Testbed>(simSeed(seed, 2), 4,
                                                localSsd());
        g_.push_back(bed_->bmGuest(0xaa, volMib, false));
        boot();
    }

    void
    start() override
    {
        window(simSeed(seed_, 20), msToTicks(5), msToTicks(40), 0,
               [this] { jobs_->stop(); });
        jobs_ = std::make_unique<BlkJobs>(sim(), g_[0], 4, 4,
                                          volMib * MiB / 512,
                                          simSeed(seed_, 21), t0_, t1_);
        jobs_->start();
    }

    bool
    driving() override
    {
        // Past the window, run until the last I/O has returned.
        return sim().now() < t1_ ||
               (!jobs_->idle() && sim().now() < t1_ + msToTicks(50));
    }

    Report
    finish() override
    {
        Report r;
        std::uint64_t ops = jobs_->completed();
        jobs_->finish(r.violations);
        jobs_->verify(256, r.violations);
        r.attempted = jobs_->issued() + jobs_->readbackOps();
        r.ops = ops;
        const double s = windowSec();
        r.sim["read_kiops"] = double(jobs_->readsInWindow()) / s / 1e3;
        r.sim["write_kiops"] = double(jobs_->writesInWindow()) / s / 1e3;
        r.sim["sim_kops"] = r.sim["read_kiops"] + r.sim["write_kiops"];
        SampleSet rd, wr, op;
        pool(rd, jobs_->readLatency());
        pool(wr, jobs_->writeLatency());
        pool(op, jobs_->readLatency());
        pool(op, jobs_->writeLatency());
        putLatency(r, "read_lat", rd);
        putLatency(r, "write_lat", wr);
        putLatency(r, "op_lat", op);
        putTracerLatency(r, sim().metrics());
        return r;
    }

  private:
    static constexpr Bytes volMib = 256;
    std::uint64_t seed_;
    std::unique_ptr<BlkJobs> jobs_;
};

// ------------------------------------------------------------ density16

/** 16 e3.8 guests on a shared 4-core poll pool, rate caps on. */
class Density16 : public TestbedScenario
{
  public:
    explicit Density16(std::uint64_t seed) : seed_(seed)
    {
        core::BmServerParams p;
        p.maxBoards = 16;
        p.schedMode = core::SchedMode::Shared;
        p.pollCores = 4;
        bed_ = std::make_unique<bench::Testbed>(simSeed(seed, 3), p);
        const auto &inst =
            core::InstanceCatalog::byName("ebm.xeon-e3.8");
        for (unsigned i = 0; i < 16; ++i)
            g_.push_back(bed_->bmGuest(0x10 + i, i < 2 ? volMib : 0,
                                       true, &inst));
        boot();
    }

    void
    start() override
    {
        window(simSeed(seed_, 30), msToTicks(5), msToTicks(100), 0,
               [this] {
            for (auto &j : jobs_)
                j->stop();
            for (auto &f : floods_)
                f->stop();
        });
        const std::uint64_t sectors = volMib * MiB / 512;
        jobs_.push_back(std::make_unique<BlkJobs>(
            sim(), g_[0], 4, 0, sectors, simSeed(seed_, 31), t0_, t1_));
        jobs_.push_back(std::make_unique<BlkJobs>(
            sim(), g_[1], 0, 4, sectors, simSeed(seed_, 32), t0_, t1_));
        Flood::Shape s;
        s.payloadBytes = 64;
        s.flows = 2;
        s.batch = 8;
        s.stack = NetStack::Kernel;
        for (unsigned i = 2; i + 1 < g_.size(); i += 2)
            floods_.push_back(std::make_unique<Flood>(
                sim(), g_[i], g_[i + 1], s, simSeed(seed_, 40 + i), t0_,
                t1_));
        for (auto &j : jobs_)
            j->start();
        for (auto &f : floods_)
            f->start();
    }

    bool
    driving() override
    {
        bool idle = true;
        for (auto &j : jobs_)
            idle = idle && j->idle();
        return sim().now() < t1_ + msToTicks(1) ||
               (!idle && sim().now() < t1_ + msToTicks(50));
    }

    Report
    finish() override
    {
        Report r;
        std::uint64_t pkts = 0;
        SampleSet op, rd, wr;
        for (auto &f : floods_) {
            f->finish(r.violations);
            r.attempted += f->sent();
            r.ops += f->received();
            pkts += f->receivedInWindow();
            pool(op, f->latency());
        }
        std::uint64_t ios = 0;
        for (auto &j : jobs_) {
            r.ops += j->completed();
            j->finish(r.violations);
            ios += j->readsInWindow() + j->writesInWindow();
            pool(op, j->readLatency());
            pool(op, j->writeLatency());
            pool(rd, j->readLatency());
            pool(wr, j->writeLatency());
        }
        jobs_[1]->verify(64, r.violations);
        for (auto &j : jobs_)
            r.attempted += j->issued() + j->readbackOps();
        const double s = windowSec();
        r.sim["net_mpps"] = double(pkts) / s / 1e6;
        r.sim["read_kiops"] = double(rd.count()) / s / 1e3;
        r.sim["write_kiops"] = double(wr.count()) / s / 1e3;
        r.sim["sim_kops"] = double(pkts + ios) / s / 1e3;
        putLatency(r, "op_lat", op);
        putLatency(r, "read_lat", rd);
        putLatency(r, "write_lat", wr);
        putTracerLatency(r, sim().metrics());
        return r;
    }

  private:
    static constexpr Bytes volMib = 64;
    std::uint64_t seed_;
    std::vector<std::unique_ptr<BlkJobs>> jobs_;
    std::vector<std::unique_ptr<Flood>> floods_;
};

// ---------------------------------------------------------- fleet_storm

/**
 * 8 servers x 64 guests, dedicated polling, partitioned core: every
 * guest runs an open-loop 4 KiB reader while a storm of planned live
 * migrations (never onto or off the two control servers) runs, with
 * power cut to servers 0 and 1 at 1/3 and 2/3 of the target.
 *
 * A guest is only migrated, and a server only loses power, once the
 * readers involved are quiet (quiesce()). A completion interrupt
 * still pending when a guest changes partition fires in the old
 * partition and schedules the guest's CPU work into the new one from
 * the wrong thread, which on two simulation threads races (and can
 * corrupt) that partition's event queue.
 */
class FleetStorm : public Scenario
{
  public:
    FleetStorm(std::uint64_t seed, unsigned threads)
        : sim_(simSeed(seed, 4)), seed_(seed)
    {
        psim::Params pp;
        pp.threads = threads;
        sim_.enablePartitions(servers, pp);
        vswitch_ = std::make_unique<cloud::VSwitch>(sim_, "vswitch");
        // A rack's worth of guests needs a rack-scale storage
        // cluster (see bench_fleet).
        cloud::BlockServiceParams sp;
        sp.channels = 64;
        storage_ = std::make_unique<cloud::BlockService>(sim_, "storage",
                                                         sp);
        fleet::FleetParams fp;
        fp.servers = servers;
        fp.server.maxBoards = 12;
        // Host footprint: bench_fleet's defaults back every server
        // with 12 x 24 MiB of shadow regions and every board with
        // 32 MiB, 4.5 GB in all. The storm keeps a few KiB in flight
        // per guest and the guest drivers' arenas need ~10 MiB, so
        // a 2 MiB shadow arena and 16 MiB boards (below) run the
        // same simulation in well under half the memory.
        fp.server.bondParams.shadowArenaBytes = 2 * MiB;
        fp.server.shadowRegionPerGuest =
            4 * MiB + fp.server.bondParams.shadowArenaBytes;
        fp.server = bench::Testbed::withSessionObs(fp.server);
        fp.perServerVswitch = true;
        fc_ = std::make_unique<fleet::FleetController>(
            sim_, "fleet", *vswitch_, storage_.get(), fp);
        core::InstanceType type =
            core::InstanceCatalog::byName("ebm.xeon-e3.8");
        type.simMemBytes = 16 * MiB;
        for (unsigned i = 0; i < nGuests; ++i) {
            auto &vol = storage_->createVolume(
                "vol" + std::to_string(i), volMib * MiB);
            fleet::GuestId id = fc_->place(type, 0x100 + i, &vol);
            fatal_if(id == fleet::invalidGuest,
                     "placement failed for guest ", i);
            ids_.push_back(id);
            readers_.push_back(std::make_unique<OpenReader>(
                fc_->guest(id).blk(), &fc_->guest(id).os().cpu(0),
                volMib * MiB / (4 * KiB), simSeed(seed, 100 + i)));
            unsigned s = fc_->serverOf(id);
            if (s < servers - 2)
                movers_.push_back(i);
        }
        sim_.run(sim_.now() + msToTicks(2));
    }

    Simulation &sim() override { return sim_; }
    unsigned guests() override { return nGuests; }

    Bytes
    guestMemoryBytes() override
    {
        Bytes b = 0;
        for (unsigned s = 0; s < servers; ++s) {
            auto &srv = fc_->server(s);
            b += srv.base().memory().size();
            for (unsigned i = 0; i < srv.guestCount(); ++i)
                b += srv.guest(i).board().memory().size();
        }
        return b;
    }

    void
    start() override
    {
        // Reads run 2 ms (plus up to one seeded period) before the
        // storm and the latency window open.
        stormStart_ = sim_.now() + msToTicks(2) +
                      Tick(double(usToTicks(250)) *
                           Gen(simSeed(seed_, 50)).unit());
        pump();
        at(sim_, stormStart_, [this] { stormTick(); });
    }

    bool
    driving() override
    {
        const Tick now = sim_.now();
        if (phase_ == Phase::Storm) {
            bool reached = fc_->migrationsDone() +
                                   fc_->migrationAborts() >=
                               targetMigrations &&
                           powerCuts_ == 2;
            if (now > stormStart_ &&
                (reached || now >= stormStart_ + msToTicks(600))) {
                phase_ = Phase::Drain;
                stormEnd_ = now;
                release();
                for (auto &r : readers_)
                    r->stop();
            }
            return true;
        }
        bool quiet = !fc_->migrationsInFlight();
        for (auto &r : readers_)
            quiet = quiet && r->idle();
        return !quiet && now < stormEnd_ + msToTicks(300);
    }

    Report
    finish() override
    {
        Report r;
        SampleSet lat;
        std::uint64_t in_window = 0, deferrals = 0;
        for (auto &rd : readers_) {
            rd->finish(r.violations);
            r.attempted += rd->issued();
            r.ops += rd->completed();
            in_window += rd->completedInWindow();
            deferrals += rd->deferrals();
            pool(lat, rd->latency());
        }
        if (fc_->lostGuests() > 0)
            r.violations["fleet.lost_guests"] += fc_->lostGuests();
        if (fc_->migrationsDone() < targetMigrations || powerCuts_ < 2)
            r.violations["fleet.storm_incomplete"] += 1;
        const double s = ticksToSec(stormEnd_ - stormStart_);
        r.sim["sim_kops"] = double(in_window) / s / 1e3;
        r.sim["read_kiops"] = r.sim["sim_kops"];
        r.sim["storm_ms"] = s * 1e3;
        putLatency(r, "op_lat", lat);
        putLatency(r, "read_lat", lat);
        putTracerLatency(r, sim_.metrics());
        const LatencyRecorder &b = fc_->blackout();
        r.sim["blackout_p50_us"] = b.p50Us();
        r.sim["blackout_p90_us"] = b.p90Us();
        r.sim["migrations"] = double(fc_->migrationsDone());
        r.sim["failovers"] = double(fc_->failovers());
        r.sim["aborts"] = double(fc_->migrationAborts());
        r.sim["pump_deferrals"] = double(deferrals);
        return r;
    }

  private:
    enum class Phase { Storm, Drain };
    static constexpr unsigned servers = 8;
    static constexpr unsigned nGuests = 64;
    static constexpr Bytes volMib = 8;
    static constexpr std::uint64_t targetMigrations = 100;

    /** One pump event per period serves every guest's reader. */
    void
    pump()
    {
        const Tick now = sim_.now();
        const bool counted = phase_ == Phase::Storm && now >= stormStart_;
        bool live = false;
        for (auto &r : readers_) {
            r->tick(now, counted);
            live = live || !r->idle();
        }
        if (phase_ == Phase::Storm || live)
            at(sim_, now + usToTicks(250), [this] { pump(); });
    }

    /** bench_fleet's storm loop; each step waits for quiet readers. */
    void
    stormTick()
    {
        if (phase_ != Phase::Storm)
            return;
        const std::uint64_t done =
            fc_->migrationsDone() + fc_->migrationAborts();
        if (afterQuiet_) {
            // The previous step is still waiting.
        } else if (powerCuts_ == 0 && done >= targetMigrations / 3 &&
                   !fc_->serverDead(0)) {
            quiesce(guestsOn(0), true, [this] { powerLoss(0); });
        } else if (powerCuts_ == 1 &&
                   done >= 2 * targetMigrations / 3 &&
                   !fc_->serverDead(1)) {
            quiesce(guestsOn(1), true, [this] { powerLoss(1); });
        } else if (done < targetMigrations) {
            for (std::size_t tries = 0; tries < movers_.size(); ++tries) {
                const unsigned i = movers_[nextMover_++ % movers_.size()];
                if (target(i) < 0)
                    continue;
                quiesce({i}, false, [this, i] {
                    const int t = target(i);
                    if (t >= 0)
                        fc_->migrate(ids_[i], unsigned(t));
                });
                break;
            }
        }
        at(sim_, sim_.now() + usToTicks(300),
                 [this] { stormTick(); });
    }

    /** The live non-control server with the most free slots that
     *  guest @p i could move to now; -1 if none. */
    int
    target(unsigned i)
    {
        const fleet::GuestId id = ids_[i];
        if (!fc_->alive(id) || fc_->migrating(id))
            return -1;
        const unsigned cur = fc_->serverOf(id);
        unsigned best = cur, best_free = 0;
        for (unsigned s = 0; s < servers - 2; ++s) {
            if (s == cur || fc_->serverDead(s))
                continue;
            if (fc_->server(s).freeSlots() > best_free) {
                best_free = fc_->server(s).freeSlots();
                best = s;
            }
        }
        return best == cur ? -1 : int(best);
    }

    std::vector<unsigned>
    guestsOn(unsigned s)
    {
        std::vector<unsigned> out;
        for (unsigned i = 0; i < nGuests; ++i)
            if (fc_->alive(ids_[i]) && fc_->serverOf(ids_[i]) == s)
                out.push_back(i);
        return out;
    }

    /** Hold the readers of @p guests; once none has a read in
     *  flight or a completion (and so an interrupt) within the last
     *  20 us, and for a @p whole_server no migration is in flight,
     *  run @p then and let them go on. Reads that fall due meanwhile
     *  wait, and their latency includes the wait. */
    void
    quiesce(std::vector<unsigned> guests, bool whole_server,
            std::function<void()> then)
    {
        holdServer_ = whole_server;
        held_ = std::move(guests);
        for (unsigned i : held_)
            readers_[i]->hold(true);
        afterQuiet_ = std::move(then);
        if (!checkPending_)
            checkHeld();
    }

    void
    checkHeld()
    {
        checkPending_ = false;
        if (!afterQuiet_)
            return;
        const Tick now = sim_.now();
        // Before a power cut no guest may be arriving either: it
        // would resume its reads unheld.
        bool quiet = !(holdServer_ && fc_->migrationsInFlight());
        for (unsigned i : held_)
            quiet = quiet && readers_[i]->quiet(now, usToTicks(20));
        if (!quiet) {
            checkPending_ = true;
            at(sim_, now + usToTicks(10), [this] { checkHeld(); });
            return;
        }
        afterQuiet_();
        release();
    }

    void
    release()
    {
        for (unsigned i : held_)
            readers_[i]->hold(false);
        held_.clear();
        afterQuiet_ = nullptr;
    }

    void
    powerLoss(unsigned s)
    {
        ++powerCuts_;
        fault::FaultSpec spec;
        spec.kind = fault::FaultKind::ServerPowerLoss;
        sim_.faults().deliver("fleet.s" + std::to_string(s), spec);
    }

    Simulation sim_;
    std::uint64_t seed_;
    std::unique_ptr<cloud::VSwitch> vswitch_;
    std::unique_ptr<cloud::BlockService> storage_;
    std::unique_ptr<fleet::FleetController> fc_;
    std::vector<fleet::GuestId> ids_;
    std::vector<std::unique_ptr<OpenReader>> readers_;
    std::vector<unsigned> movers_;
    std::size_t nextMover_ = 0;
    /** Guests held by quiesce(), and what runs once they are quiet
     *  (empty when nothing waits). */
    std::vector<unsigned> held_;
    std::function<void()> afterQuiet_;
    bool holdServer_ = false;
    bool checkPending_ = false;
    unsigned powerCuts_ = 0;
    Phase phase_ = Phase::Storm;
    Tick stormStart_ = 0;
    Tick stormEnd_ = 0;
};

} // namespace

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names = {
        "net_flood", "blk_randrw", "density16", "fleet_storm"};
    return names;
}

std::unique_ptr<Scenario>
makeScenario(const std::string &name, std::uint64_t seed,
             unsigned sim_threads)
{
    if (name == "net_flood")
        return std::make_unique<NetFlood>(seed);
    if (name == "blk_randrw")
        return std::make_unique<BlkRandRw>(seed);
    if (name == "density16")
        return std::make_unique<Density16>(seed);
    if (name == "fleet_storm")
        return std::make_unique<FleetStorm>(seed, sim_threads);
    return nullptr;
}

std::uint64_t
eventsProcessed(Simulation &sim)
{
    std::uint64_t n = 0;
    for (unsigned p = 0; p < sim.partitions(); ++p)
        n += sim.partitionQueue(p).processedCount();
    return n;
}

} // namespace perfbench
