/**
 * @file
 * perfbench: runs one benchmark workload and prints one JSON object
 * of raw measurements on stdout (progress goes to stderr). run.py
 * turns it into the benchmark's metrics.
 *
 *   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
 *             [--registry-out <path>]
 *
 * Untraced: repeat {set up, drive, check} until --seconds have
 * passed, then set up alone until five set-ups were timed. Every
 * repetition must reproduce the first one's simulated outputs.
 * Traced: one untraced and one traced repetition (the traced one
 * times each driven chunk and keeps the metric registry), the host
 * probes, and for the partitioned fleet one more repetition on two
 * simulation threads.
 */

#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "probes.hh"
#include "scenario.hh"

using namespace perfbench;

namespace {

using Clock = std::chrono::steady_clock;

const Clock::time_point processStart = Clock::now();

/** Simulation threads of the partitioned fleet: one for the timed
 *  repetitions, two for the traced run's comparison repetition. Two
 *  threads meet at a barrier every lookahead window (~50K times a
 *  repetition), so on a shared machine their wall time follows the
 *  host's scheduler more than the simulator. */
constexpr unsigned simThreads = 1;
constexpr unsigned parallelSimThreads = 2;

double
since(Clock::time_point t)
{
    return std::chrono::duration<double>(Clock::now() - t).count();
}

struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    std::string registryOut;
};

/** One set-up plus driven phase. */
struct Rep
{
    double setupS = 0;
    double driveS = 0;
    double simMs = 0;
    std::uint64_t events = 0;      ///< during the driven phase
    std::uint64_t eventsTotal = 0; ///< set-up included
    double guestMemMib = 0;
    unsigned guests = 0;
    Report report;
    /** FNV-1a of the metric registry's JSON snapshot. */
    std::uint64_t registryHash = 0;
    /** The snapshot itself, kept for traced repetitions only. */
    std::string registryJson;
    /** Traced: host ns per event of each 1 ms chunk. */
    std::vector<double> chunkNsPerEvent;
};

std::uint64_t
fnv1a(const std::string &s)
{
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (unsigned char c : s)
        h = (h ^ c) * 0x100000001b3ULL;
    return h;
}

Rep
runRep(const Options &o, Clock::time_point t0, bool traced,
       unsigned threads)
{
    Rep r;
    auto sc = makeScenario(o.workload, o.seed, threads);
    r.setupS = since(t0);
    r.guests = sc->guests();
    r.guestMemMib = double(sc->guestMemoryBytes()) / double(MiB);
    Simulation &sim = sc->sim();
    const std::uint64_t ev0 = eventsProcessed(sim);
    const Tick sim0 = sim.now();

    auto td = Clock::now();
    sc->start();
    while (sc->driving()) {
        auto tc = Clock::now();
        const std::uint64_t ec = traced ? eventsProcessed(sim) : 0;
        sim.run(sim.now() + msToTicks(1));
        if (traced) {
            const double ns = since(tc) * 1e9;
            const std::uint64_t n = eventsProcessed(sim) - ec;
            if (n > 0)
                r.chunkNsPerEvent.push_back(ns / double(n));
        }
    }
    r.driveS = since(td);
    r.simMs = ticksToSec(sim.now() - sim0) * 1e3;
    r.eventsTotal = eventsProcessed(sim);
    r.events = r.eventsTotal - ev0;
    r.report = sc->finish();
    std::string snap = sim.metrics().toJson();
    r.registryHash = fnv1a(snap);
    if (traced)
        r.registryJson = std::move(snap);
    return r;
}

/** Same seed, same simulated outputs: every repetition, any number
 *  of simulation threads. */
bool
sameOutputs(const Rep &a, const Rep &b)
{
    return a.report.sim == b.report.sim && a.registryHash == b.registryHash;
}

std::uint64_t
failures(const Report &r)
{
    std::uint64_t n = 0;
    for (const auto &[k, v] : r.violations)
        n += v;
    return n;
}

void
jsonStr(std::string &out, const std::string &s)
{
    out += '"';
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        out += c;
    }
    out += '"';
}

void
jsonNum(std::string &out, double v)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    out += buf;
}

template <typename Map>
void
jsonMap(std::string &out, const Map &m)
{
    out += '{';
    bool first = true;
    for (const auto &[k, v] : m) {
        if (!first)
            out += ',';
        first = false;
        jsonStr(out, k);
        out += ':';
        jsonNum(out, double(v));
    }
    out += '}';
}

void
jsonRep(std::string &out, const Rep &r)
{
    out += "{\"setup_s\":";
    jsonNum(out, r.setupS);
    out += ",\"drive_s\":";
    jsonNum(out, r.driveS);
    out += ",\"sim_ms\":";
    jsonNum(out, r.simMs);
    out += ",\"events\":";
    jsonNum(out, double(r.events));
    out += ",\"events_total\":";
    jsonNum(out, double(r.eventsTotal));
    out += ",\"ops\":";
    jsonNum(out, double(r.report.ops));
    out += ",\"registry_hash\":";
    char hex[32];
    std::snprintf(hex, sizeof(hex), "%016llx",
                  (unsigned long long)r.registryHash);
    jsonStr(out, hex);
    out += '}';
}

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload <name> "
                 "--seed <n> --seconds <s> --trace <0|1> "
                 "[--registry-out <path>]\n",
                 why);
    std::exit(2);
}

Options
parse(int argc, char **argv)
{
    Options o;
    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        if (i + 1 >= argc)
            usage(("missing value for " + a).c_str());
        std::string v = argv[++i];
        if (a == "--workload")
            o.workload = v;
        else if (a == "--seed")
            o.seed = std::strtoull(v.c_str(), nullptr, 10);
        else if (a == "--seconds")
            o.seconds = std::atof(v.c_str());
        else if (a == "--trace")
            o.trace = v == "1";
        else if (a == "--registry-out")
            o.registryOut = v;
        else
            usage(("unknown flag " + a).c_str());
    }
    bool known = false;
    for (const auto &n : workloadNames())
        known = known || n == o.workload;
    if (!known)
        usage(("unknown workload '" + o.workload + "'").c_str());
    return o;
}

} // namespace

int
main(int argc, char **argv)
{
    const Options o = parse(argc, argv);
    // A fixed mmap threshold: glibc otherwise raises it when the
    // first large block (a 16 MiB board, a grown sample buffer) is
    // freed, and later repetitions would reuse warm heap pages that
    // the first one had to fault in. Every set-up then allocates the
    // way a single run of the simulator does.
    mallopt(M_MMAP_THRESHOLD, 128 * 1024);
    std::vector<Rep> reps;
    std::vector<double> setups;
    Violations violations;
    std::uint64_t attempted = 0;

    auto account = [&](const Rep &r) {
        attempted += r.report.attempted;
        for (const auto &[k, v] : r.report.violations)
            violations[k] += v;
        std::fprintf(stderr,
                     "perfbench: %s rep %zu: setup %.3f s, drive %.3f s "
                     "for %.1f sim-ms, %zu violations\n",
                     o.workload.c_str(), reps.size(), r.setupS, r.driveS,
                     r.simMs, std::size_t(failures(r.report)));
    };
    auto keep = [&](Rep r) {
        account(r);
        setups.push_back(r.setupS);
        if (!reps.empty() && !sameOutputs(r, reps.front()))
            ++violations["determinism.repetition"];
        reps.push_back(std::move(r));
    };

    std::map<std::string, double> probes;
    double threads2DriveS = 0;
    if (!o.trace) {
        keep(runRep(o, processStart, false, simThreads));
        while (since(processStart) < o.seconds)
            keep(runRep(o, Clock::now(), false, simThreads));
        while (setups.size() < 5) {
            auto t0 = Clock::now();
            auto sc = makeScenario(o.workload, o.seed, simThreads);
            setups.push_back(since(t0));
        }
    } else {
        keep(runRep(o, processStart, false, simThreads));
        keep(runRep(o, Clock::now(), true, simThreads));
        if (o.workload == "fleet_storm") {
            Rep two = runRep(o, Clock::now(), false, parallelSimThreads);
            account(two);
            threads2DriveS = two.driveS;
            if (!sameOutputs(two, reps.front()))
                ++violations["determinism.sim_threads"];
        }
        probes = runProbes();
        if (!o.registryOut.empty()) {
            std::ofstream f(o.registryOut);
            f << reps.back().registryJson;
            if (!f)
                usage(("cannot write " + o.registryOut).c_str());
        }
    }

    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    const Rep &first = reps.front();

    std::string out = "{\"workload\":";
    jsonStr(out, o.workload);
    out += ",\"seed\":";
    jsonNum(out, double(o.seed));
    out += ",\"trace\":";
    out += o.trace ? "1" : "0";
    out += ",\"guests\":";
    jsonNum(out, first.guests);
    out += ",\"guest_mem_mib\":";
    jsonNum(out, first.guestMemMib);
    out += ",\"peak_rss_mb\":";
    jsonNum(out, double(ru.ru_maxrss) / 1024.0);
    out += ",\"attempted\":";
    jsonNum(out, double(attempted));
    out += ",\"violations\":";
    jsonMap(out, violations);
    out += ",\"setups_s\":[";
    for (std::size_t i = 0; i < setups.size(); ++i) {
        if (i)
            out += ',';
        jsonNum(out, setups[i]);
    }
    out += "],\"reps\":[";
    for (std::size_t i = 0; i < reps.size(); ++i) {
        if (i)
            out += ',';
        jsonRep(out, reps[i]);
    }
    out += "],\"sim\":";
    jsonMap(out, first.report.sim);
    if (o.trace) {
        const Rep &t = reps.back();
        out += ",\"traced\":{\"probes\":";
        jsonMap(out, probes);
        std::vector<double> c = t.chunkNsPerEvent;
        std::sort(c.begin(), c.end());
        out += ",\"chunk_ns_per_event_p50\":";
        jsonNum(out, c.empty() ? 0.0 : c[c.size() / 2]);
        out += ",\"threads2_drive_s\":";
        jsonNum(out, threads2DriveS);
        out += '}';
    }
    out += "}\n";
    std::fputs(out.c_str(), stdout);
    return 0;
}
