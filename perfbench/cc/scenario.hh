/**
 * @file
 * The benchmark's four workloads. Constructing a Scenario is the
 * set-up the benchmark times (testbed built, guests provisioned and
 * booted); start() arms the load, the caller steps the simulation in
 * 1 ms chunks while driving() is true, and finish() checks every
 * operation and reports the simulated outputs.
 */

#ifndef PERFBENCH_SCENARIO_HH
#define PERFBENCH_SCENARIO_HH

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "load.hh"

namespace perfbench {

/** Simulated outputs of one driven phase; deterministic per seed. */
struct Report
{
    /** Named simulated results (rates, latencies, counts). */
    std::map<std::string, double> sim;
    Violations violations;
    /** Operations the load tried (sent, issued, read back). */
    std::uint64_t attempted = 0;
    /** Operations completed over the driven phase. */
    std::uint64_t ops = 0;
};

class Scenario
{
  public:
    virtual ~Scenario() = default;

    virtual Simulation &sim() = 0;
    virtual unsigned guests() = 0;
    /** Bytes of GuestMemory the set-up allocated (boards + base). */
    virtual Bytes guestMemoryBytes() = 0;

    virtual void start() = 0;
    /** True while the driven phase needs another chunk. */
    virtual bool driving() = 0;
    virtual Report finish() = 0;
};

/** Workload names, in BENCHMARK.json order. */
const std::vector<std::string> &workloadNames();

/**
 * Build workload @p name for benchmark seed @p seed. @p sim_threads
 * applies to the partitioned fleet only.
 */
std::unique_ptr<Scenario> makeScenario(const std::string &name,
                                       std::uint64_t seed,
                                       unsigned sim_threads);

/** Total events processed by every queue of @p sim. */
std::uint64_t eventsProcessed(Simulation &sim);

} // namespace perfbench

#endif // PERFBENCH_SCENARIO_HH
