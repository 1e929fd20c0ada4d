/**
 * @file
 * Host-cost probes: each times one layer's public call on inputs
 * shaped like the workloads (4 KiB blocks, 3-segment blk chains,
 * 32 MiB boards). Multiplied by the layer's call counts from the
 * metric registry, they attribute a traced run's wall time.
 */

#ifndef PERFBENCH_PROBES_HH
#define PERFBENCH_PROBES_HH

#include <map>
#include <string>

#include "load.hh"

namespace perfbench {

/** Probe name ("host.*") -> host ns per unit named in the key. */
std::map<std::string, double> runProbes();

} // namespace perfbench

#endif // PERFBENCH_PROBES_HH
