/**
 * @file
 * The test process's resident set, for tests that bound how much
 * simulated memory the host actually backs.
 */

#ifndef BMHIVE_TESTS_RESIDENT_HH
#define BMHIVE_TESTS_RESIDENT_HH

#include <unistd.h>

#include <cstdint>
#include <fstream>

namespace bmhive {

/** Bytes of this process now resident (/proc/self/statm). */
inline std::uint64_t
residentBytes()
{
    std::ifstream statm("/proc/self/statm");
    std::uint64_t pages = 0, resident = 0;
    statm >> pages >> resident;
    return resident * std::uint64_t(sysconf(_SC_PAGESIZE));
}

} // namespace bmhive

#endif // BMHIVE_TESTS_RESIDENT_HH
