/**
 * @file
 * Fig. 11: cloud storage latency, fio 8 jobs x 4 KiB random
 * read/write against the SSD-backed cloud storage over the
 * 100 Gbit/s network, 25K IOPS / 300 MB/s instance limit.
 *
 * Paper result: both guests saturate the 25K IOPS cap; the
 * bm-guest is ~25% faster on average and ~3x better at the 99.9th
 * percentile (random read) because its data is DMA'd directly by
 * IO-Bond while the vm path adds CPU copies and suffers host
 * preemption spikes.
 *
 * A full-length clean run exits 1 when the rand-read vm/bm ratios
 * leave the paper band (`ctest -L paper`).
 */

#include "bench/common.hh"
#include "workloads/fio.hh"

using namespace bmhive;
using namespace bmhive::bench;
using namespace bmhive::workloads;

namespace {

// The paper band of the rand-read vm/bm ratios (paper: ~1.25 avg,
// ~3x p99.9), wide enough for the seed spread: full-length runs at
// twelve seed offsets (every Testbed seed + 4k, k = 0..11) read avg
// 1.17-1.19 and p99.9 2.32-3.15, one tail of the twelve below 2.4.
constexpr double avgRatioLo = 1.10, avgRatioHi = 1.40;
constexpr double p999RatioLo = 2.4, p999RatioHi = 3.6;

FioResult
runFio(GuestContext g, Simulation &sim, bool write)
{
    FioParams p;
    p.write = write;
    p.jobs = 8;
    p.blockBytes = 4 * KiB;
    p.window = Session::window(msToTicks(2500));
    FioRunner fio(sim, "fio", g, p);
    return fio.run();
}

} // namespace

int
main(int argc, char **argv)
{
    bmhive::bench::Session session(argc, argv);
    banner("Fig. 11", "cloud storage latency, fio 8 jobs, 4 KiB "
                      "random, 25K IOPS cap");

    std::printf("  %-22s %10s %10s %10s %12s\n", "case", "IOPS",
                "avg us", "p99 us", "p99.9 us");
    double bm_avg_rd = 0, vm_avg_rd = 0, bm_999_rd = 0,
           vm_999_rd = 0;
    for (bool write : {false, true}) {
        Testbed bm_bed(write ? 303 : 301);
        auto bm = runFio(bm_bed.bmGuest(0xaa, 256), bm_bed.sim,
                         write);
        Testbed vm_bed(write ? 304 : 302);
        auto vm = runFio(vm_bed.vmGuest(0xaa, 256), vm_bed.sim,
                         write);
        const char *op = write ? "rand-write" : "rand-read";
        std::printf("  bm-guest %-13s %10.0f %10.1f %10.1f %12.1f\n",
                    op, bm.iops, bm.avgUs, bm.p99Us, bm.p999Us);
        std::printf("  vm-guest %-13s %10.0f %10.1f %10.1f %12.1f\n",
                    op, vm.iops, vm.avgUs, vm.p99Us, vm.p999Us);
        if (!write) {
            bm_avg_rd = bm.avgUs;
            vm_avg_rd = vm.avgUs;
            bm_999_rd = bm.p999Us;
            vm_999_rd = vm.p999Us;
        }
    }
    double avg_ratio = vm_avg_rd / bm_avg_rd;
    double p999_ratio = vm_999_rd / bm_999_rd;
    std::printf("  rand-read: vm/bm avg = %.2f, vm/bm p99.9 = "
                "%.2f\n",
                avg_ratio, p999_ratio);
    note("paper: both saturate 25K IOPS; bm ~25% faster avg, ~3x "
         "better p99.9 (read)");

    // The band is asserted on full-length clean runs only: --quick
    // windows are too short to be paper-comparable, and chaos runs
    // (--fault-seed / --fault-plan) degrade I/O on purpose.
    if (Session::quick || Session::faultSeed != 0 ||
        !Session::faultPlan.empty())
        return 0;
    int rc = 0;
    if (avg_ratio < avgRatioLo || avg_ratio > avgRatioHi) {
        std::printf("  FAIL: rand-read vm/bm avg %.2f outside "
                    "[%.2f, %.2f]\n",
                    avg_ratio, avgRatioLo, avgRatioHi);
        rc = 1;
    }
    if (p999_ratio < p999RatioLo || p999_ratio > p999RatioHi) {
        std::printf("  FAIL: rand-read vm/bm p99.9 %.2f outside "
                    "[%.1f, %.1f]\n",
                    p999_ratio, p999RatioLo, p999RatioHi);
        rc = 1;
    }
    note(rc == 0 ? "rand-read vm/bm avg and p99.9 inside the paper "
                   "band"
                 : "paper band FAILED");
    return rc;
}
