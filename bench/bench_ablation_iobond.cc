/**
 * @file
 * Ablation of the IO-Bond design constants the paper publishes
 * (section 3.4.3) — what happens to guest-visible I/O if the
 * hardware were provisioned differently:
 *
 *  1. Internal DMA bandwidth (paper: 50 Gbps): swept from 5 to
 *     100 Gbps; shows where the mirror engine starts to throttle
 *     packet rate.
 *  2. bm-hypervisor poll period (CALIBRATED: 2 us): swept from
 *     0.5 to 16 us; shows the latency the polling design trades
 *     for burning a base-board core.
 *  3. FPGA vs ASIC register timing is covered separately by
 *     bench_s6_asic_ablation.
 */

#include "bench/common.hh"
#include "workloads/net_perf.hh"

using namespace bmhive;
using namespace bmhive::bench;
using namespace bmhive::workloads;

namespace {

struct Result
{
    double pps;
    double lat_us;
};

Result
runWith(std::uint64_t seed, double dma_gbps, Tick poll_period,
        Bytes payload = 1)
{
    Testbed bed(seed);
    core::BmServerParams sp;
    sp.maxBoards = 2;
    sp.bondParams.dmaBandwidth = Bandwidth::gbps(dma_gbps);
    core::BmHiveServer server(bed.sim, "ablation", bed.vswitch,
                              &bed.storage, sp);
    auto &ga = server.provision(core::InstanceCatalog::evaluated(),
                                0xA1, nullptr, false);
    auto &gb = server.provision(core::InstanceCatalog::evaluated(),
                                0xB1, nullptr, false);
    ga.hypervisor().setPollPeriod(poll_period);
    gb.hypervisor().setPollPeriod(poll_period);
    bed.sim.run(bed.sim.now() + msToTicks(1));

    auto a = GuestContext::of(ga);
    auto b = GuestContext::of(gb);

    PacketFloodParams fp;
    fp.payloadBytes = payload;
    fp.flows = 14;
    fp.batch = 16;
    fp.warmup = msToTicks(3);
    fp.window = Session::window(msToTicks(15));
    PacketFlood flood(bed.sim, "flood", a, b, fp);
    auto fr = flood.run();

    PingPongParams pp;
    pp.samples = 500;
    pp.stack = NetStack::Dpdk;
    PingPong ping(bed.sim, "pp", a, b, pp);
    auto pr = ping.run();
    return {fr.pps, pr.avgUs};
}

} // namespace

int
main(int argc, char **argv)
{
    bmhive::bench::Session session(argc, argv);
    banner("Ablation 1", "IO-Bond internal DMA bandwidth (paper: "
                         "50 Gbps), uncapped guests");
    std::printf("  %10s %12s %12s %14s\n", "DMA Gbps", "PPS (M)",
                "Gbit/s", "DPDK lat us");
    for (double gbps : {5.0, 10.0, 25.0, 50.0, 100.0}) {
        // 1400B frames stress the mirror engine (the paper's x4
        // device links are 32 Gbps; DMA must stay ahead of them).
        auto r = runWith(9000 + unsigned(gbps), gbps,
                         paper::bmPollPeriod, 1400);
        std::printf("  %10.0f %12.2f %12.2f %14.2f\n", gbps,
                    r.pps / 1e6, r.pps * 1442 * 8 / 1e9,
                    r.lat_us);
    }
    note("below ~50 Gbps the mirror engine throttles large-frame "
         "traffic; the design point keeps it off the critical "
         "path");

    banner("Ablation 2", "bm-hypervisor poll period (model "
                         "default: 2 us)");
    std::printf("  %10s %12s %14s\n", "poll us", "PPS (M)",
                "DPDK lat us");
    for (double us : {0.5, 1.0, 2.0, 4.0, 8.0, 16.0}) {
        auto r = runWith(9100 + unsigned(us * 10), 50.0,
                         usToTicks(us));
        std::printf("  %10.1f %12.2f %14.2f\n", us, r.pps / 1e6,
                    r.lat_us);
    }
    note("latency grows ~linearly with the poll period; the "
         "dedicated-core PMD design buys the low end");

    banner("Ablation 3", "fast path (DPDK/SPDK PMD) vs slow path "
                         "(Linux tap), paper section 3.4.2");
    {
        // Fast path: the deployed configuration.
        auto fast = runWith(9300, 50.0, paper::bmPollPeriod);
        // Slow path: tap-style backend — no PMD spin loop (sleepy
        // ~30 us wakeups) and kernel-stack per-packet processing.
        Testbed bed(9301);
        core::BmServerParams sp;
        sp.maxBoards = 2;
        core::BmHiveServer server(bed.sim, "slow", bed.vswitch,
                                  &bed.storage, sp);
        auto &ga = server.provision(
            core::InstanceCatalog::evaluated(), 0xA2, nullptr,
            false);
        auto &gb = server.provision(
            core::InstanceCatalog::evaluated(), 0xB2, nullptr,
            false);
        for (auto *g : {&ga, &gb}) {
            g->hypervisor().setPollPeriod(usToTicks(30));
            g->hypervisor().service().setPerPacketCost(
                usToTicks(4));
        }
        bed.sim.run(bed.sim.now() + msToTicks(1));
        auto a = GuestContext::of(ga);
        auto b = GuestContext::of(gb);
        PacketFloodParams fp;
        fp.flows = 14;
        fp.batch = 16;
        fp.warmup = msToTicks(3);
        fp.window = Session::window(msToTicks(15));
        PacketFlood flood(bed.sim, "flood", a, b, fp);
        auto fr = flood.run();
        PingPongParams pp;
        pp.samples = 500;
        pp.stack = NetStack::Dpdk;
        PingPong ping(bed.sim, "pp", a, b, pp);
        auto pr = ping.run();

        std::printf("  %-10s %12s %14s\n", "path", "PPS (M)",
                    "lat us");
        std::printf("  %-10s %12.2f %14.2f\n", "fast (PMD)",
                    fast.pps / 1e6, fast.lat_us);
        std::printf("  %-10s %12.2f %14.2f\n", "slow (tap)",
                    fr.pps / 1e6, pr.avgUs);
        note("paper: slow paths exist for testing only; not "
             "deployed due to low performance");
    }
    return 0;
}
