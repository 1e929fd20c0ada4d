/**
 * @file
 * The paper's headline comparison as a program: the same NGINX
 * workload served by a bm-guest and by a similarly configured
 * vm-guest, using the same guest driver code on both — only the
 * platform underneath differs.
 */

#include <cstdio>
#include <string>

#include "cloud/block_service.hh"
#include "cloud/vswitch.hh"
#include "core/bmhive_server.hh"
#include "vmsim/vm_guest.hh"
#include "workloads/app_server.hh"

using namespace bmhive;
using namespace bmhive::workloads;

namespace {

AppBenchResult
serveOn(GuestContext g, Simulation &sim, cloud::VSwitch &sw)
{
    AppBenchParams params;
    params.clients = 200;
    params.window = msToTicks(150);
    AppServerBench bench(sim, "ab", g, sw, 0xC11E,
                         AppProfile::nginx(), params);
    return bench.run();
}

} // namespace

int
main()
{
    std::printf("NGINX, 200 concurrent clients, KeepAlive off\n\n");

    AppBenchResult bm, vm;
    std::string stage_report;
    {
        Simulation sim(11);
        cloud::VSwitch vswitch(sim, "vswitch");
        cloud::BlockService storage(sim, "storage");
        core::BmServerParams sp;
        sp.maxBoards = 2;
        core::BmHiveServer server(sim, "server", vswitch, &storage,
                                  sp);
        auto &g = server.provision(
            core::InstanceCatalog::evaluated(), 0xAA);
        // Per-stage request spans on the bare-metal side (paper
        // Fig. 6 datapath), collected for a Chrome trace.
        g.hypervisor().enableIoTracing();
        obs::FlightRecorder spans("server.guest0.spans", sim.metrics(),
                                  1 << 16);
        g.hypervisor().netTracer()->setSpanTarget(&spans);
        g.hypervisor().blkTracer()->setSpanTarget(&spans);
        sim.run(sim.now() + msToTicks(1));
        bm = serveOn(GuestContext::of(g), sim, vswitch);

        auto *tracer = g.hypervisor().netTracer();
        if (tracer->completed() > 0)
            stage_report = tracer->breakdown();
        const char *trace_path = "bm_vs_vm_trace.json";
        spans.writeChromeJson(trace_path);
        std::printf("wrote %zu trace events to %s "
                    "(open in chrome://tracing)\n\n",
                    spans.size(), trace_path);
    }
    {
        Simulation sim(12);
        cloud::VSwitch vswitch(sim, "vswitch");
        vmsim::VmGuestParams p;
        p.mac = 0xAA;
        vmsim::VmGuest guest(sim, "vm0", p, vswitch);
        guest.bringUp();
        sim.run(sim.now() + msToTicks(1));
        vm = serveOn(GuestContext::of(guest), sim, vswitch);
    }

    std::printf("%-10s %12s %14s %12s\n", "platform", "req/s",
                "mean resp ms", "p99 ms");
    std::printf("%-10s %12.0f %14.2f %12.2f\n", "bm-guest",
                bm.rps, bm.avgMs, bm.p99Ms);
    std::printf("%-10s %12.0f %14.2f %12.2f\n", "vm-guest",
                vm.rps, vm.avgMs, vm.p99Ms);
    std::printf("\nbm-guest serves %.0f%% more requests per "
                "second;\nits mean response time is %.0f%% "
                "shorter.\n",
                100.0 * (bm.rps / vm.rps - 1.0),
                100.0 * (1.0 - bm.avgMs / vm.avgMs));
    std::printf("(paper section 4.4: ~50-60%% more RPS, ~30%% "
                "shorter response time)\n");
    if (!stage_report.empty()) {
        std::printf("\nbm-guest tx packet path, per IO-Bond stage "
                    "(doorbell -> completion DMA; tx MSIs are "
                    "suppressed):\n%s",
                    stage_report.c_str());
    }
    return 0;
}
