/**
 * @file
 * Microbenchmarks (google-benchmark) of the simulator's hot paths:
 * vring serialization, virtqueue submit/pop/complete cycles, the
 * event queue, the DMA engine, the integrity checksums, the pool
 * allocator, and one full guest-to-guest packet round trip. These
 * measure *simulator* performance (host wall time), not simulated
 * time — they bound how large an experiment the harness can run.
 */

#include <benchmark/benchmark.h>

#include "base/checksum.hh"
#include "bench/common.hh"
#include "hw/cpu_executor.hh"
#include "mem/pool_allocator.hh"
#include "virtio/virtqueue.hh"
#include "workloads/guest_iface.hh"

using namespace bmhive;

namespace {

void
BM_VringDescReadWrite(benchmark::State &state)
{
    GuestMemory mem("m", 64 * KiB);
    auto layout = virtio::VringLayout::contiguous(256, 0);
    virtio::VringDesc d{0x1000, 512, virtio::VRING_DESC_F_NEXT, 1};
    std::uint16_t i = 0;
    for (auto _ : state) {
        layout.writeDesc(mem, i % 256, d);
        auto r = layout.readDesc(mem, i % 256);
        benchmark::DoNotOptimize(r);
        ++i;
    }
}
BENCHMARK(BM_VringDescReadWrite);

void
BM_VirtqueueCycle(benchmark::State &state)
{
    GuestMemory mem("m", 1 * MiB);
    auto layout = virtio::VringLayout::contiguous(256, 0x1000);
    virtio::VirtQueueDriver drv(mem, layout);
    virtio::VirtQueueDevice dev(mem, layout);
    for (auto _ : state) {
        auto head = drv.submit({{0x20000, 64, false}}, {}, 1);
        auto chain = dev.pop();
        dev.pushUsed(chain->head, 0);
        auto done = drv.collectUsed();
        benchmark::DoNotOptimize(head);
        benchmark::DoNotOptimize(done);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_VirtqueueCycle);

void
BM_VirtqueueIndirectCycle(benchmark::State &state)
{
    GuestMemory mem("m", 1 * MiB);
    auto layout = virtio::VringLayout::contiguous(256, 0x1000);
    virtio::VirtQueueDriver drv(mem, layout, true, 0x80000);
    virtio::VirtQueueDevice dev(mem, layout);
    for (auto _ : state) {
        auto head = drv.submit(
            {{0x20000, 16, false}, {0x21000, 4096, false}},
            {{0x22000, 1, true}}, 1);
        benchmark::DoNotOptimize(head);
        auto chain = dev.pop();
        dev.pushUsed(chain->head, 1);
        auto done = drv.collectUsed();
        benchmark::DoNotOptimize(done);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_VirtqueueIndirectCycle);

void
BM_EventQueueScheduleRun(benchmark::State &state)
{
    for (auto _ : state) {
        state.PauseTiming();
        EventQueue q;
        std::vector<std::unique_ptr<EventFunctionWrapper>> evs;
        Rng rng(1);
        for (int i = 0; i < 1000; ++i)
            evs.push_back(std::make_unique<EventFunctionWrapper>(
                [] {}, "e"));
        state.ResumeTiming();
        for (int i = 0; i < 1000; ++i)
            q.schedule(evs[i].get(),
                       Tick(rng.uniformInt(0, 1000000)));
        q.run();
    }
    state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_EventQueueScheduleRun);

void
BM_CpuExecutorRun(benchmark::State &state)
{
    // One modelled CPU hop per iteration: CpuExecutor::run with a
    // 32-byte capture (past std::function's 16-byte inline buffer)
    // on a core named like a guest's, scheduled as a one-shot and
    // stepped. The baseline for pooling one-shots.
    Simulation sim;
    hw::CpuExecutor cpu(sim, "server.guest0.board.t0");
    std::uint64_t a = 1, b = 2, c = 3, sink = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(cpu.run(
            nsToTicks(100), [&sink, a, b, c] { sink += a + b + c; }));
        sim.eventq().step();
    }
    benchmark::DoNotOptimize(sink);
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CpuExecutorRun);

void
BM_DmaEngineCopy4K(benchmark::State &state)
{
    Simulation sim;
    GuestMemory src("s", 1 * MiB), dst("d", 1 * MiB);
    DmaEngine dma(sim, "dma", Bandwidth::gbps(50));
    for (auto _ : state) {
        dma.copy(src, 0, dst, 0, 4096, {});
        sim.run();
    }
    state.SetBytesProcessed(state.iterations() * 4096);
}
BENCHMARK(BM_DmaEngineCopy4K);

std::vector<std::uint8_t>
randomBlock()
{
    std::vector<std::uint8_t> block(4096);
    Rng rng(3);
    for (auto &b : block)
        b = std::uint8_t(rng.uniformInt(0, 255));
    return block;
}

void
BM_Crc32c4K(benchmark::State &state)
{
    // One DMA ECRC pass over a 4 KiB transfer.
    const auto block = randomBlock();
    for (auto _ : state)
        benchmark::DoNotOptimize(crc32c(block.data(), block.size()));
    state.SetBytesProcessed(state.iterations() * 4096);
}
BENCHMARK(BM_Crc32c4K);

void
BM_Crc16T10Dif4K(benchmark::State &state)
{
    // The eight DIF guard tags of one 4 KiB block.
    const auto block = randomBlock();
    for (auto _ : state) {
        for (std::size_t s = 0; s < block.size(); s += 512)
            benchmark::DoNotOptimize(crc16T10dif(block.data() + s, 512));
    }
    state.SetBytesProcessed(state.iterations() * 4096);
}
BENCHMARK(BM_Crc16T10Dif4K);

void
BM_PoolAllocatorChurn(benchmark::State &state)
{
    PoolAllocator pool(0, 16 * MiB);
    std::vector<Addr> live;
    Rng rng(2);
    for (auto _ : state) {
        if (live.size() < 64 && rng.chance(0.6)) {
            Addr a = pool.alloc(rng.uniformInt(64, 8192), 16);
            if (a != PoolAllocator::nullAddr)
                live.push_back(a);
        } else if (!live.empty()) {
            std::size_t i =
                std::size_t(rng.uniformInt(0, live.size() - 1));
            pool.free(live[i]);
            live[i] = live.back();
            live.pop_back();
        }
    }
    for (Addr a : live)
        pool.free(a);
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PoolAllocatorChurn);

void
BM_PsimWindowScaling(benchmark::State &state)
{
    // Parallel-core scaling: 8 event partitions each running a
    // self-rescheduling event chain with rng work, driven by N
    // worker threads under a generous lookahead (the chains are
    // independent, so windows are wide and the barrier cost
    // amortizes). items/sec ~= events per host second; the
    // speedup at 8 threads vs 1 is the scaling headline — bounded
    // by the machine's core count, so single-core CI shows ~1x.
    const unsigned threads = unsigned(state.range(0));
    const unsigned parts = 8;
    const Tick step = nsToTicks(500);
    std::uint64_t events = 0;
    for (auto _ : state) {
        state.PauseTiming();
        Simulation sim(7);
        psim::Params pp;
        pp.threads = threads;
        pp.lookahead = usToTicks(100);
        sim.enablePartitions(parts, pp);
        struct Chain
        {
            EventQueue *q = nullptr;
            Rng *rng = nullptr;
            std::unique_ptr<EventFunctionWrapper> ev;
            std::uint64_t count = 0;
        };
        std::vector<Chain> chains(parts);
        for (unsigned p = 0; p < parts; ++p) {
            Chain &c = chains[p];
            c.q = &sim.partitionQueue(p + 1);
            c.rng = &sim.partitionRng(p + 1);
            c.ev = std::make_unique<EventFunctionWrapper>(
                [&c, step] {
                    c.count += 1 + c.rng->uniformInt(0, 1);
                    c.q->schedule(c.ev.get(),
                                  c.q->curTick() + step);
                },
                "chain");
            c.q->schedule(c.ev.get(), step);
        }
        state.ResumeTiming();
        sim.run(msToTicks(2.0));
        state.PauseTiming();
        for (auto &c : chains) {
            events += c.count;
            if (c.ev->scheduled())
                c.q->deschedule(c.ev.get());
        }
        state.ResumeTiming();
    }
    state.SetItemsProcessed(std::int64_t(events));
}
BENCHMARK(BM_PsimWindowScaling)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond);

void
BM_FullPacketRoundTrip(benchmark::State &state)
{
    // One guest-to-guest packet through the complete stack:
    // driver -> IO-Bond -> bm-hypervisor -> vSwitch -> ... -> MSI.
    bench::Testbed bed(1);
    auto a = bed.bmGuest(0xA, 0, false);
    auto b = bed.bmGuest(0xB, 0, false);
    bed.sim.run(bed.sim.now() + msToTicks(1));
    std::uint64_t got = 0;
    b.net->setRxHandler([&](const cloud::Packet &) { ++got; });
    std::uint64_t seq = 0;
    for (auto _ : state) {
        cloud::Packet p;
        p.src = 0xA;
        p.dst = 0xB;
        p.len = 64;
        p.seq = seq++;
        a.net->sendPacket(p, true, a.cpu(1));
        bed.sim.run(bed.sim.now() + msToTicks(1));
    }
    state.SetItemsProcessed(state.iterations());
    if (got != seq)
        state.SkipWithError("packet loss in round trip");
}
BENCHMARK(BM_FullPacketRoundTrip)->Unit(benchmark::kMicrosecond);

void
BM_SimulatedPpsThroughput(benchmark::State &state)
{
    // How fast the simulator chews through a PPS experiment:
    // items/sec here ~= simulated packets per host second.
    bench::Testbed bed(2);
    auto a = bed.bmGuest(0xA, 0);
    auto b = bed.bmGuest(0xB, 0);
    bed.sim.run(bed.sim.now() + msToTicks(1));
    std::uint64_t delivered = 0;
    b.net->setRxHandler([&](const cloud::Packet &) { ++delivered; });
    for (auto _ : state) {
        std::uint64_t before = delivered;
        for (int i = 0; i < 32; ++i) {
            cloud::Packet p;
            p.src = 0xA;
            p.dst = 0xB;
            p.len = 64;
            a.net->sendPacket(p, false, a.cpu(1));
        }
        a.net->kickTx(a.cpu(1));
        bed.sim.run(bed.sim.now() + usToTicks(100));
        benchmark::DoNotOptimize(delivered - before);
    }
    state.SetItemsProcessed(state.iterations() * 32);
}
BENCHMARK(BM_SimulatedPpsThroughput);

} // namespace

int
main(int argc, char **argv)
{
    // Strip our flags before google-benchmark sees (and rejects)
    // them; dumps --metrics-out on exit like every other bench.
    bmhive::bench::Session session(argc, argv);
    // --quick (bench_smoke): shrink every benchmark's sampling
    // window; results stay shaped right, just noisier.
    std::vector<char *> args(argv, argv + argc);
    char quick_min[] = "--benchmark_min_time=0.02";
    if (bmhive::bench::Session::quick)
        args.push_back(quick_min);
    args.push_back(nullptr);
    int ac = int(args.size()) - 1;
    benchmark::Initialize(&ac, args.data());
    if (benchmark::ReportUnrecognizedArguments(ac, args.data()))
        return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
}
