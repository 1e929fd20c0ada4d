#include "probes.hh"

#include <algorithm>
#include <chrono>
#include <memory>
#include <vector>

#include "base/checksum.hh"
#include "mem/dma_engine.hh"
#include "mem/guest_memory.hh"
#include "obs/flight_recorder.hh"
#include "obs/metric_registry.hh"
#include "obs/request_tracer.hh"
#include "sim/eventq.hh"
#include "sim/sim_object.hh"
#include "virtio/virtqueue.hh"

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;

/** Keeps results observable so the timed work is not elided. */
volatile std::uint64_t sink;

/**
 * Median over 7 batches of the host ns one call of @p body takes.
 * The untimed warm-up doubles the batch size until one batch takes
 * at least 20 ms, so every probe costs about the same wall time
 * however fast its call is.
 */
template <typename F>
double
nsPerCall(F &&body)
{
    auto batch = [&](std::uint64_t n) {
        auto t0 = Clock::now();
        for (std::uint64_t i = 0; i < n; ++i)
            body(i);
        return std::chrono::duration<double, std::nano>(Clock::now() -
                                                        t0)
            .count();
    };
    std::uint64_t iters = 1;
    while (batch(iters) < 20e6)
        iters *= 2;
    std::vector<double> ns;
    for (int b = 0; b < 7; ++b)
        ns.push_back(batch(iters) / double(iters));
    std::nth_element(ns.begin(), ns.begin() + 3, ns.end());
    return ns[3];
}

std::vector<std::uint8_t>
randomBytes(std::size_t n, std::uint64_t seed)
{
    std::vector<std::uint8_t> out(n);
    Gen g(seed);
    for (auto &b : out)
        b = std::uint8_t(g.next());
    return out;
}

} // namespace

std::map<std::string, double>
runProbes()
{
    std::map<std::string, double> p;
    const auto block = randomBytes(4 * KiB, 7);

    // Checksums over one 4 KiB block, as DMA ECRC and DIF see it.
    p["host.crc32c_ns_per_kib"] =
        nsPerCall([&](std::uint64_t) {
            sink = sink + crc32c(block.data(), block.size());
        }) /
        4.0;
    p["host.crc16_ns_per_kib"] =
        nsPerCall([&](std::uint64_t) {
            for (std::size_t s = 0; s < block.size(); s += 512)
                sink = sink + crc16T10dif(block.data() + s, 512);
        }) /
        4.0;

    // One virtio-blk shaped transfer (header, 4 KiB data, status)
    // through DmaEngine::copyv, stepped to completion. The engine
    // checksums the data at source and destination even with ECRC
    // checking off; attribution charges that part to checksum.
    {
        Simulation sim(1);
        GuestMemory a("probe.a", MiB), b("probe.b", MiB);
        DmaEngine dma(sim, "probe.dma", Bandwidth::gbps(50));
        p["host.dma_copyv_ns"] = nsPerCall([&](std::uint64_t) {
            bool done = false;
            dma.copyv({{&a, 0, &b, 0, 16},
                       {&a, 4096, &b, 4096, 4096},
                       {&a, 8192, &b, 8192, 1}},
                      [&done] { done = true; });
            while (!done)
                sim.eventq().step();
        });
    }

    // EventQueue schedule + step with 64 other events pending.
    {
        EventQueue q;
        std::vector<std::unique_ptr<EventFunctionWrapper>> parked;
        for (int i = 0; i < 64; ++i) {
            parked.push_back(std::make_unique<EventFunctionWrapper>(
                [] {}, "parked"));
            q.schedule(parked.back().get(), maxTick / 2 + Tick(i));
        }
        std::uint64_t fired = 0;
        EventFunctionWrapper ev([&fired] { ++fired; }, "probe");
        p["host.eventq_ns_per_event"] =
            nsPerCall([&](std::uint64_t) {
                q.schedule(&ev, q.curTick() + 1);
                q.step();
            });
        sink = sink + fired;
        for (auto &e : parked)
            q.deschedule(e.get());
    }

    // One request cycle on a 256-entry virtqueue: driver submit,
    // device pop, device pushUsed, driver collectUsed.
    {
        GuestMemory mem("probe.vq", MiB);
        auto layout = virtio::VringLayout::contiguous(256, 0);
        virtio::VirtQueueDriver drv(mem, layout);
        virtio::VirtQueueDevice dev(mem, layout);
        const Addr buf = 64 * KiB;
        p["host.virtqueue_cycle_ns"] =
            nsPerCall([&](std::uint64_t i) {
                auto head =
                    drv.submit({{buf, 16, false}},
                               {{buf + 4096, 4096, true},
                                {buf + 8192, 1, true}},
                               i);
                auto chain = dev.pop();
                if (head && chain)
                    dev.pushUsed(chain->head, 4097);
                sink = sink + drv.collectUsed().size();
            });
    }

    // Constructing (and releasing) a 32 MiB GuestMemory, the size
    // of one compute board.
    p["host.guest_memory_ns_per_mib"] =
        nsPerCall([&](std::uint64_t) {
            GuestMemory m("probe.board", 32 * MiB);
            sink = sink + m.size();
        }) /
        32.0;

    {
        obs::MetricRegistry reg;
        obs::FlightRecorder fr("probe.flight", reg, 1024);
        p["host.flight_record_ns"] =
            nsPerCall([&](std::uint64_t i) {
                fr.record(Tick(i), obs::FlightEvent::DoorbellAccept, 0,
                          0, i, i);
            });
    }

    // RequestTracer: one flow through all six stamped stages.
    {
        obs::MetricRegistry reg;
        obs::RequestTracer tr("probe.tracer", reg);
        const obs::Stage stages[] = {
            obs::Stage::GuestPost,  obs::Stage::ShadowSync,
            obs::Stage::PollPickup, obs::Stage::Service,
            obs::Stage::CompleteDma, obs::Stage::GuestIrq};
        Tick now = 0;
        p["host.tracer_stamp_ns"] =
            nsPerCall([&](std::uint64_t i) {
                auto key = obs::RequestTracer::flowKey(
                    0, 0, std::uint16_t(i % 256));
                for (obs::Stage s : stages)
                    tr.stamp(key, s, now += 100);
            }) /
            6.0;
    }
    return p;
}

} // namespace perfbench
