/**
 * @file
 * Quickstart: the smallest complete BM-Hive session.
 *
 * Builds one bare-metal server with cloud networking and storage,
 * provisions two bm-guests, and shows the IO-Bond datapath at
 * work: the Fig. 6 events of a packet crossing the shadow vrings,
 * and of a block read served by the cloud storage, as alice's
 * flight recorder saw them.
 *
 * Build and run:
 *   cmake -B build -G Ninja && cmake --build build
 *   ./build/examples/quickstart
 */

#include <cstdio>

#include "bmhive.hh"

using namespace bmhive;

namespace {

/** Print the events @p fr recorded since the previous call. */
void
printNewEvents(const obs::FlightRecorder &fr, std::uint64_t &seen)
{
    std::uint64_t fresh = fr.recorded() - seen;
    seen = fr.recorded();
    if (fresh == 0)
        return;
    std::printf("  -- %s --\n", fr.path().c_str());
    for (const auto &r : fr.lastEvents(fresh))
        std::printf("  [%8.2f us] %-16s fn=%u q=%u a=%llu b=%llu\n",
                    ticksToUs(r.at), obs::flightEventName(r.ev),
                    unsigned(r.fn), unsigned(r.q),
                    (unsigned long long)r.a,
                    (unsigned long long)r.b);
}

} // namespace

int
main()
{
    // Everything lives in one deterministic simulation.
    Simulation sim(/*seed=*/42);

    // The cloud substrate: a DPDK-style vSwitch and SSD-backed
    // block storage reachable over the datacenter network.
    cloud::VSwitch vswitch(sim, "vswitch");
    cloud::BlockService storage(sim, "storage");
    cloud::Volume &volume = storage.createVolume("demo-vol", 64 * MiB);

    // One BM-Hive server: base board + compute board slots.
    core::BmServerParams params;
    params.maxBoards = 4;
    core::BmHiveServer server(sim, "server", vswitch, &storage,
                              params);

    // Provision two bm-guests. provision() powers the compute
    // board, enumerates PCI, starts the virtio drivers, and
    // connects the bm-hypervisor backend.
    core::BmGuest &alice = server.provision(
        core::InstanceCatalog::evaluated(), /*mac=*/0xA11CE,
        &volume);
    core::BmGuest &bob = server.provision(
        core::InstanceCatalog::evaluated(), /*mac=*/0xB0B);
    sim.run(sim.now() + msToTicks(1)); // let rx rings settle

    std::printf("provisioned: %s (%s) and %s\n",
                alice.instance().name.c_str(),
                alice.instance().cpu.model.c_str(),
                bob.instance().name.c_str());

    // Watch the IO-Bond datapath (the 14 steps of paper Fig. 6)
    // through alice's always-on flight recorder.
    const obs::FlightRecorder &flight = *alice.flight();
    std::uint64_t seen = flight.recorded();

    // --- 1. Send a packet from alice to bob ---
    std::printf("\n== tx: alice -> bob (64B UDP) ==\n");
    bob.net().setRxHandler([&](const cloud::Packet &p) {
        std::printf("  [%8.2f us] bob received seq=%llu "
                    "(latency %.2f us)\n",
                    ticksToUs(sim.now()),
                    (unsigned long long)p.seq,
                    ticksToUs(sim.now() - p.created));
    });
    cloud::Packet pkt;
    pkt.src = 0xA11CE;
    pkt.dst = 0xB0B;
    pkt.len = cloud::udpFrameBytes(64);
    pkt.created = sim.now();
    pkt.seq = 1;
    alice.net().sendPacket(pkt, /*kick_now=*/true,
                           alice.os().cpu(0));
    sim.run(sim.now() + msToTicks(2));
    printNewEvents(flight, seen);

    // --- 2. Read a block from the cloud volume ---
    std::printf("\n== blk: alice reads 4 KiB at sector 0 ==\n");
    Tick issued = sim.now();
    alice.blk()->read(0, 4 * KiB, alice.os().cpu(0),
                      [&](std::uint8_t status, Addr) {
                          std::printf(
                              "  [%8.2f us] read complete, "
                              "status=%u, latency %.1f us\n",
                              ticksToUs(sim.now()), status,
                              ticksToUs(sim.now() - issued));
                      });
    sim.run(sim.now() + msToTicks(5));
    printNewEvents(flight, seen);

    std::printf("\nIO-Bond counters: %llu doorbells, %llu chains "
                "forwarded, %llu completions, %llu bytes DMAd\n",
                (unsigned long long)alice.bond().notifications(),
                (unsigned long long)alice.bond().chainsForwarded(),
                (unsigned long long)
                    alice.bond().completionsReturned(),
                (unsigned long long)alice.bond().dma().bytesMoved());
    return 0;
}
