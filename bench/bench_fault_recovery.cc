/**
 * @file
 * Fault-recovery sweep: fio random-read availability on a bm-guest
 * as the injected fault rate rises. Each run draws a deterministic
 * random schedule (DMA errors, link flaps, dropped doorbells, lost
 * and delayed block I/O, port stalls, bm-hypervisor stalls and
 * crashes) over the measurement window with the server watchdog
 * armed; availability is achieved IOPS relative to the fault-free
 * baseline. Recovery time (crash to respawned backend polling) is
 * reported from the watchdog's latency recorder.
 *
 * A second sweep raises the *corruption* rate (DMA bit flips,
 * shadow-vring metadata rot, fabric corruption on both the storage
 * and network legs) while every write is read back and compared
 * byte-for-byte and every delivered frame is checksum-verified.
 * Contained failures (IOERR, dropped frames) are fine; an OK
 * completion carrying wrong bytes is silent corruption and the
 * bench exits 1. Run with --integrity=off to see what the
 * integrity layer is for.
 */

#include <cstdint>
#include <functional>

#include "bench/common.hh"
#include "cloud/packet.hh"
#include "fault/fault_injector.hh"
#include "workloads/fio.hh"

using namespace bmhive;
using namespace bmhive::bench;
using namespace bmhive::workloads;

int
main(int argc, char **argv)
{
    Session session(argc, argv);
    banner("fault-recovery",
           "I/O availability vs fault rate (fio 8 jobs, 4 KiB "
           "random read, watchdog armed)");

    std::printf("  %-10s %10s %8s %10s %7s %9s %11s\n",
                "faults/s", "IOPS", "avail%", "p99 us", "resets",
                "respawns", "rec max us");

    const Tick window = msToTicks(100.0);
    double base_iops = 0.0;
    for (unsigned events : {0u, 4u, 12u, 24u, 48u}) {
        Testbed bed(8800 + events);
        auto g = bed.bmGuest(0xaa, 64);
        bed.sim.run(bed.sim.now() + msToTicks(1.0));

        fault::FaultInjector chaos(bed.sim, "chaos");
        if (events > 0) {
            std::vector<fault::FaultInjector::RandomTarget> t = {
                {"server.guest0.iobond",
                 {fault::FaultKind::LinkFlap,
                  fault::FaultKind::DropDoorbell}},
                {"server.guest0.iobond.dma",
                 {fault::FaultKind::DmaCorrupt,
                  fault::FaultKind::DmaFail}},
                {"server.guest0.hv",
                 {fault::FaultKind::HvStall,
                  fault::FaultKind::HvCrash}},
                {"storage",
                 {fault::FaultKind::BlockLose,
                  fault::FaultKind::BlockDelay}},
                {"vswitch", {fault::FaultKind::PortStall}},
            };
            chaos.randomPlan(1000 + events, t, window, events);
            chaos.arm();
        }
        bed.server.startWatchdog(msToTicks(1.0));

        FioParams p;
        p.jobs = 8;
        p.blockBytes = 4 * KiB;
        p.warmup = msToTicks(5.0);
        p.window = window;
        FioRunner fio(bed.sim, "fio", g, p);
        FioResult r = fio.run();
        // Drain retries and any outstanding respawn.
        bed.sim.run(bed.sim.now() + msToTicks(30.0));

        if (events == 0)
            base_iops = r.iops;
        double avail =
            base_iops > 0.0 ? 100.0 * r.iops / base_iops : 0.0;
        auto &rec = bed.sim.metrics().latency(
            "server.watchdog.recovery_ticks");
        auto &hv = bed.server.guest(0).hypervisor();
        std::uint64_t resets = bed.server.guest(0).net().resets() +
                               (bed.server.guest(0).blk()
                                    ? bed.server.guest(0)
                                          .blk()
                                          ->resets()
                                    : 0);
        std::printf(
            "  %-10.0f %10.0f %8.1f %10.1f %7llu %9u %11.1f\n",
            double(events) / ticksToSec(window), r.iops, avail,
            r.p99Us, (unsigned long long)resets, hv.respawns(),
            rec.count() > 0 ? rec.maxUs() : 0.0);
    }
    note("availability degrades gracefully with fault rate; "
         "crash recovery is bounded by the watchdog period");

    // ------------------------------------------------------------
    // Corruption-rate sweep: end-to-end verified payloads under a
    // rising rate of injected corruption across every datapath
    // layer the integrity ladder covers.
    banner("corruption-storm",
           "verified write/read pairs and checksummed frames vs "
           "corruption rate");
    std::printf("  integrity %s\n",
                Session::integrityOn ? "on" : "off");
    std::printf("  %-10s %6s %7s %6s %9s %7s %6s %7s\n",
                "corrupt/s", "pairs", "silent", "ioerr", "detected",
                "healed", "escal", "resets");

    int rc = 0;
    const Tick cwin = Session::window(msToTicks(60.0));
    const unsigned pairs = Session::quick ? 48 : 240;
    const unsigned total_pkts = Session::quick ? 100 : 400;
    for (unsigned events : {0u, 8u, 24u, 64u}) {
        Testbed bed(9900 + events);
        auto g = bed.bmGuest(0xaa, 64);
        auto peer = bed.bmGuest(0xbb, 0);
        bed.sim.run(bed.sim.now() + msToTicks(1.0));

        fault::FaultInjector storm(bed.sim, "storm");
        if (events > 0) {
            std::vector<fault::FaultInjector::RandomTarget> t = {
                {"server.guest0.iobond.dma",
                 {fault::FaultKind::DmaCorrupt}},
                {"server.guest0.iobond",
                 {fault::FaultKind::DmaCorruptMeta}},
                {"storage", {fault::FaultKind::FabricCorrupt}},
                {"vswitch", {fault::FaultKind::FabricCorrupt}},
            };
            storm.randomPlan(3000 + events, t, cwin, events);
            storm.arm();
        }

        // Net leg: every frame that reaches the peer must verify.
        unsigned rx_bad = 0, sent = 0;
        peer.net->setRxHandler([&](const cloud::Packet &p) {
            if (!cloud::packetCsumOk(p))
                ++rx_bad;
        });
        std::function<void()> net_pump = [&] {
            for (unsigned i = 0; i < 8 && sent < total_pkts; ++i) {
                cloud::Packet p;
                p.src = 0xaa;
                p.dst = 0xbb;
                p.len = cloud::udpFrameBytes(1200);
                p.seq = sent;
                p.created = bed.sim.now();
                // Sealed here, not only by an integrity-on driver,
                // so the peer's check sees every flip either way.
                cloud::sealPacket(p);
                if (!g.net->sendPacket(p, false, g.cpu(1)))
                    break;
                ++sent;
            }
            g.net->kickTx(g.cpu(1));
            if (sent < total_pkts) {
                auto *ev = new OneShotEvent(net_pump, "net_pump");
                bed.sim.eventq().schedule(
                    ev, bed.sim.now() + usToTicks(120));
            }
        };
        net_pump();

        // Block leg: 4 jobs, each write is read back and compared.
        // A completion may report a contained IOERR; an OK read
        // with wrong bytes is silent corruption.
        unsigned silent = 0, ioerr = 0, next_id = 0, done = 0;
        std::function<void(unsigned)> issue;
        std::function<void(unsigned)> read_back;
        read_back = [&](unsigned id) {
            bool ok = g.blk->read(
                8 + id * 8, 4096, g.cpu(0),
                [&, id](std::uint8_t st, Addr data) {
                    if (st != 0) {
                        ++ioerr;
                    } else {
                        auto got =
                            g.os->memory().readBlob(data, 4096);
                        auto want = std::uint8_t(17 + id * 13);
                        for (std::uint8_t byte : got)
                            if (byte != want) {
                                ++silent;
                                break;
                            }
                    }
                    ++done;
                    if (next_id < pairs)
                        issue(next_id++);
                });
            if (!ok) {
                auto *ev = new OneShotEvent(
                    [&, id] { read_back(id); }, "rd_retry");
                bed.sim.eventq().schedule(
                    ev, bed.sim.now() + usToTicks(200));
            }
        };
        issue = [&](unsigned id) {
            std::vector<std::uint8_t> data(
                4096, std::uint8_t(17 + id * 13));
            bool ok = g.blk->write(
                8 + id * 8, 4096, &data, g.cpu(0),
                [&, id](std::uint8_t st, Addr) {
                    if (st != 0) {
                        ++ioerr;
                        ++done;
                        if (next_id < pairs)
                            issue(next_id++);
                        return;
                    }
                    read_back(id);
                });
            if (!ok) {
                auto *ev = new OneShotEvent(
                    [&, id] { issue(id); }, "wr_retry");
                bed.sim.eventq().schedule(
                    ev, bed.sim.now() + usToTicks(200));
            }
        };
        for (unsigned j = 0; j < 4 && next_id < pairs; ++j)
            issue(next_id++);

        bed.sim.run(bed.sim.now() + cwin);
        for (int spin = 0;
             spin < 400 && (done < pairs || sent < total_pkts);
             ++spin)
            bed.sim.run(bed.sim.now() + msToTicks(1.0));

        auto &bond = bed.server.guest(0).bond();
        auto &m = bed.sim.metrics();
        std::uint64_t detected =
            bond.dma().ecrcDetected() + bond.metaFaultsInjected() +
            m.counter("vswitch.integrity.frame_drops").value() +
            g.svc->difDetects() + g.net->rxCsumDrops() +
            peer.net->rxCsumDrops();
        std::uint64_t healed = bond.dma().ecrcHealed() +
                               bond.scrubRepairs() +
                               g.svc->difRetries();
        if (silent + rx_bad > 0) {
            rc = 1;
            std::printf("  silent breakdown: %u blk reads, %u rx "
                        "frames\n", silent, rx_bad);
        }
        std::printf(
            "  %-10.0f %6u %7u %6u %9llu %7llu %6llu %7llu\n",
            double(events) / ticksToSec(cwin), done,
            silent + rx_bad, ioerr, (unsigned long long)detected,
            (unsigned long long)healed,
            (unsigned long long)bed.server.integrityEscalations(),
            (unsigned long long)bond.integrityQueueResets());
    }
    if (rc)
        std::printf("  FAIL: corrupted payloads were delivered "
                    "silently\n");
    note("contained errors are allowed; silent delivery exits 1 "
         "(expected under --integrity=off)");
    return rc;
}
