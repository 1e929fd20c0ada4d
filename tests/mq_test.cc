/**
 * @file
 * Multi-queue virtio tests (ctest label "mq"):
 *
 *  - queue-count negotiation end to end: driver, IO-Bond function,
 *    backend service and per-queue scheduling units all agree;
 *  - a guest asking for more pairs than offered is clamped and
 *    counted as a contained BadQueuePairs fault;
 *  - RSS steering is deterministic (same tuple -> same queue, same
 *    seed -> same spread) and actually spreads flows;
 *  - per-queue MSI vector routing: blk-mq completions from four
 *    vCPUs ride four submission queues and four vectors;
 *  - passthrough bind/unbind round-trip, including demotion to
 *    shared scheduling when the guest is deprioritized;
 *  - hostile out-of-range queue selectors are contained faults;
 *  - same-seed 4-queue runs produce byte-identical metrics, and
 *    every visit of every unit records its batch;
 *  - doorbell-budget regression: a 4-queue guest gets the same
 *    per-function doorbell allowance as a 1-queue guest.
 */

#include <gtest/gtest.h>

#include <array>
#include <string>
#include <vector>

#include "bench/common.hh"
#include "core/instance_catalog.hh"
#include "fault/guest_fault.hh"
#include "mq/rss.hh"
#include "pci/config_space.hh"
#include "virtio/virtio_net.hh"
#include "virtio/virtio_pci.hh"
#include "workloads/net_perf.hh"

namespace bmhive {
namespace {

using fault::GuestFaultKind;

/** Shared-scheduler server with multi-queue devices. */
core::BmServerParams
mqParams(unsigned net_pairs, unsigned blk_queues,
         unsigned poll_cores = 2, bool passthrough = false)
{
    core::BmServerParams p;
    p.maxBoards = 4;
    p.schedMode = core::SchedMode::Shared;
    p.pollCores = poll_cores;
    p.netQueuePairs = net_pairs;
    p.blkQueues = blk_queues;
    p.mqPassthrough = passthrough;
    return p;
}

/** Programmed BAR0 of the bm-guest net function (slot 3). */
Addr
netBar(bench::Testbed &bed, unsigned guest = 0)
{
    auto &bus = bed.server.guest(guest).board().pciBus();
    return bus.configRead(3, pci::REG_BAR0, 4) &
           ~std::uint32_t(0xf);
}

/** Blast @p count packets a->b over @p flows flows; returns the
 *  number delivered to b. */
unsigned
exchange(bench::Testbed &bed, workloads::GuestContext &a,
         workloads::GuestContext &b, unsigned count,
         unsigned flows = 4)
{
    unsigned received = 0;
    b.net->setRxHandler(
        [&](const cloud::Packet &) { ++received; });
    for (unsigned i = 0; i < count; ++i) {
        cloud::Packet p;
        p.src = a.net->mac();
        p.dst = b.net->mac();
        p.len = cloud::udpFrameBytes(256);
        p.seq = i;
        p.flow = i % flows;
        p.created = bed.sim.now();
        EXPECT_TRUE(a.net->sendPacket(p, false, a.cpu(1)));
    }
    a.net->kickTx(a.cpu(1));
    bed.sim.run(bed.sim.now() + msToTicks(10));
    b.net->setRxHandler(nullptr);
    return received;
}

TEST(MqNegotiation, EveryLayerAgreesOnTheQueueCount)
{
    bench::Testbed bed(9100, mqParams(4, 4));
    auto a = bed.bmGuest(0xA0, 16);
    auto b = bed.bmGuest(0xB0, 16);
    bed.sim.run(bed.sim.now() + msToTicks(1));

    // Driver, IO-Bond function, backend, vSwitch RSS and the
    // scheduler's per-queue units all see the negotiated count.
    EXPECT_EQ(a.net->activeQueuePairs(), 4u);
    ASSERT_NE(a.blk, nullptr);
    EXPECT_EQ(a.blk->activeQueues(), 4u);

    auto &g = bed.server.guest(0);
    EXPECT_EQ(g.bond().function(0).activeQueuePairs(), 4u);
    EXPECT_EQ(g.hypervisor().service().netPairCount(), 4u);
    EXPECT_EQ(g.hypervisor().service().blkQueueCount(), 4u);
    EXPECT_TRUE(g.hypervisor().perQueueScheduled());
    EXPECT_EQ(bed.vswitch.portRssQueues(g.hypervisor().port()),
              4u);

    // And the negotiated device still moves real traffic.
    EXPECT_EQ(exchange(bed, a, b, 40, 8), 40u);
}

TEST(MqNegotiation, OverAskIsClampedAndCountedAsGuestFault)
{
    bench::Testbed bed(9110, mqParams(4, 1));
    bed.bmGuest(0xA1, 0);
    bed.sim.run(bed.sim.now() + msToTicks(1));

    auto &g = bed.server.guest(0);
    auto &bus = g.board().pciBus();
    Addr cfg = netBar(bed) + virtio::deviceCfgOffset;
    std::uint64_t before =
        g.bond().guestFaults(GuestFaultKind::BadQueuePairs);

    // Set-queue-pairs above the 4-pair offer: contained fault,
    // clamped to the offer (the driver trusts the read-back).
    bus.memWrite(cfg + virtio::VirtioNetConfig::currPairsOffset, 9,
                 2);
    EXPECT_EQ(g.bond().guestFaults(GuestFaultKind::BadQueuePairs),
              before + 1);
    EXPECT_EQ(g.bond().function(0).activeQueuePairs(), 4u);

    // Zero pairs is just as illegal; clamps to the single-queue
    // minimum.
    bus.memWrite(cfg + virtio::VirtioNetConfig::currPairsOffset, 0,
                 2);
    EXPECT_EQ(g.bond().guestFaults(GuestFaultKind::BadQueuePairs),
              before + 2);
    EXPECT_EQ(g.bond().function(0).activeQueuePairs(), 1u);

    // A legal re-commit needs no fault.
    bus.memWrite(cfg + virtio::VirtioNetConfig::currPairsOffset, 3,
                 2);
    EXPECT_EQ(g.bond().guestFaults(GuestFaultKind::BadQueuePairs),
              before + 2);
    EXPECT_EQ(g.bond().function(0).activeQueuePairs(), 3u);
}

TEST(MqRss, SteeringIsDeterministicAndSpreadsFlows)
{
    // Same tuple -> same queue, across calls and across instances.
    mq::RssTable t(4);
    mq::RssTable u(4);
    for (std::uint32_t flow = 0; flow < 64; ++flow) {
        unsigned q = t.queueFor(0xA0, 0xB0, flow);
        EXPECT_LT(q, 4u);
        EXPECT_EQ(q, t.queueFor(0xA0, 0xB0, flow));
        EXPECT_EQ(q, u.queueFor(0xA0, 0xB0, flow));
    }
    EXPECT_EQ(mq::toeplitzHash(1, 2, 3), mq::toeplitzHash(1, 2, 3));

    // Many flows actually spread over every queue.
    std::array<unsigned, 4> hits{};
    for (std::uint32_t flow = 0; flow < 256; ++flow)
        ++hits[t.queueFor(0xA0, 0xB0, flow)];
    for (unsigned q = 0; q < 4; ++q)
        EXPECT_GT(hits[q], 0u) << "queue " << q << " never hit";

    // Re-spreading (set-queue-pairs) keeps steering in range.
    t.resize(2);
    for (std::uint32_t flow = 0; flow < 64; ++flow)
        EXPECT_LT(t.queueFor(0xA0, 0xB0, flow), 2u);

    // The ethtool -X analog: one bucket repointed, others intact.
    mq::RssTable r(4);
    r.setEntry(0, 3);
    bool found = false;
    for (std::uint32_t flow = 0; flow < 1024 && !found; ++flow) {
        unsigned before = mq::RssTable(4).queueFor(0xC0, 0xD0, flow);
        unsigned after = r.queueFor(0xC0, 0xD0, flow);
        if (before != after) {
            EXPECT_EQ(after, 3u);
            found = true;
        }
    }
    EXPECT_TRUE(found);
}

TEST(MqBlk, PerVcpuQueuesCompleteOnTheirOwnVectors)
{
    bench::Testbed bed(9120, mqParams(1, 4));
    auto g = bed.bmGuest(0xA2, 16);
    bed.sim.run(bed.sim.now() + msToTicks(1));
    ASSERT_EQ(g.blk->activeQueues(), 4u);

    // One write per vCPU: blk-mq maps vCPU i -> queue i, so all
    // four submission queues and all four completion vectors are
    // exercised; a mis-routed MSI would strand its callback.
    std::array<bool, 4> ok{};
    std::vector<std::uint8_t> data(512, 0x5a);
    for (unsigned cpu = 0; cpu < 4; ++cpu) {
        ASSERT_TRUE(g.blk->write(
            8 * (cpu + 1), 512, &data, g.cpu(cpu),
            [&ok, cpu](std::uint8_t st, Addr) {
                ok[cpu] = (st == virtio::VIRTIO_BLK_S_OK);
            }));
    }
    bed.sim.run(bed.sim.now() + msToTicks(30));
    for (unsigned cpu = 0; cpu < 4; ++cpu)
        EXPECT_TRUE(ok[cpu]) << "vCPU " << cpu;
    EXPECT_EQ(g.blk->errors(), 0u);

    // Every blk queue is its own scheduling unit with its own
    // served counter (DWRR schedules queues, not guests).
    std::string json = bed.sim.metrics().toJson();
    for (unsigned q = 0; q < 4; ++q) {
        EXPECT_NE(json.find(".mq.blkq" + std::to_string(q)),
                  std::string::npos)
            << "queue " << q;
    }
}

TEST(MqPassthrough, BindUnbindRoundTrip)
{
    bench::Testbed bed(9130, mqParams(2, 2, 2, true));
    auto a = bed.bmGuest(0xA3, 16);
    auto b = bed.bmGuest(0xB3, 16);
    bed.sim.run(bed.sim.now() + msToTicks(1));

    auto &hv = bed.server.guest(0).hypervisor();
    EXPECT_TRUE(hv.mqPassthrough());
    EXPECT_TRUE(hv.perQueueScheduled());
    // 2 net pairs + 2 blk queues, each 1:1 on a dedicated poller.
    EXPECT_EQ(hv.passthroughQueues(), 4u);

    // I/O flows through the passthrough pollers.
    EXPECT_EQ(exchange(bed, a, b, 20), 20u);
    bool ok = false;
    std::vector<std::uint8_t> data(512, 0xa5);
    ASSERT_TRUE(a.blk->write(8, 512, &data, a.cpu(0),
                             [&ok](std::uint8_t st, Addr) {
                                 ok = (st ==
                                       virtio::VIRTIO_BLK_S_OK);
                             }));
    bed.sim.run(bed.sim.now() + msToTicks(30));
    EXPECT_TRUE(ok);

    // Deprioritizing below full weight demotes the queues back to
    // shared DWRR (a suspect guest must not keep dedicated cores);
    // restoring full weight re-promotes them.
    hv.setPollWeight(0.25);
    EXPECT_EQ(hv.passthroughQueues(), 0u);
    EXPECT_TRUE(hv.perQueueScheduled());
    EXPECT_EQ(exchange(bed, a, b, 20), 20u);

    hv.setPollWeight(1.0);
    EXPECT_EQ(hv.passthroughQueues(), 4u);

    // Explicit unbind/bind round-trip via the mode switch.
    hv.setMqPassthrough(false);
    EXPECT_EQ(hv.passthroughQueues(), 0u);
    hv.setMqPassthrough(true);
    EXPECT_EQ(hv.passthroughQueues(), 4u);
    EXPECT_EQ(exchange(bed, a, b, 20), 20u);

    std::string json = bed.sim.metrics().toJson();
    EXPECT_NE(json.find(".mq.passthrough_binds"),
              std::string::npos);
    EXPECT_NE(json.find(".mq.passthrough_demotions"),
              std::string::npos);
}

TEST(MqHostile, OutOfRangeQueueSelectorIsContained)
{
    bench::Testbed bed(9140, mqParams(4, 1));
    auto a = bed.bmGuest(0xA4, 0);
    auto b = bed.bmGuest(0xB4, 0);
    bed.sim.run(bed.sim.now() + msToTicks(1));

    auto &bond = bed.server.guest(0).bond();
    auto &bus = bed.server.guest(0).board().pciBus();
    std::uint64_t before =
        bond.guestFaults(GuestFaultKind::BadQueueIndex);

    // 4 pairs expose queues 0..7; selectors beyond that are
    // contained guest faults, not crashes.
    bus.memWrite(netBar(bed) + virtio::notifyRegionOffset, 50, 4);
    bus.memWrite(netBar(bed) + virtio::notifyRegionOffset, 8, 4);
    EXPECT_EQ(bond.guestFaults(GuestFaultKind::BadQueueIndex),
              before + 2);

    // The guest is throttled at worst, never killed, and honest
    // traffic still flows through all four pairs.
    EXPECT_NE(bed.server.guestHealth(0),
              core::GuestHealth::Quarantined);
    EXPECT_EQ(exchange(bed, a, b, 20, 8), 20u);
}

/** Every visit of every scheduling unit records its batch: per
 *  service, the poll.batch sample total equals poll.total. */
void
expectBatchPerVisit(obs::MetricRegistry &reg)
{
    const std::string total = ".poll.total";
    std::vector<std::string> services;
    reg.forEach([&](const std::string &name,
                    obs::MetricRegistry::Kind) {
        if (name.size() > total.size() &&
            name.compare(name.size() - total.size(), total.size(),
                         total) == 0)
            services.push_back(
                name.substr(0, name.size() - total.size()));
    });
    EXPECT_FALSE(services.empty());
    for (const auto &svc : services) {
        EXPECT_EQ(reg.histogram(svc + ".poll.batch").total(),
                  reg.counter(svc + total).value())
            << svc;
    }
}

/** One fixed 4-queue scenario; returns end-of-run metrics JSON. */
std::string
mqScenarioJson(std::uint64_t seed)
{
    Simulation sim(seed);
    cloud::VSwitch vswitch(sim, "vs");
    cloud::BlockService storage(sim, "st");
    core::BmHiveServer server(sim, "srv", vswitch, &storage,
                              mqParams(4, 2));
    auto &va = storage.createVolume("va", 8 * MiB);
    auto &vb = storage.createVolume("vb", 8 * MiB);
    auto &a = server.provision(core::InstanceCatalog::evaluated(),
                               0xa, &va);
    auto &b = server.provision(core::InstanceCatalog::evaluated(),
                               0xb, &vb);
    sim.run(sim.now() + msToTicks(1));

    workloads::PacketFloodParams fp;
    fp.flows = 8;
    fp.batch = 8;
    fp.warmup = msToTicks(1);
    fp.window = msToTicks(5);
    workloads::PacketFlood flood(
        sim, "flood", workloads::GuestContext::of(a),
        workloads::GuestContext::of(b), fp);
    auto r = flood.run();
    EXPECT_GT(r.received, 0u);
    expectBatchPerVisit(sim.metrics());
    return sim.metrics().toJson();
}

TEST(MqDeterminism, SameSeedSameMetricsWithFourQueues)
{
    // RSS steering, per-queue scheduling and per-queue wakes must
    // not perturb determinism: same seed, byte-identical snapshot.
    auto j1 = mqScenarioJson(20200316);
    auto j2 = mqScenarioJson(20200316);
    EXPECT_EQ(j1, j2);
    EXPECT_NE(j1.find(".mq.queue_regs"), std::string::npos);
    EXPECT_NE(j1.find(".mq.netp0"), std::string::npos);
}

TEST(MqDoorbell, FourQueuesShareOneDoorbellAllowance)
{
    bench::Testbed bed(9150, mqParams(4, 1));
    bed.bmGuest(0xA5, 0);
    // Idle long enough for the per-function token bucket to refill
    // to its full burst (it was nibbled during driver bring-up).
    bed.sim.run(bed.sim.now() + msToTicks(5));

    auto &bond = bed.server.guest(0).bond();
    auto &bus = bed.server.guest(0).board().pciBus();
    Addr bar = netBar(bed);

    // Hammer 5000 kicks within one tick, cycling over all four tx
    // queues. The allowance is per function, not per queue: a
    // 4-queue guest must see exactly the same accounting as the
    // 1-queue storm (hostile_test) — burst accepted, 32 storm
    // faults to quarantine, the rest swallowed. A per-queue bucket
    // would multiply the allowance by the queue count.
    const std::uint64_t kicks = 5000;
    const auto burst =
        std::uint64_t(bond.params().doorbellBurst);
    const std::array<std::uint32_t, 4> txq = {
        virtio::netTxQueue(0), virtio::netTxQueue(1),
        virtio::netTxQueue(2), virtio::netTxQueue(3)};
    for (std::uint64_t i = 0; i < kicks; ++i)
        bus.memWrite(bar + virtio::notifyRegionOffset, txq[i % 4],
                     4);

    EXPECT_EQ(bond.guestFaults(GuestFaultKind::DoorbellStorm),
              32u);
    EXPECT_EQ(bed.server.quarantines(), 1u);
    EXPECT_EQ(bed.server.guestHealth(0),
              core::GuestHealth::Quarantined);
    EXPECT_EQ(bond.quarantineDrops(), kicks - burst - 32);
}

} // namespace
} // namespace bmhive
