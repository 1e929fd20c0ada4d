/**
 * @file
 * End-to-end data-integrity tests (detect, contain, heal):
 *
 *  - checksum primitives (CRC32C, T10-DIF CRC16): known answers,
 *    and the table and SSE4.2 kernels against bit-serial reference
 *    copies; the DIF tag/verify helpers, including wrong-LBA and
 *    truncation;
 *  - frame checksums: sealed packets verify, mutations don't,
 *    unsealed legacy frames pass;
 *  - DmaEngine ECRC arithmetic: a single corruption is detected
 *    and healed by replay (never delivered), exhausted retries
 *    escalate exactly once through the integrity handler, and
 *    account-only transfers never burn a corruption budget;
 *  - escalation ordering: a mirror transfer whose ECRC replays are
 *    exhausted completes data-less, and IO-Bond must not publish
 *    the unwritten chains — a guest write is never acked OK unless
 *    its bytes are durable (the false-ack regression);
 *  - the IO-Bond shadow-metadata scrubber: injected metadata rot
 *    is repaired in place; dirt on consecutive passes escalates
 *    to a queue reset, and the configured escalation threshold
 *    marks the whole server unhealthy exactly once;
 *  - guest-invisible DIF healing: a fabric-corrupted read is
 *    resubmitted by the backend before the guest sees anything;
 *  - rack scale: an integrity-unhealthy server is proactively
 *    drained by the fleet controller (live migration);
 *  - ring-metadata fault accounting: a scribbled chain link is
 *    counted under integrity.meta_faults, not just logged.
 */

#include <gtest/gtest.h>

#include <vector>

#include "base/checksum.hh"
#include "base/random.hh"
#include "bench/common.hh"
#include "cloud/dif.hh"
#include "cloud/packet.hh"
#include "fault/fault_injector.hh"
#include "fleet/fleet_controller.hh"
#include "mem/dma_engine.hh"
#include "virtio/virtqueue.hh"
#include "workloads/guest_iface.hh"

namespace bmhive {
namespace {

using namespace virtio;
using fault::FaultInjector;
using fault::FaultKind;
using fault::FaultSpec;

FaultSpec
spec(FaultKind k, unsigned count = 1)
{
    FaultSpec s;
    s.kind = k;
    s.count = count;
    return s;
}

// --- Checksum primitives ---

TEST(ChecksumTest, Crc32cKnownAnswerAndChaining)
{
    const std::uint8_t msg[] = {'1', '2', '3', '4', '5',
                                '6', '7', '8', '9'};
    // The CRC32C check value every implementation agrees on.
    EXPECT_EQ(crc32c(msg, sizeof(msg)), 0xE3069283u);
    // Seedable chaining over a split buffer.
    EXPECT_EQ(crc32c(msg + 4, 5, crc32c(msg, 4)),
              crc32c(msg, sizeof(msg)));
    // Word folding matches the byte-serial form.
    std::uint8_t le[8];
    std::uint64_t w = 0x1122334455667788ull;
    for (int i = 0; i < 8; ++i)
        le[i] = std::uint8_t(w >> (8 * i));
    EXPECT_EQ(crc32cWord(w), crc32c(le, 8));
}

TEST(ChecksumTest, Crc16T10DifDetectsSingleBitFlips)
{
    std::vector<std::uint8_t> sector(512);
    for (std::size_t i = 0; i < sector.size(); ++i)
        sector[i] = std::uint8_t(i * 7);
    std::uint16_t clean = crc16T10dif(sector.data(), sector.size());
    for (std::size_t i = 0; i < sector.size(); i += 61) {
        sector[i] ^= 1;
        EXPECT_NE(crc16T10dif(sector.data(), sector.size()), clean)
            << "flip at " << i;
        sector[i] ^= 1;
    }
    EXPECT_EQ(crc16T10dif(sector.data(), sector.size()), clean);
}

TEST(ChecksumTest, Crc16T10DifKnownAnswer)
{
    const std::uint8_t msg[] = {'1', '2', '3', '4', '5',
                                '6', '7', '8', '9'};
    // The CRC-16/T10-DIF check value.
    EXPECT_EQ(crc16T10dif(msg, sizeof(msg)), 0xD0DBu);
}

// Bit-serial reference copies: the definitions the table and
// instruction kernels must reproduce value for value.
std::uint32_t
refCrc32c(const std::uint8_t *data, std::size_t len, std::uint32_t seed)
{
    std::uint32_t crc = ~seed;
    for (std::size_t i = 0; i < len; ++i) {
        crc ^= data[i];
        for (int b = 0; b < 8; ++b)
            crc = (crc >> 1) ^ (0x82F63B78u & (0u - (crc & 1u)));
    }
    return ~crc;
}

std::uint16_t
refCrc16T10dif(const std::uint8_t *data, std::size_t len)
{
    std::uint16_t crc = 0;
    for (std::size_t i = 0; i < len; ++i) {
        crc ^= std::uint16_t(data[i]) << 8;
        for (int b = 0; b < 8; ++b) {
            crc = std::uint16_t(
                (crc << 1) ^ ((crc & 0x8000u) ? 0x8BB7u : 0u));
        }
    }
    return crc;
}

TEST(ChecksumTest, FastKernelsMatchBitSerialReference)
{
    // Every length up to one 4 KiB block plus a ragged tail, at a
    // random start offset (so 8-byte steps see every alignment),
    // each CRC32C seeded with the previous one's result. crc32c()
    // takes the SSE4.2 path where the CPU has it; crc32cPortable()
    // is the table path everywhere.
    Rng rng(14);
    std::vector<std::uint8_t> buf(4100 + 7);
    for (auto &b : buf)
        b = std::uint8_t(rng.uniformInt(0, 255));
    std::uint32_t seed = 0;
    for (std::size_t len = 0; len <= 4100; ++len) {
        const std::uint8_t *p = buf.data() + rng.uniformInt(0, 7);
        buf[rng.uniformInt(0, buf.size() - 1)] ^= std::uint8_t(len);
        const std::uint32_t want = refCrc32c(p, len, seed);
        ASSERT_EQ(crc32c(p, len, seed), want) << "len " << len;
        ASSERT_EQ(crc32cPortable(p, len, seed), want) << "len " << len;
        ASSERT_EQ(crc16T10dif(p, len), refCrc16T10dif(p, len))
            << "len " << len;

        const std::uint64_t word = rng.uniformInt(0, ~0ull);
        std::uint8_t le[8];
        for (int i = 0; i < 8; ++i)
            le[i] = std::uint8_t(word >> (8 * i));
        ASSERT_EQ(crc32cWord(word, seed), refCrc32c(le, 8, seed))
            << "len " << len;
        seed = want;
    }
}

// --- DIF tag helpers ---

TEST(DifTest, WireLengthRoundTrip)
{
    using namespace cloud;
    EXPECT_EQ(difWireBytes(512), 520u);
    EXPECT_EQ(difWireBytes(4096), 4096u + 8 * 8);
    EXPECT_EQ(difPayloadBytes(difWireBytes(4096)), 4096u);
    EXPECT_EQ(difPayloadBytes(difWireBytes(128 * KiB)), 128 * KiB);
    // 65 untagged sectors and 64 tagged ones are the same number
    // of wire bytes — length alone cannot say whether a buffer
    // carries tags, which is why both ends negotiate the mode.
    EXPECT_EQ(65 * difSectorBytes, 64 * difProtectedSectorBytes);
}

TEST(DifTest, BuildCheckDetectsCorruptionAndWrongLba)
{
    using namespace cloud;
    std::vector<std::uint8_t> payload(3 * difSectorBytes);
    for (std::size_t i = 0; i < payload.size(); ++i)
        payload[i] = std::uint8_t(i * 13 + 1);
    const std::uint64_t lba = 4242;

    std::vector<std::uint8_t> buf = payload;
    auto tags = difBuildTags(payload, lba);
    ASSERT_EQ(tags.size(), 3 * difTagBytes);
    buf.insert(buf.end(), tags.begin(), tags.end());

    EXPECT_EQ(difCheck(buf, lba), -1);
    // A payload flip in sector 1 is caught at sector 1.
    buf[difSectorBytes + 100] ^= 0x40;
    EXPECT_EQ(difCheck(buf, lba), 1);
    buf[difSectorBytes + 100] ^= 0x40;
    // A guard-tag flip is just as fatal.
    buf[3 * difSectorBytes + 2 * difTagBytes] ^= 0x01;
    EXPECT_EQ(difCheck(buf, lba), 2);
    buf[3 * difSectorBytes + 2 * difTagBytes] ^= 0x01;
    // Misdirected I/O: right bytes, wrong LBA.
    EXPECT_EQ(difCheck(buf, lba + 1), 0);
    // Truncation cannot pass as a whole protected buffer.
    std::vector<std::uint8_t> cut(buf.begin(), buf.end() - 1);
    EXPECT_EQ(difCheck(cut, lba), 0);
}

// --- Frame checksums ---

TEST(PacketCsumTest, SealedFramesVerifyMutationsDoNot)
{
    cloud::Packet p;
    p.src = 0xA;
    p.dst = 0xB;
    p.len = 1200;
    p.seq = 7;
    p.created = 123456;
    // Unsealed legacy frame: csum 0 passes (nothing to verify).
    EXPECT_TRUE(cloud::packetCsumOk(p));
    cloud::sealPacket(p);
    EXPECT_NE(p.csum, 0u);
    EXPECT_TRUE(cloud::packetCsumOk(p));
    cloud::Packet q = p;
    q.created ^= 0xA5A5; // the FabricCorrupt mutation
    EXPECT_FALSE(cloud::packetCsumOk(q));
    q = p;
    q.seq += 1;
    EXPECT_FALSE(cloud::packetCsumOk(q));
    q = p;
    q.len -= 1;
    EXPECT_FALSE(cloud::packetCsumOk(q));
}

// --- DmaEngine ECRC arithmetic ---

TEST(DmaEcrcTest, SingleCorruptionHealedByReplayNeverDelivered)
{
    Simulation sim(1);
    GuestMemory src("src", 64 * KiB), dst("dst", 64 * KiB);
    DmaEngine dma(sim, "dma", Bandwidth::gbps(50));
    dma.setIntegrity(true);
    std::vector<std::uint8_t> pattern(4096);
    for (std::size_t i = 0; i < pattern.size(); ++i)
        pattern[i] = std::uint8_t(i * 3 + 1);
    src.writeBlob(0x1000, pattern);

    FaultInjector inj(sim, "inj");
    inj.at(nsToTicks(1), "dma", spec(FaultKind::DmaCorrupt, 1));
    inj.arm();

    bool done = false;
    dma.copy(src, 0x1000, dst, 0x2000, pattern.size(),
             [&] { done = true; });
    sim.run(usToTicks(50));

    ASSERT_TRUE(done);
    EXPECT_EQ(dst.readBlob(0x2000, pattern.size()), pattern);
    EXPECT_EQ(dma.ecrcDetected(), 1u);
    EXPECT_EQ(dma.ecrcHealed(), 1u);
    EXPECT_EQ(dma.ecrcEscalations(), 0u);
    // The healed retry's latency is recorded (SLO-visible).
    EXPECT_EQ(
        sim.metrics().latency("dma.integrity.retry").count(), 1u);
}

TEST(DmaEcrcTest, ExhaustedRetriesEscalateOnceWithoutDelivering)
{
    Simulation sim(2);
    GuestMemory src("src", 64 * KiB), dst("dst", 64 * KiB);
    DmaEngine dma(sim, "dma", Bandwidth::gbps(50));
    dma.setIntegrity(true);
    std::vector<std::uint8_t> pattern(4096, 0x5A);
    src.writeBlob(0x1000, pattern);

    // Budget outlasts the replays: initial attempt + 2 retries all
    // corrupt, so the ladder must escalate, exactly once.
    FaultInjector inj(sim, "inj");
    inj.at(nsToTicks(1), "dma", spec(FaultKind::DmaCorrupt, 8));
    inj.arm();

    unsigned escalations = 0;
    dma.setIntegrityHandler([&] { ++escalations; });
    bool done = false;
    dma.copy(src, 0x1000, dst, 0x2000, pattern.size(),
             [&] { done = true; });
    sim.run(usToTicks(50));

    ASSERT_TRUE(done); // data-less completion, like DmaFail
    EXPECT_EQ(escalations, 1u);
    EXPECT_EQ(dma.ecrcEscalations(), 1u);
    EXPECT_EQ(dma.ecrcDetected(), 3u); // attempt + 2 replays
    EXPECT_EQ(dma.ecrcHealed(), 0u);
    // Corrupted bytes never landed: the destination is untouched.
    EXPECT_EQ(dst.readBlob(0x2000, pattern.size()),
              std::vector<std::uint8_t>(pattern.size(), 0));
}

TEST(DmaEcrcTest, AccountOnlyTransfersNeverBurnCorruptBudget)
{
    Simulation sim(3);
    GuestMemory src("src", 4096), dst("dst", 4096);
    DmaEngine dma(sim, "dma", Bandwidth::gbps(8));
    dma.setIntegrity(true);
    std::vector<std::uint8_t> pattern(256, 0x11);
    src.writeBlob(0, pattern);

    FaultInjector inj(sim, "inj");
    inj.at(nsToTicks(1), "dma", spec(FaultKind::DmaCorrupt, 1));
    inj.arm();

    // Pure bookkeeping transfers (null src), including a copyv
    // whose only segments are account-only, must leave the budget
    // armed for the next transfer that actually moves bytes.
    dma.accountOnly(512, nullptr);
    dma.copyv({DmaEngine::CopySeg{nullptr, 0, nullptr, 0, 64},
               DmaEngine::CopySeg{nullptr, 0, nullptr, 0, 8}},
              nullptr);
    sim.run(usToTicks(10));
    EXPECT_EQ(dma.faultsInjected(), 0u);

    bool done = false;
    dma.copy(src, 0, dst, 0, pattern.size(), [&] { done = true; });
    sim.run(sim.now() + usToTicks(10));
    ASSERT_TRUE(done);
    EXPECT_EQ(dma.faultsInjected(), 1u);
    EXPECT_EQ(dma.ecrcDetected(), 1u);
    EXPECT_EQ(dma.ecrcHealed(), 1u);
    EXPECT_EQ(dst.readBlob(0, pattern.size()), pattern);
}

TEST(DmaEcrcTest, EscalatedMirrorTransferNeverFalselyAcksWrite)
{
    bench::Testbed bed(16);
    auto g = bed.bmGuest(0xA, 16);
    bed.sim.run(bed.sim.now() + msToTicks(1.0));
    ASSERT_NE(g.blk, nullptr);

    // Exactly the attempt + 2 replays corrupt: the write's mirror
    // transfer exhausts its ECRC budget and completes data-less.
    // Before the publish callback checked lastDelivered(), those
    // zero-filled chains reached the backend, parsed as reads, and
    // the guest's write came back OK with nothing persisted.
    FaultInjector inj(bed.sim, "inj");
    inj.at(bed.sim.now(), "server.guest0.iobond.dma",
           spec(FaultKind::DmaCorrupt, 3));
    inj.arm();

    std::vector<std::uint8_t> pattern(4096, 0x5A);
    unsigned completions = 0;
    std::uint8_t wr_status = 0xEE;
    ASSERT_TRUE(g.blk->write(64, pattern.size(), &pattern, g.cpu(0),
                             [&](std::uint8_t st, Addr) {
                                 ++completions;
                                 wr_status = st;
                             }));
    bed.sim.run(bed.sim.now() + msToTicks(10.0));
    ASSERT_EQ(completions, 1u);

    iobond::IoBond &bond = bed.server.guest(0).bond();
    EXPECT_GE(bond.dma().ecrcEscalations(), 1u);
    EXPECT_GE(bond.integrityQueueResets(), 1u);

    // The ladder may contain (IOERR back to the caller) or heal
    // (reset + caller retry); what it must never do is ack OK
    // without the bytes being readable. The budget is spent, so
    // this read-back rides a clean fabric.
    unsigned reads = 0;
    ASSERT_TRUE(g.blk->read(
        64, pattern.size(), g.cpu(0),
        [&](std::uint8_t st, Addr data) {
            ++reads;
            ASSERT_EQ(st, 0);
            auto got =
                g.os->memory().readBlob(data, pattern.size());
            if (wr_status == 0) {
                EXPECT_EQ(got, pattern)
                    << "write acked OK but bytes not durable";
            }
        }));
    bed.sim.run(bed.sim.now() + msToTicks(10.0));
    EXPECT_EQ(reads, 1u);
}

// --- Shadow-vring scrubber + the server escalation ladder ---

/** Issue @p n background reads so blk chains sit in flight at the
 *  (deliberately slow) storage backend while the scrubber runs. */
unsigned
pumpReads(workloads::GuestContext &g, unsigned n,
          unsigned *completed)
{
    unsigned issued = 0;
    for (unsigned i = 0; i < n; ++i) {
        if (!g.blk->read(i * 8, 4096, g.cpu(0),
                         [completed](std::uint8_t, Addr) {
                             ++*completed;
                         }))
            break;
        ++issued;
    }
    return issued;
}

TEST(ScrubberTest, RepairsInjectedMetadataRot)
{
    bench::Testbed bed(11);
    auto g = bed.bmGuest(0xA, 16);
    bed.sim.run(bed.sim.now() + msToTicks(1.0));
    ASSERT_NE(g.blk, nullptr);

    unsigned completed = 0;
    unsigned issued = pumpReads(g, 8, &completed);
    ASSERT_GT(issued, 0u);
    // Let the chains reach the storage backend (they stay in
    // flight for a ~300 us round trip), then rot their shadow
    // metadata once.
    bed.sim.run(bed.sim.now() + usToTicks(20));
    FaultInjector inj(bed.sim, "inj");
    inj.at(bed.sim.now(), "server.guest0.iobond",
           spec(FaultKind::DmaCorruptMeta, 2));
    inj.arm();
    bed.sim.run(bed.sim.now() + msToTicks(2.0));

    iobond::IoBond &bond = bed.server.guest(0).bond();
    EXPECT_EQ(inj.injected(), 1u);
    EXPECT_EQ(bond.metaFaultsInjected(), 2u);
    // One dirty pass: repaired in place, no escalation, and every
    // read still completes (the repair IS the heal for metadata).
    EXPECT_GE(bond.scrubRepairs(), 2u);
    EXPECT_GE(bond.scrubRuns(), 1u);
    EXPECT_EQ(bond.integrityQueueResets(), 0u);
    EXPECT_EQ(bed.server.integrityEscalations(), 0u);
    EXPECT_EQ(completed, issued);
    EXPECT_EQ(g.blk->resets(), 0u);
}

TEST(ScrubberTest, PersistentRotEscalatesToQueueReset)
{
    bench::Testbed bed(12);
    auto g = bed.bmGuest(0xA, 16);
    bed.sim.run(bed.sim.now() + msToTicks(1.0));
    ASSERT_NE(g.blk, nullptr);

    unsigned completed = 0;
    pumpReads(g, 8, &completed);
    bed.sim.run(bed.sim.now() + usToTicks(20));

    // Re-rot live chains faster than the scrub period: every pass
    // is dirty, and the second consecutive strike must reset the
    // function instead of repairing forever.
    FaultInjector inj(bed.sim, "inj");
    for (int burst = 0; burst < 8; ++burst) {
        inj.at(bed.sim.now(), "server.guest0.iobond",
               spec(FaultKind::DmaCorruptMeta, 1));
        inj.arm();
        bed.sim.run(bed.sim.now() + usToTicks(40));
    }
    bed.sim.run(bed.sim.now() + msToTicks(5.0));

    iobond::IoBond &bond = bed.server.guest(0).bond();
    EXPECT_GE(bond.scrubRepairs(), 2u);
    EXPECT_GE(bond.integrityQueueResets(), 1u);
    EXPECT_GE(bed.server.integrityEscalations(), 1u);
    // Below the server-unhealthy threshold (3 by default), the
    // escalation stays contained to the function.
    EXPECT_FALSE(bed.server.integrityUnhealthy());
}

TEST(ScrubberTest, ThresholdMarksServerUnhealthyOnce)
{
    core::BmServerParams sp;
    sp.maxBoards = 4;
    sp.integrity.serverUnhealthyThreshold = 1;
    bench::Testbed bed(13, sp);
    auto g = bed.bmGuest(0xA, 16);
    bed.sim.run(bed.sim.now() + msToTicks(1.0));
    ASSERT_NE(g.blk, nullptr);

    unsigned unhealthy_cb = 0;
    bed.server.setServerUnhealthyCallback([&] { ++unhealthy_cb; });

    unsigned completed = 0;
    pumpReads(g, 8, &completed);
    bed.sim.run(bed.sim.now() + usToTicks(20));
    FaultInjector inj(bed.sim, "inj");
    for (int burst = 0; burst < 12; ++burst) {
        inj.at(bed.sim.now(), "server.guest0.iobond",
               spec(FaultKind::DmaCorruptMeta, 1));
        inj.arm();
        bed.sim.run(bed.sim.now() + usToTicks(40));
    }
    bed.sim.run(bed.sim.now() + msToTicks(5.0));

    EXPECT_GE(bed.server.integrityEscalations(), 1u);
    EXPECT_TRUE(bed.server.integrityUnhealthy());
    // The ladder's top fires exactly once, however many further
    // escalations arrive.
    EXPECT_EQ(unhealthy_cb, 1u);
    EXPECT_EQ(
        bed.sim.metrics()
            .counter("server.integrity.server_unhealthy")
            .value(),
        1u);
}

// --- Guest-invisible DIF healing on the read path ---

TEST(DifHealTest, FabricCorruptedReadIsRetriedNotDelivered)
{
    bench::Testbed bed(14);
    auto g = bed.bmGuest(0xA, 16);
    bed.sim.run(bed.sim.now() + msToTicks(1.0));
    ASSERT_NE(g.blk, nullptr);

    // Seed known content.
    std::vector<std::uint8_t> pattern(4096);
    for (std::size_t i = 0; i < pattern.size(); ++i)
        pattern[i] = std::uint8_t(i * 11 + 3);
    bool wrote = false;
    ASSERT_TRUE(g.blk->write(64, pattern.size(), &pattern, g.cpu(0),
                             [&](std::uint8_t st, Addr) {
                                 EXPECT_EQ(st, 0);
                                 wrote = true;
                             }));
    bed.sim.run(bed.sim.now() + msToTicks(2.0));
    ASSERT_TRUE(wrote);

    // The storage fabric corrupts the next read's payload; the
    // backend's DIF check must catch it and resubmit, so the guest
    // sees clean bytes, exactly once, just later.
    FaultInjector inj(bed.sim, "inj");
    inj.at(bed.sim.now(), "storage",
           spec(FaultKind::FabricCorrupt, 1));
    inj.arm();
    unsigned completions = 0;
    ASSERT_TRUE(g.blk->read(
        64, pattern.size(), g.cpu(0),
        [&](std::uint8_t st, Addr data) {
            ++completions;
            EXPECT_EQ(st, 0);
            EXPECT_EQ(g.os->memory().readBlob(data, pattern.size()),
                      pattern);
        }));
    bed.sim.run(bed.sim.now() + msToTicks(5.0));

    EXPECT_EQ(completions, 1u);
    EXPECT_EQ(bed.storage.fabricCorruptions(), 1u);
    ASSERT_NE(g.svc, nullptr);
    EXPECT_GE(g.svc->difDetects(), 1u);
    EXPECT_GE(g.svc->difRetries(), 1u);
    EXPECT_EQ(g.svc->difFailures(), 0u);
    EXPECT_EQ(g.blk->errors(), 0u);
}

// --- Fleet: integrity-unhealthy servers are drained ---

TEST(FleetIntegrityTest, UnhealthyServerDrainedByLiveMigration)
{
    Simulation sim(15);
    cloud::VSwitch vswitch(sim, "vswitch");
    cloud::BlockService storage(sim, "storage");
    fleet::FleetParams fp;
    fp.servers = 2;
    fp.server.maxBoards = 2;
    fp.server.integrity.serverUnhealthyThreshold = 1;
    fleet::FleetController fc(sim, "fleet", vswitch, &storage, fp);
    auto &vol = storage.createVolume("v", 16 * MiB);
    fleet::GuestId id =
        fc.place(core::InstanceCatalog::evaluated(), 0xA, &vol);
    ASSERT_NE(id, fleet::invalidGuest);
    ASSERT_EQ(fc.serverOf(id), 0u);
    sim.run(sim.now() + msToTicks(1.0));

    auto g = workloads::GuestContext::of(fc.guest(id));
    unsigned completed = 0;
    pumpReads(g, 8, &completed);
    sim.run(sim.now() + usToTicks(20));

    // Persistent corruption on s0's bond: with the threshold at 1,
    // the first scrubber escalation declares s0 unhealthy and the
    // fleet controller drains it. Stop injecting the moment the
    // drain starts — further rot would just race the export.
    FaultInjector inj(sim, "inj");
    for (int burst = 0; burst < 12 && fc.integrityDrains() == 0;
         ++burst) {
        inj.at(sim.now(), "fleet.s0.guest0.iobond",
               spec(FaultKind::DmaCorruptMeta, 1));
        inj.arm();
        sim.run(sim.now() + usToTicks(40));
    }

    for (int spin = 0; spin < 100; ++spin) {
        sim.run(sim.now() + msToTicks(1.0));
        if (fc.integrityDrains() > 0 && !fc.migrating(id))
            break;
    }
    EXPECT_GE(fc.integrityDrains(), 1u);
    EXPECT_GE(fc.migrationsDone(), 1u);
    ASSERT_TRUE(fc.alive(id));
    EXPECT_EQ(fc.serverOf(id), 1u);
    EXPECT_TRUE(fc.server(0).integrityUnhealthy());
}

// --- Ring-metadata fault accounting (integrity.meta_faults) ---

TEST(MetaFaultCounterTest, ScribbledChainLinkCounted)
{
    GuestMemory mem("m", 1 * MiB);
    auto layout = VringLayout::contiguous(8, 0x1000);
    VirtQueueDriver drv(mem, layout, false, 0, false);
    VirtQueueDevice dev(mem, layout);
    Counter meta;
    drv.setMetaFaultCounter(&meta);

    auto head = drv.submit({{0x10000, 64, false}},
                           {{0x20000, 64, true}}, 1);
    ASSERT_TRUE(head.has_value());
    // Scribble the head descriptor's next link out of range after
    // submission; the device completes the head regardless (real
    // backends snapshot the chain at pop time), and the driver's
    // reap must contain the bad link and count it.
    VringDesc d = layout.readDesc(mem, *head);
    ASSERT_TRUE(d.flags & VRING_DESC_F_NEXT);
    d.next = 999;
    layout.writeDesc(mem, *head, d);

    dev.pushUsed(*head, 64);
    auto done = drv.collectUsed();
    ASSERT_EQ(done.size(), 1u);
    EXPECT_EQ(meta.value(), 1u);
}

} // namespace
} // namespace bmhive
