/**
 * @file
 * Unit tests for simulated memory, the DMA engine, and the pool
 * allocator IO-Bond uses for shadow buffers.
 */

#include <gtest/gtest.h>

#include <map>

#include "base/logging.hh"
#include "base/random.hh"
#include "fault/fault.hh"
#include "mem/dma_engine.hh"
#include "mem/guest_memory.hh"
#include "mem/pool_allocator.hh"
#include "tests/resident.hh"

namespace bmhive {
namespace {

TEST(GuestMemoryTest, TypedAccessorsLittleEndian)
{
    GuestMemory m("m", 64);
    m.write32(0, 0x12345678u);
    EXPECT_EQ(m.read8(0), 0x78u);
    EXPECT_EQ(m.read8(3), 0x12u);
    EXPECT_EQ(m.read16(0), 0x5678u);
    m.write64(8, 0x1122334455667788ull);
    EXPECT_EQ(m.read32(8), 0x55667788u);
    EXPECT_EQ(m.read32(12), 0x11223344u);
}

TEST(GuestMemoryTest, BlobRoundTrip)
{
    GuestMemory m("m", 1024);
    std::vector<std::uint8_t> data(100);
    for (std::size_t i = 0; i < data.size(); ++i)
        data[i] = std::uint8_t(i * 3);
    m.writeBlob(10, data);
    EXPECT_EQ(m.readBlob(10, 100), data);
}

TEST(GuestMemoryTest, OutOfBoundsPanics)
{
    Logger::global().setThrowOnDeath(true);
    GuestMemory m("m", 16);
    EXPECT_THROW(m.read32(14), PanicError);
    EXPECT_THROW(m.write8(16, 0), PanicError);
    EXPECT_NO_THROW(m.write8(15, 0));
    Logger::global().setThrowOnDeath(false);
}

TEST(GuestMemoryTest, SeparateMemoriesDoNotAlias)
{
    // The property IO-Bond exists to solve: board and base memory
    // are distinct.
    GuestMemory a("a", 64), b("b", 64);
    a.write64(0, 0xdeadbeef);
    EXPECT_EQ(b.read64(0), 0u);
}

TEST(GuestMemoryTest, UntouchedPagesAreNotResident)
{
    // Simulated memory costs the host only the pages the model
    // writes; every other byte still reads as zero.
    const std::uint64_t before = residentBytes();
    GuestMemory m("m", 256 * MiB);
    m.write8(0, 0xa5);
    m.write8(m.size() - 1, 0x5a);
    EXPECT_EQ(m.read8(0), 0xa5u);
    EXPECT_EQ(m.read8(m.size() - 1), 0x5au);
    EXPECT_EQ(m.read8(1), 0u);
    EXPECT_EQ(m.read64(128 * MiB), 0u);
    EXPECT_EQ(m.read8(m.size() - 2), 0u);
    EXPECT_EQ(m.readBlob(64 * MiB, 4096),
              std::vector<std::uint8_t>(4096, 0));
    const std::uint64_t after = residentBytes();
    EXPECT_LT(after > before ? after - before : 0, 16 * MiB);
}

TEST(BumpAllocatorTest, AlignsAndAdvances)
{
    GuestMemory m("m", 16384);
    BumpAllocator alloc(m, 0x10);
    Addr a = alloc.alloc(10, 16);
    Addr b = alloc.alloc(10, 16);
    EXPECT_EQ(a % 16, 0u);
    EXPECT_EQ(b % 16, 0u);
    EXPECT_GE(b, a + 10);
    Addr c = alloc.alloc(1, 4096);
    EXPECT_EQ(c % 4096, 0u);
}

TEST(BumpAllocatorTest, ExhaustionPanics)
{
    Logger::global().setThrowOnDeath(true);
    GuestMemory m("m", 128);
    BumpAllocator alloc(m, 0);
    EXPECT_THROW(alloc.alloc(256), PanicError);
    Logger::global().setThrowOnDeath(false);
}

class DmaEngineTest : public ::testing::Test
{
  protected:
    Simulation sim;
};

TEST_F(DmaEngineTest, CopyMovesDataAfterTransferTime)
{
    GuestMemory src("src", 64 * KiB), dst("dst", 64 * KiB);
    DmaEngine dma(sim, "dma", Bandwidth::gbps(50));
    std::vector<std::uint8_t> data(4096, 0xab);
    src.writeBlob(0, data);

    bool done = false;
    Tick done_at = 0;
    dma.copy(src, 0, dst, 100, 4096, [&] {
        done = true;
        done_at = sim.now();
    });
    EXPECT_FALSE(done);
    sim.run();
    EXPECT_TRUE(done);
    // 4096 B at 50 Gbps = 655.36 ns.
    EXPECT_NEAR(double(done_at), 655360.0, 2.0);
    EXPECT_EQ(dst.readBlob(100, 4096), data);
    EXPECT_EQ(dma.bytesMoved(), 4096u);
}

TEST_F(DmaEngineTest, TransfersSerializeFifo)
{
    GuestMemory src("src", 64 * KiB), dst("dst", 64 * KiB);
    DmaEngine dma(sim, "dma", Bandwidth::gbps(8)); // 1 B/ns
    std::vector<Tick> done_at;
    for (int i = 0; i < 3; ++i) {
        dma.copy(src, 0, dst, 0, 1000,
                 [&] { done_at.push_back(sim.now()); });
    }
    sim.run();
    ASSERT_EQ(done_at.size(), 3u);
    // Each 1000 B transfer takes 1000 ns; strictly serialized.
    EXPECT_NEAR(double(done_at[0]), 1.0e6, 10.0);
    EXPECT_NEAR(double(done_at[1]), 2.0e6, 10.0);
    EXPECT_NEAR(double(done_at[2]), 3.0e6, 10.0);
    EXPECT_EQ(dma.transfers(), 3u);
}

TEST_F(DmaEngineTest, StartupLatencyAdds)
{
    GuestMemory src("src", 4096), dst("dst", 4096);
    DmaEngine dma(sim, "dma", Bandwidth::gbps(8), nsToTicks(500));
    Tick done_at = 0;
    dma.copy(src, 0, dst, 0, 1000, [&] { done_at = sim.now(); });
    sim.run();
    EXPECT_NEAR(double(done_at), 1.5e6, 10.0);
}

TEST_F(DmaEngineTest, AccountOnlyTakesTimeWithoutData)
{
    GuestMemory dst("dst", 64);
    dst.write8(0, 7);
    DmaEngine dma(sim, "dma", Bandwidth::gbps(8));
    bool done = false;
    dma.accountOnly(1000, [&] { done = true; });
    sim.run();
    EXPECT_TRUE(done);
    EXPECT_EQ(dst.read8(0), 7u); // untouched
    EXPECT_EQ(dma.bytesMoved(), 1000u);
}

TEST_F(DmaEngineTest, CompletionOrderPreservedMixedOps)
{
    // Ordering property IO-Bond relies on: a metadata account
    // enqueued after a payload copy completes after it.
    GuestMemory src("src", 8192), dst("dst", 8192);
    DmaEngine dma(sim, "dma", Bandwidth::gbps(50));
    std::vector<int> order;
    dma.copy(src, 0, dst, 0, 4096, [&] { order.push_back(1); });
    dma.accountOnly(34, [&] { order.push_back(2); });
    dma.copy(src, 0, dst, 4096, 128, [&] { order.push_back(3); });
    dma.accountOnly(8, [&] { order.push_back(4); });
    sim.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4}));
}

TEST_F(DmaEngineTest, CallbacksChainNewCopiesFifo)
{
    // Submissions from inside a completion callback are
    // well-defined: they queue behind anything already queued and
    // run strictly after the current completion unwinds.
    GuestMemory src("src", 8192), dst("dst", 8192);
    DmaEngine dma(sim, "dma", Bandwidth::gbps(8));
    std::vector<int> order;
    dma.copy(src, 0, dst, 0, 100, [&] {
        order.push_back(1);
        dma.copy(src, 0, dst, 200, 100, [&] {
            order.push_back(3);
            dma.copy(src, 0, dst, 400, 100,
                     [&] { order.push_back(4); });
        });
    });
    dma.copy(src, 0, dst, 100, 100, [&] { order.push_back(2); });
    sim.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4}));
    EXPECT_EQ(dma.transfers(), 4u);
}

TEST_F(DmaEngineTest, RetryFromCallbackWaitsForErrorHandler)
{
    // Regression: the engine used to start the next queued
    // transfer before running the completed transfer's callbacks,
    // so a retry issued from `done` was already in flight when the
    // error handler observed the failure — the handler could no
    // longer tell the failed transfer from the retry.
    GuestMemory src("src", 4096), dst("dst", 4096);
    DmaEngine dma(sim, "dma", Bandwidth::gbps(50), nsToTicks(100));
    std::vector<std::string> order;
    dma.setErrorHandler([&] {
        order.push_back(dma.busy() ? "error-after-retry-started"
                                   : "error-before-retry");
    });
    sim.faults().deliver(
        "dma", fault::FaultSpec{fault::FaultKind::DmaFail, 1, 0, 0.0});
    dma.copy(src, 0, dst, 0, 512, [&] {
        order.push_back("done");
        dma.copy(src, 0, dst, 1024, 512,
                 [&] { order.push_back("retry-done"); });
    });
    sim.run();
    EXPECT_EQ(order,
              (std::vector<std::string>{"done", "error-before-retry",
                                        "retry-done"}));
}

TEST_F(DmaEngineTest, CopyvMovesSegmentsAsOneTransfer)
{
    GuestMemory src("src", 8192), dst("dst", 8192);
    DmaEngine dma(sim, "dma", Bandwidth::gbps(8), nsToTicks(500));
    std::vector<std::uint8_t> a(1000, 0x11), b(500, 0x22);
    src.writeBlob(0, a);
    src.writeBlob(2048, b);

    Tick done_at = 0;
    dma.copyv({{&src, 0, &dst, 0, 1000},
               {&src, 2048, &dst, 4096, 500},
               {nullptr, 0, nullptr, 0, 100}}, // account-only meta
              [&] { done_at = sim.now(); });
    sim.run();
    // One startup cost over the whole batch: 500 ns + 1600 B at
    // 1 B/ns.
    EXPECT_NEAR(double(done_at), 2.1e6, 10.0);
    EXPECT_EQ(dst.readBlob(0, 1000), a);
    EXPECT_EQ(dst.readBlob(4096, 500), b);
    EXPECT_EQ(dma.transfers(), 1u);
    EXPECT_EQ(dma.bytesMoved(), 1600u);
    EXPECT_EQ(dma.batchedSegments(), 3u);
}

TEST_F(DmaEngineTest, CopyvFaultConsumesWholeTransfer)
{
    // An injected DmaFail drops the whole scatter-gather transfer
    // (hardware descriptors complete or abort as a unit), and
    // consumes exactly one budget unit for it.
    GuestMemory src("src", 4096), dst("dst", 4096);
    DmaEngine dma(sim, "dma", Bandwidth::gbps(50));
    src.write8(0, 0x5a);
    src.write8(100, 0xa5);
    sim.faults().deliver(
        "dma", fault::FaultSpec{fault::FaultKind::DmaFail, 1, 0, 0.0});
    unsigned errors = 0;
    dma.setErrorHandler([&] { ++errors; });
    dma.copyv({{&src, 0, &dst, 0, 64}, {&src, 100, &dst, 100, 64}},
              {});
    dma.copy(src, 0, dst, 200, 64, {});
    sim.run();
    EXPECT_EQ(dst.read8(0), 0u);   // dropped as a unit
    EXPECT_EQ(dst.read8(100), 0u);
    EXPECT_EQ(dst.read8(200), 0x5a); // budget spent; next copy lands
    EXPECT_EQ(errors, 1u);
    EXPECT_EQ(dma.faultsInjected(), 1u);
}

TEST_F(DmaEngineTest, FenceWaitsForTransfersQueuedBeforeIt)
{
    // A fence runs once every transfer queued before it has
    // completed, a dropped one included, and before any queued
    // after it; on an idle engine it runs at once. It takes no
    // engine time and is no transfer.
    GuestMemory src("src", 4096), dst("dst", 4096);
    DmaEngine dma(sim, "dma", Bandwidth::gbps(8)); // 1 B/ns
    std::vector<std::string> order;
    dma.fence([&] { order.push_back("idle"); });
    EXPECT_EQ(order, std::vector<std::string>{"idle"});

    sim.faults().deliver(
        "dma", fault::FaultSpec{fault::FaultKind::DmaFail, 1, 0, 0.0});
    dma.copy(src, 0, dst, 0, 1000, [&] { order.push_back("dropped"); });
    dma.copy(src, 0, dst, 0, 1000, [&] { order.push_back("landed"); });
    Tick fenced_at = 0, after_at = 0;
    dma.fence([&] {
        order.push_back("fence");
        fenced_at = sim.now();
    });
    dma.copy(src, 0, dst, 0, 1000, [&] {
        order.push_back("after");
        after_at = sim.now();
    });
    sim.run();
    EXPECT_EQ(order, (std::vector<std::string>{"idle", "dropped",
                                               "landed", "fence",
                                               "after"}));
    EXPECT_NEAR(double(fenced_at), 2.0e6, 10.0);
    EXPECT_NEAR(double(after_at), 3.0e6, 10.0);
    EXPECT_EQ(dma.transfers(), 3u);
}

TEST(PoolAllocatorTest, AllocFreeReuse)
{
    PoolAllocator pool(0x1000, 4096);
    Addr a = pool.alloc(1000);
    Addr b = pool.alloc(1000);
    ASSERT_NE(a, PoolAllocator::nullAddr);
    ASSERT_NE(b, PoolAllocator::nullAddr);
    EXPECT_NE(a, b);
    pool.free(a);
    Addr c = pool.alloc(900);
    EXPECT_EQ(c, a); // first fit reuses the hole
}

TEST(PoolAllocatorTest, ExhaustionReturnsNull)
{
    PoolAllocator pool(0, 1024);
    EXPECT_NE(pool.alloc(1024), PoolAllocator::nullAddr);
    EXPECT_EQ(pool.alloc(1), PoolAllocator::nullAddr);
}

TEST(PoolAllocatorTest, CoalescingRestoresFullExtent)
{
    PoolAllocator pool(0, 3072);
    Addr a = pool.alloc(1024);
    Addr b = pool.alloc(1024);
    Addr c = pool.alloc(1024);
    ASSERT_NE(c, PoolAllocator::nullAddr);
    pool.free(a);
    pool.free(c);
    pool.free(b); // middle free must merge all three
    EXPECT_EQ(pool.bytesFree(), 3072u);
    EXPECT_NE(pool.alloc(3072), PoolAllocator::nullAddr);
}

TEST(PoolAllocatorTest, AlignmentHonored)
{
    PoolAllocator pool(1, 8192); // deliberately misaligned base
    Addr a = pool.alloc(100, 512);
    ASSERT_NE(a, PoolAllocator::nullAddr);
    EXPECT_EQ(a % 512, 0u);
    pool.free(a);
}

TEST(PoolAllocatorTest, RandomAllocFreeStress)
{
    // Property: no overlap between live blocks; all bytes
    // recovered at the end.
    Rng rng(23);
    PoolAllocator pool(0, 1 * MiB);
    std::map<Addr, Bytes> live;
    for (int i = 0; i < 5000; ++i) {
        if (live.size() < 40 && rng.chance(0.6)) {
            Bytes len = rng.uniformInt(1, 32 * 1024);
            Addr a = pool.alloc(len, 16);
            if (a == PoolAllocator::nullAddr)
                continue;
            // Overlap check against all live blocks.
            for (const auto &[la, ll] : live) {
                ASSERT_TRUE(a + len <= la || la + ll <= a)
                    << "overlap at iteration " << i;
            }
            live[a] = len;
        } else if (!live.empty()) {
            auto it = live.begin();
            std::advance(it,
                         long(rng.uniformInt(0, live.size() - 1)));
            pool.free(it->first);
            live.erase(it);
        }
    }
    for (const auto &[a, l] : live)
        pool.free(a);
    EXPECT_EQ(pool.bytesFree(), 1 * MiB);
    EXPECT_EQ(pool.liveAllocations(), 0u);
}

TEST(PoolAllocatorTest, DoubleFreePanics)
{
    Logger::global().setThrowOnDeath(true);
    PoolAllocator pool(0, 1024);
    Addr a = pool.alloc(64);
    pool.free(a);
    EXPECT_THROW(pool.free(a), PanicError);
    Logger::global().setThrowOnDeath(false);
}

} // namespace
} // namespace bmhive
