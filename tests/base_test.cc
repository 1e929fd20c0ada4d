/**
 * @file
 * Unit tests for the base module: logging, units, statistics,
 * token buckets, and the deterministic random source.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>

#include "base/logging.hh"
#include "base/paper_constants.hh"
#include "base/random.hh"
#include "base/stats.hh"
#include "base/token_bucket.hh"
#include "base/units.hh"
#include "sim/sim_object.hh"

namespace bmhive {
namespace {

class DeathAsThrow : public ::testing::Test
{
  protected:
    void SetUp() override { Logger::global().setThrowOnDeath(true); }
    void TearDown() override
    {
        Logger::global().setThrowOnDeath(false);
    }
};

using LoggingTest = DeathAsThrow;

TEST_F(LoggingTest, PanicThrowsPanicError)
{
    EXPECT_THROW(panic("boom ", 42), PanicError);
}

TEST_F(LoggingTest, FatalThrowsFatalError)
{
    EXPECT_THROW(fatal("user error"), FatalError);
}

TEST_F(LoggingTest, PanicIfHonorsCondition)
{
    EXPECT_NO_THROW(panic_if(false, "not reached"));
    EXPECT_THROW(panic_if(true, "reached"), PanicError);
}

TEST_F(LoggingTest, MessageContainsFileAndValues)
{
    try {
        panic("value=", 7, " name=", "x");
        FAIL() << "should have thrown";
    } catch (const PanicError &e) {
        std::string what = e.what();
        EXPECT_NE(what.find("value=7 name=x"), std::string::npos);
        EXPECT_NE(what.find("base_test.cc"), std::string::npos);
    }
}

TEST(UnitsTest, TickConversionsRoundTrip)
{
    EXPECT_EQ(usToTicks(1.0), 1000000u);
    EXPECT_EQ(nsToTicks(1.0), 1000u);
    EXPECT_DOUBLE_EQ(ticksToUs(usToTicks(123.0)), 123.0);
    EXPECT_DOUBLE_EQ(ticksToSec(tickSec), 1.0);
}

TEST(UnitsTest, PaperIoBondConstants)
{
    EXPECT_EQ(paper::ioBondPciAccess, usToTicks(0.8));
    EXPECT_EQ(paper::ioBondEmulatedAccess, usToTicks(1.6));
    EXPECT_EQ(paper::vmExitCost, usToTicks(10));
}

TEST(UnitsTest, BandwidthTransferTime)
{
    Bandwidth b = Bandwidth::gbps(50);
    // 4 KiB at 50 Gbps = 4096*8/50e9 s = 655.36 ns.
    Tick t = b.transferTime(4096);
    EXPECT_NEAR(double(t), 655360.0, 1.0);
    EXPECT_EQ(Bandwidth().transferTime(1), maxTick);
}

TEST(UnitsTest, MinBandwidthPicksBottleneck)
{
    Bandwidth a = Bandwidth::gbps(32);
    Bandwidth b = Bandwidth::gbps(50);
    EXPECT_DOUBLE_EQ(minBandwidth(a, b).gbitsPerSec(), 32.0);
}

TEST(SummaryStatsTest, MeanVarianceMinMax)
{
    SummaryStats s;
    for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0})
        s.record(x);
    EXPECT_EQ(s.count(), 8u);
    EXPECT_DOUBLE_EQ(s.mean(), 5.0);
    EXPECT_NEAR(s.stddev(), 2.138, 1e-3);
    EXPECT_DOUBLE_EQ(s.min(), 2.0);
    EXPECT_DOUBLE_EQ(s.max(), 9.0);
    s.reset();
    EXPECT_EQ(s.count(), 0u);
    EXPECT_DOUBLE_EQ(s.mean(), 0.0);
}

TEST(SampleSetTest, ExactPercentiles)
{
    SampleSet s;
    for (int i = 1; i <= 1000; ++i)
        s.record(double(i));
    EXPECT_DOUBLE_EQ(s.percentile(0.5), 500.0);
    EXPECT_DOUBLE_EQ(s.percentile(0.99), 990.0);
    EXPECT_DOUBLE_EQ(s.percentile(0.999), 999.0);
    EXPECT_DOUBLE_EQ(s.percentile(1.0), 1000.0);
    EXPECT_DOUBLE_EQ(s.percentile(0.0), 1.0);
    EXPECT_DOUBLE_EQ(s.min(), 1.0);
    EXPECT_DOUBLE_EQ(s.max(), 1000.0);
}

TEST(SampleSetTest, PercentileMatchesSortReference)
{
    Rng rng(7);
    SampleSet s;
    std::vector<double> ref;
    for (int i = 0; i < 5000; ++i) {
        double v = rng.lognormal(0.0, 1.0);
        s.record(v);
        ref.push_back(v);
    }
    std::sort(ref.begin(), ref.end());
    for (double q : {0.5, 0.9, 0.99, 0.999}) {
        std::size_t rank = std::size_t(std::ceil(q * ref.size()));
        EXPECT_DOUBLE_EQ(s.percentile(q), ref[rank - 1])
            << "q=" << q;
    }
}

TEST(SampleSetTest, RecordAfterSortStaysCorrect)
{
    SampleSet s;
    s.record(5.0);
    EXPECT_DOUBLE_EQ(s.percentile(1.0), 5.0);
    s.record(1.0); // after a sorted query
    EXPECT_DOUBLE_EQ(s.percentile(0.0), 1.0);
    EXPECT_DOUBLE_EQ(s.percentile(1.0), 5.0);
}

TEST(HistogramTest, SmallValuesExactThenFourBucketsPerOctave)
{
    Histogram h;
    EXPECT_EQ(h.percentile(0.5), 0.0); // empty: 0 by convention
    for (std::uint64_t v = 0; v < 8; ++v) {
        EXPECT_EQ(Histogram::bucketOf(v), v);
        EXPECT_EQ(Histogram::bucketLow(v), double(v));
        EXPECT_EQ(Histogram::bucketHigh(v), double(v + 1));
        Histogram one;
        one.record(v);
        EXPECT_EQ(one.percentile(0.5), double(v)) << v;
    }
    // 8 and 9 share [8, 10); the octave [16, 32) has four buckets.
    EXPECT_EQ(Histogram::bucketOf(8), 8u);
    EXPECT_EQ(Histogram::bucketOf(9), 8u);
    EXPECT_EQ(Histogram::bucketLow(8), 8.0);
    EXPECT_EQ(Histogram::bucketHigh(8), 10.0);
    EXPECT_EQ(Histogram::bucketOf(10), 9u);
    EXPECT_EQ(Histogram::bucketOf(16), 12u);
    EXPECT_EQ(Histogram::bucketOf(31), 15u);
    EXPECT_EQ(Histogram::bucketHigh(15), 32.0);

    // Nearest rank over 0..9: a single-value bucket reports its
    // value, [8, 10) its upper edge.
    for (std::uint64_t v = 0; v < 10; ++v)
        h.record(v);
    EXPECT_EQ(h.total(), 10u);
    EXPECT_EQ(h.bucketCount(8), 2u);
    EXPECT_EQ(h.percentile(0.0), 0.0);
    EXPECT_EQ(h.percentile(0.5), 4.0);
    EXPECT_EQ(h.percentile(0.8), 7.0);
    EXPECT_EQ(h.percentile(0.9), 10.0);
    EXPECT_EQ(h.percentile(1.0), 10.0);
    h.reset();
    EXPECT_EQ(h.total(), 0u);
    EXPECT_EQ(h.bucketCount(8), 0u);
    EXPECT_EQ(h.percentile(1.0), 0.0);
}

TEST(HistogramTest, LogBucketsAreMonotonicAndConservative)
{
    // Walk every bucket by its lower edge, the value the reported
    // upper edge overstates the most: with 4 sub-buckets per octave
    // that is exactly 25%.
    double worst = 0.0;
    for (std::size_t b = 1; b < Histogram::numBuckets; ++b) {
        auto low = std::uint64_t(Histogram::bucketLow(b));
        ASSERT_EQ(double(low), Histogram::bucketLow(b));
        ASSERT_EQ(Histogram::bucketOf(low), b);
        ASSERT_EQ(Histogram::bucketOf(low - 1), b - 1);
        // A bucket starts where the previous one ends.
        ASSERT_EQ(Histogram::bucketHigh(b - 1), double(low));
        Histogram h;
        h.record(low);
        double over = h.percentile(0.5) / double(low);
        EXPECT_GE(over, 1.0);
        EXPECT_LE(over, 1.25);
        worst = std::max(worst, over);
    }
    EXPECT_EQ(worst, 1.25);
    EXPECT_EQ(Histogram::bucketOf(~std::uint64_t(0)),
              Histogram::numBuckets - 1);
}

TEST(HistogramTest, AddEqualsRecordingTheUnion)
{
    Rng rng(42);
    Histogram a, b, both;
    for (int i = 0; i < 2000; ++i) {
        // Small batch sizes and a long latency-like tail.
        auto v = rng.chance(0.5) ? rng.uniformInt(0, 40)
                                 : std::uint64_t(rng.exponential(5e4));
        (i % 3 ? a : b).record(v);
        both.record(v);
    }
    a.add(b);
    EXPECT_EQ(a.total(), both.total());
    for (std::size_t k = 0; k < Histogram::numBuckets; ++k)
        ASSERT_EQ(a.bucketCount(k), both.bucketCount(k)) << k;
    for (double q : {0.0, 0.5, 0.9, 0.99, 0.999, 1.0})
        EXPECT_EQ(a.percentile(q), both.percentile(q)) << q;
}

TEST(TokenBucketTest, UnlimitedAlwaysAdmits)
{
    TokenBucket b = TokenBucket::unlimited();
    EXPECT_TRUE(b.tryConsume(0, 1e12));
    EXPECT_EQ(b.nextAvailable(123, 1e12), 123u);
}

TEST(TokenBucketTest, BurstThenPaced)
{
    // 1000 tokens/s, burst of 10.
    TokenBucket b(1000.0, 10.0);
    for (int i = 0; i < 10; ++i)
        EXPECT_TRUE(b.tryConsume(0, 1.0)) << i;
    EXPECT_FALSE(b.tryConsume(0, 1.0));
    // One token refills after 1 ms.
    Tick next = b.nextAvailable(0, 1.0);
    EXPECT_NEAR(double(next), double(msToTicks(1)), 2000.0);
    EXPECT_TRUE(b.tryConsume(msToTicks(1) + 10, 1.0));
}

TEST(TokenBucketTest, RefillCapsAtBurst)
{
    TokenBucket b(1000.0, 10.0);
    EXPECT_TRUE(b.tryConsume(0, 10.0));
    // After 1 s the bucket holds at most 10 again, not 1000.
    EXPECT_NEAR(b.level(tickSec), 10.0, 1e-9);
}

TEST(TokenBucketTest, ForceConsumeCreatesDebt)
{
    TokenBucket b(1000.0, 10.0);
    b.forceConsume(0, 30.0);
    EXPECT_LT(b.level(0), 0.0);
    // The 20-token debt plus one token takes 21 ms to clear.
    Tick next = b.nextAvailable(0, 1.0);
    EXPECT_NEAR(double(next), double(msToTicks(21)), 3000.0);
}

TEST(TokenBucketTest, ConservationUnderRandomLoad)
{
    // Property: tokens consumed <= burst + rate * elapsed.
    Rng rng(42);
    TokenBucket b(5000.0, 100.0);
    double consumed = 0.0;
    Tick now = 0;
    for (int i = 0; i < 10000; ++i) {
        now += Tick(rng.uniform(0, 2e6)); // up to 2 us steps
        double want = rng.uniform(0.5, 3.0);
        if (b.tryConsume(now, want))
            consumed += want;
    }
    double bound = 100.0 + 5000.0 * ticksToSec(now) + 1e-6;
    EXPECT_LE(consumed, bound);
    // And the bucket was not pathologically idle either.
    EXPECT_GT(consumed, 0.5 * bound);
}

TEST(RngTest, DeterministicAcrossInstances)
{
    Rng a(99), b(99);
    for (int i = 0; i < 100; ++i)
        EXPECT_DOUBLE_EQ(a.uniform(), b.uniform());
}

TEST(RngTest, SeedChangesStream)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 100; ++i)
        if (a.uniformInt(0, 1000000) == b.uniformInt(0, 1000000))
            ++same;
    EXPECT_LT(same, 3);
}

TEST(RngTest, DistributionsAreSane)
{
    Rng r(5);
    SummaryStats normal, expo, pareto;
    for (int i = 0; i < 20000; ++i) {
        normal.record(r.normal(10.0, 2.0));
        expo.record(r.exponential(4.0));
        pareto.record(r.pareto(1.0, 3.0));
    }
    EXPECT_NEAR(normal.mean(), 10.0, 0.1);
    EXPECT_NEAR(normal.stddev(), 2.0, 0.1);
    EXPECT_NEAR(expo.mean(), 4.0, 0.15);
    // Pareto(xm=1, alpha=3) mean = alpha/(alpha-1) = 1.5.
    EXPECT_NEAR(pareto.mean(), 1.5, 0.1);
    EXPECT_GE(pareto.min(), 1.0);
}

TEST(GaugeTest, TracksLevelAndWatermarks)
{
    Gauge g;
    EXPECT_EQ(g.value(), 0.0);
    EXPECT_EQ(g.updates(), 0u);
    g.set(4.0);
    g.add(2.0);
    g.add(-5.0);
    EXPECT_EQ(g.value(), 1.0);
    EXPECT_EQ(g.minWatermark(), 1.0);
    EXPECT_EQ(g.maxWatermark(), 6.0);
    EXPECT_EQ(g.updates(), 3u);
}

TEST(GaugeTest, ResetKeepsLevelRestartsWatermarks)
{
    Gauge g;
    g.set(10.0);
    g.set(2.0);
    g.reset();
    // The queue is still 2 deep; only the extremes restart.
    EXPECT_EQ(g.value(), 2.0);
    EXPECT_EQ(g.minWatermark(), 2.0);
    EXPECT_EQ(g.maxWatermark(), 2.0);
    g.set(3.0);
    EXPECT_EQ(g.maxWatermark(), 3.0);
    EXPECT_EQ(g.minWatermark(), 2.0);
}

/** Captures log output and restores the logger's state. */
class LogCaptureTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        Logger::global().setStream(&captured);
    }

    void
    TearDown() override
    {
        Logger::global().setStream(nullptr);
        Logger::global().debugClear();
        Logger::global().clearTickSource(this);
        Logger::global().setVerbosity(LogLevel::Inform);
    }

    std::string text() const { return captured.str(); }

    std::ostringstream captured;
};

TEST_F(LogCaptureTest, LinesCarryTickAndComponentPrefix)
{
    Tick now = 12345;
    Logger::global().setTickSource([&] { return now; }, this);
    Logger::global().print(LogLevel::Inform, "srv.guest0.iobond",
                           "chain published");
    EXPECT_EQ(text(),
              "info: [12345] srv.guest0.iobond: chain published\n");
}

TEST_F(LogCaptureTest, SimulationInstallsItsClockOnTheLogger)
{
    Simulation sim(1);
    auto *ev = new OneShotEvent([] { inform("tick check"); }, "e");
    sim.eventq().schedule(ev, nsToTicks(500));
    sim.run();
    EXPECT_NE(text().find("[" + std::to_string(nsToTicks(500)) +
                          "] "),
              std::string::npos);
}

TEST_F(LogCaptureTest, DebugHonorsPerComponentEnableSet)
{
    Logger::global().debugEnable("srv.guest0");
    debug("srv.guest0", "direct hit");
    debug("srv.guest0.iobond", "child of enabled subtree");
    debug("srv.guest1", "other guest, filtered");
    debug("srv.guest01", "prefix but not dot boundary");
    std::string out = text();
    EXPECT_NE(out.find("direct hit"), std::string::npos);
    EXPECT_NE(out.find("child of enabled subtree"),
              std::string::npos);
    EXPECT_EQ(out.find("filtered"), std::string::npos);
    EXPECT_EQ(out.find("dot boundary"), std::string::npos);
}

TEST_F(LogCaptureTest, DebugFallsBackToVerbosityWhenSetIsEmpty)
{
    debug("any.component", "too quiet"); // default: Inform
    EXPECT_EQ(text(), "");
    Logger::global().setVerbosity(LogLevel::Debug);
    debug("any.component", "now audible");
    EXPECT_NE(text().find("now audible"), std::string::npos);
}

TEST_F(LogCaptureTest, DebugDisableAndWildcard)
{
    Logger::global().debugEnable("a.b");
    Logger::global().debugDisable("a.b");
    // Set is empty again: back to the verbosity gate (Inform).
    debug("a.b", "gone");
    EXPECT_EQ(text(), "");
    Logger::global().debugEnable("");
    debug("anything.at.all", "wildcard on");
    EXPECT_NE(text().find("wildcard on"), std::string::npos);
}

} // namespace
} // namespace bmhive
