/**
 * @file
 * Tests for the observability subsystem: the MetricRegistry
 * (get-or-create handles, exporters), the RequestTracer's flow
 * accounting, the SLO monitor, the flight recorder and the span
 * records it carries, and — end to end — one net packet and one
 * block request traced through every layer of the BM-Hive datapath
 * with per-stage spans, plus a check that observers never move the
 * simulated model.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>

#include "base/logging.hh"
#include "base/random.hh"
#include "cloud/block_service.hh"
#include "cloud/vswitch.hh"
#include "core/bmhive_server.hh"
#include "obs/flight_recorder.hh"
#include "obs/metric_registry.hh"
#include "obs/request_tracer.hh"
#include "obs/slo_monitor.hh"
#include "virtio/virtio_blk.hh"

namespace bmhive {
namespace {

using obs::FlightEvent;
using obs::FlightRecorder;
using obs::MetricRegistry;
using obs::RequestTracer;
using obs::Stage;

TEST(MetricRegistryTest, HandlesAreGetOrCreate)
{
    MetricRegistry reg;
    Counter &a = reg.counter("x.pkts");
    Counter &b = reg.counter("x.pkts");
    EXPECT_EQ(&a, &b);
    a.inc(3);
    EXPECT_EQ(b.value(), 3u);
    EXPECT_EQ(reg.size(), 1u);
    EXPECT_TRUE(reg.has("x.pkts"));
    EXPECT_FALSE(reg.has("x.other"));
}

TEST(MetricRegistryTest, KindMismatchPanics)
{
    Logger::global().setThrowOnDeath(true);
    MetricRegistry reg;
    reg.counter("x");
    EXPECT_THROW(reg.gauge("x"), PanicError);
    EXPECT_THROW(reg.latency("x"), PanicError);
    Logger::global().setThrowOnDeath(false);
}

TEST(MetricRegistryTest, JsonCarriesEveryKind)
{
    MetricRegistry reg;
    reg.counter("c").inc(7);
    reg.gauge("g").set(2.5);
    reg.histogram("h").record(3);
    reg.latency("l").record(usToTicks(12));
    std::string json = reg.toJson();
    EXPECT_NE(json.find("\"c\": 7"), std::string::npos);
    EXPECT_NE(json.find("\"g\""), std::string::npos);
    EXPECT_NE(json.find("\"value\""), std::string::npos);
    EXPECT_NE(json.find("\"buckets\""), std::string::npos);
    EXPECT_NE(json.find("\"mean_us\""), std::string::npos);
    // Balanced braces — cheap structural sanity check.
    EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
              std::count(json.begin(), json.end(), '}'));
}

TEST(MetricRegistryTest, ResetAllClearsValues)
{
    MetricRegistry reg;
    Counter &c = reg.counter("c");
    c.inc(5);
    LatencyRecorder &l = reg.latency("l");
    l.record(usToTicks(3));
    reg.resetAll();
    EXPECT_EQ(c.value(), 0u);
    EXPECT_EQ(l.count(), 0u);
}

TEST(RequestTracerTest, StampsPartitionEndToEndLatency)
{
    MetricRegistry reg;
    RequestTracer tracer("g0.net", reg);
    std::uint64_t key = RequestTracer::flowKey(0, 1, 7);
    tracer.stamp(key, Stage::GuestPost, usToTicks(10));
    tracer.stamp(key, Stage::ShadowSync, usToTicks(14));
    tracer.stamp(key, Stage::PollPickup, usToTicks(19));
    tracer.stamp(key, Stage::Service, usToTicks(21));
    tracer.stamp(key, Stage::CompleteDma, usToTicks(27));
    tracer.stamp(key, Stage::GuestIrq, usToTicks(30));

    EXPECT_EQ(tracer.started(), 1u);
    EXPECT_EQ(tracer.completed(), 1u);
    EXPECT_EQ(tracer.openFlows(), 0u);
    EXPECT_DOUBLE_EQ(
        tracer.stageLatency(Stage::ShadowSync).meanUs(), 4.0);
    EXPECT_DOUBLE_EQ(
        tracer.stageLatency(Stage::PollPickup).meanUs(), 5.0);
    EXPECT_DOUBLE_EQ(tracer.stageLatency(Stage::Service).meanUs(),
                     2.0);
    EXPECT_DOUBLE_EQ(
        tracer.stageLatency(Stage::CompleteDma).meanUs(), 6.0);
    EXPECT_DOUBLE_EQ(tracer.stageLatency(Stage::GuestIrq).meanUs(),
                     3.0);
    // Stage deltas sum to the end-to-end latency by construction.
    EXPECT_DOUBLE_EQ(tracer.totalLatency().meanUs(), 20.0);
    // Metrics registered under the tracer's path.
    EXPECT_TRUE(reg.has("g0.net.stage.shadow_sync"));
    EXPECT_TRUE(reg.has("g0.net.stage.total"));
    std::string report = tracer.breakdown();
    EXPECT_NE(report.find("end-to-end"), std::string::npos);
}

TEST(RequestTracerTest, UnmatchedStampsAreCountedNotRecorded)
{
    MetricRegistry reg;
    RequestTracer tracer("g0.net", reg);
    // Backend-initiated completion with no opened flow.
    tracer.stamp(RequestTracer::flowKey(0, 0, 3),
                 Stage::CompleteDma, usToTicks(5));
    EXPECT_EQ(tracer.unmatched(), 1u);
    EXPECT_EQ(tracer.started(), 0u);
    EXPECT_EQ(tracer.stageLatency(Stage::CompleteDma).count(), 0u);
}

TEST(RequestTracerTest, SpanTargetRecordsEveryTransition)
{
    MetricRegistry reg;
    RequestTracer tracer("g0.blk", reg);
    FlightRecorder spans("g0.spans", reg, 16);
    tracer.setSpanTarget(&spans);
    for (std::uint16_t h = 0; h < 3; ++h) {
        std::uint64_t key = RequestTracer::flowKey(1, 0, h);
        tracer.stamp(key, Stage::GuestPost, usToTicks(h * 100));
        tracer.stamp(key, Stage::GuestIrq,
                     usToTicks(h * 100 + 50));
    }
    // GuestPost opens a flow without a span; each later stamp
    // closes one span that starts at the previous stamp.
    auto recs = spans.lastEvents();
    ASSERT_EQ(recs.size(), 3u);
    for (std::uint16_t h = 0; h < 3; ++h) {
        EXPECT_EQ(recs[h].ev, FlightEvent::Span);
        EXPECT_EQ(recs[h].stage, Stage::GuestIrq);
        EXPECT_EQ(recs[h].at, usToTicks(h * 100));
        EXPECT_EQ(recs[h].a, usToTicks(50));
        EXPECT_EQ(recs[h].b, RequestTracer::flowKey(1, 0, h));
        EXPECT_EQ(recs[h].fn, 1u);
        EXPECT_EQ(recs[h].q, 0u);
    }
    // Detached, the tracer stops writing spans.
    tracer.setSpanTarget(nullptr);
    tracer.stamp(RequestTracer::flowKey(1, 0, 9), Stage::GuestPost,
                 usToTicks(400));
    tracer.stamp(RequestTracer::flowKey(1, 0, 9), Stage::GuestIrq,
                 usToTicks(450));
    EXPECT_EQ(spans.recorded(), 3u);
    EXPECT_EQ(tracer.completed(), 4u);
}

TEST(RequestTracerTest, NonMonotonicStampPanics)
{
    Logger::global().setThrowOnDeath(true);
    MetricRegistry reg;
    RequestTracer tracer("g0.net", reg);
    std::uint64_t key = RequestTracer::flowKey(0, 1, 0);
    tracer.stamp(key, Stage::GuestPost, usToTicks(10));
    tracer.stamp(key, Stage::ShadowSync, usToTicks(12));
    EXPECT_THROW(
        tracer.stamp(key, Stage::PollPickup, usToTicks(11)),
        PanicError);
    Logger::global().setThrowOnDeath(false);
}

TEST(RequestTracerTest, CloseHookSeesEndToEndLatency)
{
    MetricRegistry reg;
    RequestTracer tracer("g0.blk", reg);
    Tick e2e = 0, closed_at = 0;
    unsigned closes = 0;
    tracer.setCloseHook([&](Tick lat, Tick now) {
        e2e = lat;
        closed_at = now;
        ++closes;
    });
    std::uint64_t key = RequestTracer::flowKey(1, 0, 3);
    tracer.stamp(key, Stage::GuestPost, usToTicks(10));
    tracer.stamp(key, Stage::GuestIrq, usToTicks(35));
    EXPECT_EQ(closes, 1u);
    EXPECT_EQ(e2e, usToTicks(25));
    EXPECT_EQ(closed_at, usToTicks(35));
}

TEST(RequestTracerTest, OpenFlowTableIsBoundedByEviction)
{
    MetricRegistry reg;
    RequestTracer tracer("g0.net", reg);
    tracer.setMaxOpen(4);
    // Ten flows open and never close (e.g. a wedged backend).
    for (std::uint16_t h = 0; h < 10; ++h) {
        tracer.stamp(RequestTracer::flowKey(0, 1, h),
                     Stage::GuestPost, usToTicks(h + 1));
    }
    EXPECT_EQ(tracer.openFlows(), 4u);
    EXPECT_EQ(tracer.evicted(), 6u);
    // Evictions also land on the registry-wide leak detector.
    EXPECT_EQ(reg.counter("obs.tracer.evicted_flows").value(), 6u);
    // Oldest evicted first: the survivors (heads 6..9) still close.
    for (std::uint16_t h = 6; h < 10; ++h) {
        tracer.stamp(RequestTracer::flowKey(0, 1, h),
                     Stage::GuestIrq, usToTicks(100 + h));
    }
    EXPECT_EQ(tracer.completed(), 4u);
    EXPECT_EQ(tracer.openFlows(), 0u);
}

TEST(RequestTracerTest, EvictionSkipsFlowsThatAlreadyClosed)
{
    MetricRegistry reg;
    RequestTracer tracer("g0.net", reg);
    tracer.setMaxOpen(2);
    // Two flows open and close normally...
    for (std::uint16_t h = 0; h < 2; ++h) {
        std::uint64_t key = RequestTracer::flowKey(0, 1, h);
        tracer.stamp(key, Stage::GuestPost, usToTicks(h + 1));
        tracer.stamp(key, Stage::GuestIrq, usToTicks(h + 10));
    }
    // ...so two fresh opens fit without evicting anything.
    for (std::uint16_t h = 2; h < 4; ++h) {
        tracer.stamp(RequestTracer::flowKey(0, 1, h),
                     Stage::GuestPost, usToTicks(h + 10));
    }
    EXPECT_EQ(tracer.openFlows(), 2u);
    EXPECT_EQ(tracer.evicted(), 0u);
}

TEST(RequestTracerTest, DropOpenAbortsOneQueueOnly)
{
    MetricRegistry reg;
    RequestTracer tracer("g0.net", reg);
    tracer.stamp(RequestTracer::flowKey(2, 0, 1), Stage::GuestPost,
                 usToTicks(1));
    tracer.stamp(RequestTracer::flowKey(2, 0, 2), Stage::GuestPost,
                 usToTicks(2));
    tracer.stamp(RequestTracer::flowKey(2, 1, 1), Stage::GuestPost,
                 usToTicks(3));
    unsigned closes = 0;
    tracer.setCloseHook([&](Tick, Tick) { ++closes; });
    tracer.dropOpen(2, 0);
    // Queue 0's flows aborted without closing; queue 1 untouched.
    EXPECT_EQ(tracer.openFlows(), 1u);
    EXPECT_EQ(tracer.aborted(), 2u);
    EXPECT_EQ(tracer.completed(), 0u);
    EXPECT_EQ(closes, 0u);
    tracer.stamp(RequestTracer::flowKey(2, 1, 1), Stage::GuestIrq,
                 usToTicks(9));
    EXPECT_EQ(tracer.completed(), 1u);
}

TEST(MetricRegistryTest, JsonLeadsWithSchemaVersionAndPercentiles)
{
    MetricRegistry reg;
    reg.histogram("h").record(3);
    reg.latency("l").record(usToTicks(12));
    std::string json = reg.toJson();
    EXPECT_EQ(json.rfind("{\n  \"schema_version\": 3", 0), 0u);
    // v3 histograms: no underflow/overflow; a single-value bucket
    // is [v, v + 1).
    EXPECT_EQ(json.find("underflow"), std::string::npos);
    EXPECT_NE(json.find("\"p50\":3,"), std::string::npos);
    EXPECT_NE(json.find("\"buckets\":[[3,4,1]]"), std::string::npos);
    EXPECT_NE(json.find("\"p99\""), std::string::npos);
    EXPECT_NE(json.find("\"p999\""), std::string::npos);
    EXPECT_NE(json.find("\"p90_us\""), std::string::npos);
    EXPECT_NE(json.find("\"p999_us\""), std::string::npos);
}

// --- SloMonitor ---

using obs::SloMonitor;
using obs::SloParams;
using obs::SloRole;

SloParams
tightSlo()
{
    SloParams p;
    p.window = usToTicks(100);
    p.epochs = 5; // 20 us epochs
    p.netTargetUs = 10.0;
    p.blkTargetUs = 10.0;
    p.errorBudget = 0.01;
    p.breachBurn = 1.0;
    p.minWindowSamples = 4;
    return p;
}

TEST(SloMonitorTest, PercentilesTrackTheDistribution)
{
    obs::MetricRegistry reg;
    SloMonitor slo("slo", reg, tightSlo());
    for (int i = 1; i <= 100; ++i)
        slo.record(SloRole::Net, usToTicks(double(i)), usToTicks(1));
    EXPECT_EQ(slo.windowSamples(SloRole::Net), 100u);
    double p50 = slo.percentileUs(SloRole::Net, 0.50);
    double p99 = slo.percentileUs(SloRole::Net, 0.99);
    EXPECT_GE(p50, 50.0);
    EXPECT_LE(p50, 50.0 * 1.25);
    EXPECT_GE(p99, 99.0);
    EXPECT_LE(p99, 99.0 * 1.25);
    EXPECT_LE(p50, p99);
    // Roles are independent: blk saw nothing.
    EXPECT_EQ(slo.windowSamples(SloRole::Blk), 0u);
    // Exported gauges registered under the monitor's path.
    EXPECT_TRUE(reg.has("slo.net.p99_us"));
    EXPECT_TRUE(reg.has("slo.net.burn_rate"));
    EXPECT_TRUE(reg.has("slo.blk.p50_us"));
}

// Known answers for one seeded stream under the default policy: 8 ms
// of net and blk closes, so the window rotates 8 times and breaches
// on the way. The values were captured from the monitor's original
// private bucket code; any change to bucketing, ranking, rotation or
// burn accounting moves at least one of them.
TEST(SloMonitorTest, SeededStreamKnownAnswers)
{
    obs::MetricRegistry reg;
    SloMonitor slo("slo", reg);
    Rng rng(2024);
    for (int i = 0; i < 4000; ++i) {
        Tick now = usToTicks(2.0 * i);
        slo.record(SloRole::Net,
                   Tick(rng.lognormal(std::log(60e6), 0.7)), now);
        if (i % 4 == 0)
            slo.record(SloRole::Blk,
                       Tick(rng.lognormal(std::log(300e6), 0.9)), now);
    }
    slo.refresh(usToTicks(8000.0));

    EXPECT_EQ(slo.windowSamples(SloRole::Net), 2000u);
    EXPECT_EQ(slo.violations(SloRole::Net), 183u);
    EXPECT_EQ(slo.breaches(SloRole::Net), 8u);
    EXPECT_DOUBLE_EQ(slo.percentileUs(SloRole::Net, 0.50), 65.536);
    EXPECT_DOUBLE_EQ(slo.percentileUs(SloRole::Net, 0.90), 163.84);
    EXPECT_DOUBLE_EQ(slo.percentileUs(SloRole::Net, 0.99), 327.68);
    EXPECT_DOUBLE_EQ(slo.percentileUs(SloRole::Net, 0.999), 655.36);
    EXPECT_DOUBLE_EQ(slo.burnRate(SloRole::Net), 4.2);

    EXPECT_EQ(slo.windowSamples(SloRole::Blk), 500u);
    EXPECT_EQ(slo.violations(SloRole::Blk), 89u);
    EXPECT_EQ(slo.breaches(SloRole::Blk), 8u);
    EXPECT_DOUBLE_EQ(slo.percentileUs(SloRole::Blk, 0.50), 327.68);
    EXPECT_DOUBLE_EQ(slo.percentileUs(SloRole::Blk, 0.90), 1048.576);
    EXPECT_DOUBLE_EQ(slo.percentileUs(SloRole::Blk, 0.99), 2621.44);
    EXPECT_DOUBLE_EQ(slo.percentileUs(SloRole::Blk, 0.999), 6291.456);
    EXPECT_DOUBLE_EQ(slo.burnRate(SloRole::Blk), 9.0);

    // The exported gauges saw every rotation's window.
    Gauge &net999 = reg.gauge("slo.net.p999_us");
    EXPECT_DOUBLE_EQ(net999.value(), 655.36);
    EXPECT_DOUBLE_EQ(net999.minWatermark(), 524.288);
    EXPECT_DOUBLE_EQ(net999.maxWatermark(), 1048.576);
    Gauge &blkBurn = reg.gauge("slo.blk.burn_rate");
    EXPECT_DOUBLE_EQ(blkBurn.minWatermark(), 6.8);
    EXPECT_DOUBLE_EQ(blkBurn.maxWatermark(), 11.2);
    EXPECT_EQ(slo.rotations(), 16u);
}

TEST(SloMonitorTest, WindowRotationForgetsOldEpochs)
{
    obs::MetricRegistry reg;
    SloMonitor slo("slo", reg, tightSlo());
    for (int i = 0; i < 10; ++i)
        slo.record(SloRole::Net, usToTicks(1.0), usToTicks(2));
    EXPECT_EQ(slo.windowSamples(SloRole::Net), 10u);
    // One epoch later the samples are still in the window...
    slo.record(SloRole::Net, usToTicks(1.0), usToTicks(25));
    EXPECT_EQ(slo.windowSamples(SloRole::Net), 11u);
    EXPECT_GE(slo.rotations(), 1u);
    // ...a full window later they are gone; totals persist.
    slo.refresh(usToTicks(500));
    EXPECT_EQ(slo.windowSamples(SloRole::Net), 0u);
    EXPECT_EQ(slo.totalSamples(SloRole::Net), 11u);
}

TEST(SloMonitorTest, BurnAboveThresholdRaisesBreach)
{
    obs::MetricRegistry reg;
    SloMonitor slo("slo", reg, tightSlo());
    SloRole breached = SloRole::Blk;
    double burn_seen = 0.0;
    unsigned fired = 0;
    slo.setBreachCallback([&](SloRole r, double burn) {
        breached = r;
        burn_seen = burn;
        ++fired;
    });
    // Every sample violates the 10 us target; burn = 1/0.01 = 100.
    for (int i = 0; i < 10; ++i)
        slo.record(SloRole::Net, usToTicks(50.0), usToTicks(2));
    EXPECT_EQ(slo.violations(SloRole::Net), 10u);
    EXPECT_EQ(fired, 0u); // no rotation yet
    slo.refresh(usToTicks(25)); // crosses an epoch boundary
    EXPECT_EQ(fired, 1u);
    EXPECT_EQ(breached, SloRole::Net);
    EXPECT_GE(burn_seen, 99.0);
    EXPECT_EQ(slo.breaches(SloRole::Net), 1u);
}

TEST(SloMonitorTest, FewSamplesNeverBreach)
{
    obs::MetricRegistry reg;
    SloMonitor slo("slo", reg, tightSlo()); // minWindowSamples = 4
    unsigned fired = 0;
    slo.setBreachCallback([&](SloRole, double) { ++fired; });
    for (int i = 0; i < 3; ++i)
        slo.record(SloRole::Net, usToTicks(50.0), usToTicks(2));
    slo.refresh(usToTicks(25));
    EXPECT_EQ(fired, 0u);
    EXPECT_EQ(slo.breaches(SloRole::Net), 0u);
}

// --- FlightRecorder ---

TEST(FlightRecorderTest, RingWrapsAndKeepsTheTail)
{
    obs::MetricRegistry reg;
    FlightRecorder fr("g0.flight", reg, 8);
    for (unsigned i = 0; i < 20; ++i)
        fr.record(Tick(i) * 1000, FlightEvent::DoorbellAccept, 3, 0,
                  i);
    EXPECT_EQ(fr.size(), 8u);
    EXPECT_EQ(fr.recorded(), 20u);
    EXPECT_EQ(fr.overwritten(), 12u);
    EXPECT_EQ(reg.counter("g0.flight.events").value(), 20u);
    auto events = fr.lastEvents();
    ASSERT_EQ(events.size(), 8u);
    // Oldest-first unwrap: survivors are events 12..19.
    for (unsigned i = 0; i < 8; ++i)
        EXPECT_EQ(events[i].a, 12u + i);
    // A bounded slice takes the newest n.
    auto tail = fr.lastEvents(3);
    ASSERT_EQ(tail.size(), 3u);
    EXPECT_EQ(tail.front().a, 17u);
    EXPECT_EQ(tail.back().a, 19u);
}

TEST(FlightRecorderTest, ChromeJsonCarriesTriggerAndEvents)
{
    obs::MetricRegistry reg;
    FlightRecorder fr("g0.flight", reg, 8);
    fr.record(usToTicks(5), FlightEvent::DoorbellAccept, 3, 1);
    fr.record(usToTicks(6), FlightEvent::Msi, 3, 1, 42);
    fr.recordSpan(usToTicks(5), Stage::ShadowSync, usToTicks(2), 3, 1,
                  7);
    std::string json = fr.toChromeJson(0, "quarantine");
    EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(json.find("\"trigger\":\"quarantine\""),
              std::string::npos);
    EXPECT_NE(json.find("\"doorbell_accept\""), std::string::npos);
    EXPECT_NE(json.find("\"msi\""), std::string::npos);
    // A span is a complete event named after its stage.
    EXPECT_NE(json.find("\"name\":\"shadow_sync\",\"cat\":\"flight\","
                        "\"ph\":\"X\",\"ts\":5.000000,"
                        "\"dur\":2.000000,"),
              std::string::npos);
    EXPECT_NE(json.find("g0.flight"), std::string::npos);
    EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
              std::count(json.begin(), json.end(), '}'));

    std::string path =
        ::testing::TempDir() + "/fr_unit_dump.json";
    ASSERT_TRUE(fr.writeChromeJson(path, 0, "unit"));
    std::ifstream in(path);
    std::stringstream body;
    body << in.rdbuf();
    EXPECT_EQ(body.str(), fr.toChromeJson(0, "unit"));
}

/** Full-stack tracing over a provisioned BM-Hive server. */
class ObsIntegrationTest : public ::testing::Test
{
  protected:
    ObsIntegrationTest()
        : sim(97), vswitch(sim, "vs"), storage(sim, "st"),
          server(sim, "srv", vswitch, &storage, params()),
          spans("srv.spans", sim.metrics(), 64)
    {
    }

    static core::BmServerParams
    params()
    {
        core::BmServerParams p;
        p.maxBoards = 2;
        return p;
    }

    /** Check the one flow @p tracer closed, as written to the
     *  span target @p spans. */
    static void
    expectCompleteMonotonicFlow(const RequestTracer &tracer,
                                const FlightRecorder &spans)
    {
        ASSERT_EQ(tracer.completed(), 1u);
        // Every span of the Fig. 6 path up to the flow's final
        // stage, exactly once and in path order — except
        // SchedDelay, which a Dedicated poll loop never stamps.
        std::vector<Stage> path;
        for (unsigned s = unsigned(Stage::ShadowSync);
             s <= unsigned(tracer.finalStage()); ++s)
            if (Stage(s) != Stage::SchedDelay)
                path.push_back(Stage(s));
        auto recs = spans.lastEvents();
        ASSERT_EQ(recs.size(), path.size());
        Tick start = recs.front().at;
        Tick sum = 0;
        for (std::size_t i = 0; i < recs.size(); ++i) {
            EXPECT_EQ(recs[i].ev, FlightEvent::Span);
            EXPECT_EQ(recs[i].stage, path[i]);
            EXPECT_EQ(recs[i].b, recs.front().b) << "one flow";
            EXPECT_EQ(RequestTracer::flowKey(
                          recs[i].fn, recs[i].q,
                          std::uint16_t(recs[i].b)),
                      recs[i].b);
            // ...with span starts that never decrease...
            EXPECT_GE(recs[i].at, start)
                << obs::stageName(recs[i].stage)
                << " starts before its predecessor";
            start = recs[i].at;
            sum += recs[i].a;
        }
        // ...and durations that tile the doorbell -> close latency.
        EXPECT_GT(sum, 0u);
        EXPECT_DOUBLE_EQ(ticksToUs(sum), tracer.totalLatency().meanUs());
        // Per-stage recorders saw exactly this one flow.
        EXPECT_EQ(tracer.stageLatency(Stage::ShadowSync).count(),
                  1u);
        EXPECT_EQ(tracer.stageLatency(tracer.finalStage()).count(),
                  1u);
        EXPECT_EQ(tracer.totalLatency().count(), 1u);
    }

    Simulation sim;
    cloud::VSwitch vswitch;
    cloud::BlockService storage;
    core::BmHiveServer server;
    FlightRecorder spans;
};

TEST_F(ObsIntegrationTest, OneNetPacketYieldsEverySpanOnce)
{
    auto &a = server.provision(core::InstanceCatalog::evaluated(),
                               0xA);
    auto &b = server.provision(core::InstanceCatalog::evaluated(),
                               0xB);
    sim.run(sim.now() + msToTicks(1));
    a.hypervisor().enableIoTracing();
    a.hypervisor().netTracer()->setSpanTarget(&spans);

    unsigned delivered = 0;
    b.net().setRxHandler(
        [&](const cloud::Packet &) { ++delivered; });
    cloud::Packet p;
    p.src = 0xA;
    p.dst = 0xB;
    p.len = 256;
    ASSERT_TRUE(a.net().sendPacket(p, true, a.os().cpu(1)));
    sim.run(sim.now() + msToTicks(5));
    ASSERT_EQ(delivered, 1u);

    auto *tracer = a.hypervisor().netTracer();
    ASSERT_NE(tracer, nullptr);
    // Tx completion MSIs are suppressed by the driver, so the flow
    // ends at the completion DMA.
    EXPECT_EQ(tracer->finalStage(), Stage::CompleteDma);
    expectCompleteMonotonicFlow(*tracer, spans);
    // The tx flow matched; nothing leaked onto other queues.
    EXPECT_EQ(tracer->openFlows(), 0u);
}

TEST_F(ObsIntegrationTest, OneBlockRequestYieldsEverySpanOnce)
{
    auto &vol = storage.createVolume("v", 16 * MiB);
    auto &g = server.provision(core::InstanceCatalog::evaluated(),
                               0xA, &vol);
    sim.run(sim.now() + msToTicks(1));
    g.hypervisor().enableIoTracing();
    g.hypervisor().blkTracer()->setSpanTarget(&spans);

    bool done = false;
    ASSERT_TRUE(g.blk()->read(
        0, 4 * KiB, g.os().cpu(1), [&](std::uint8_t st, Addr) {
            EXPECT_EQ(st, virtio::VIRTIO_BLK_S_OK);
            done = true;
        }));
    sim.run(sim.now() + msToTicks(30));
    ASSERT_TRUE(done);

    auto *tracer = g.hypervisor().blkTracer();
    ASSERT_NE(tracer, nullptr);
    // Block completions raise a real MSI: all six spans appear.
    EXPECT_EQ(tracer->finalStage(), Stage::GuestIrq);
    expectCompleteMonotonicFlow(*tracer, spans);
    // The Service stage covers the storage round trip: two fabric
    // crossings plus SSD service time dominate it.
    EXPECT_GT(tracer->stageLatency(Stage::Service).meanUs(),
              2.0 * ticksToUs(
                        cloud::BlockServiceParams{}.networkLatency));
}

TEST_F(ObsIntegrationTest, PollLoopUtilizationIsAccounted)
{
    auto &vol = storage.createVolume("v", 16 * MiB);
    auto &g = server.provision(core::InstanceCatalog::evaluated(),
                               0xA, &vol);
    sim.run(sim.now() + msToTicks(2));

    auto &svc = g.hypervisor().service();
    // A mostly idle guest: the PMD spins, almost always empty.
    EXPECT_GT(svc.pollsTotal(), 100u);
    std::uint64_t busy_before = svc.pollsBusy();
    EXPECT_LT(svc.pollBusyRatio(), 0.5);

    bool done = false;
    ASSERT_TRUE(g.blk()->read(0, 4 * KiB, g.os().cpu(1),
                              [&](std::uint8_t, Addr) {
                                  done = true;
                              }));
    sim.run(sim.now() + msToTicks(30));
    ASSERT_TRUE(done);
    EXPECT_GT(svc.pollsBusy(), busy_before);
    // The poll metrics live in the registry under the service name.
    EXPECT_TRUE(sim.metrics().has(svc.name() + ".poll.total"));
    EXPECT_TRUE(sim.metrics().has(svc.name() + ".poll.batch"));
}

TEST_F(ObsIntegrationTest, PeriodicStatsDumpFiresUntilStopped)
{
    server.provision(core::InstanceCatalog::evaluated(), 0xA);
    // The rollup goes to the log; capture it rather than spamming
    // the test output.
    std::ostringstream captured;
    Logger::global().setStream(&captured);
    server.startStatsDump(msToTicks(1));
    sim.run(sim.now() + msToTicks(5) + usToTicks(10));
    Logger::global().setStream(nullptr);
    EXPECT_GE(server.statsDumps(), 5u);
    EXPECT_NE(captured.str().find("guest0"), std::string::npos);
    EXPECT_NE(captured.str().find("polls="), std::string::npos);

    server.stopStatsDump();
    std::uint64_t n = server.statsDumps();
    sim.run(sim.now() + msToTicks(3));
    EXPECT_EQ(server.statsDumps(), n);
}

TEST_F(ObsIntegrationTest, ComponentCountersLiveInTheRegistry)
{
    auto &a = server.provision(core::InstanceCatalog::evaluated(),
                               0xA);
    auto &b = server.provision(core::InstanceCatalog::evaluated(),
                               0xB);
    sim.run(sim.now() + msToTicks(1));
    b.net().setRxHandler([](const cloud::Packet &) {});
    cloud::Packet p;
    p.src = 0xA;
    p.dst = 0xB;
    p.len = 64;
    ASSERT_TRUE(a.net().sendPacket(p, true, a.os().cpu(1)));
    sim.run(sim.now() + msToTicks(5));

    // Accessor and registry handle are the same cell.
    EXPECT_EQ(vswitch.forwarded(),
              sim.metrics().counter("vs.forwarded").value());
    EXPECT_GE(vswitch.forwarded(), 1u);
    EXPECT_EQ(
        a.hypervisor().service().txPackets(),
        sim.metrics()
            .counter(a.hypervisor().service().name() + ".tx_pkts")
            .value());
    EXPECT_EQ(a.bond().chainsForwarded(),
              sim.metrics()
                  .counter(a.bond().name() + ".chains")
                  .value());
}

TEST_F(ObsIntegrationTest, TracedRunEmitsChromeSpans)
{
    auto &vol = storage.createVolume("v", 16 * MiB);
    auto &g = server.provision(core::InstanceCatalog::evaluated(),
                               0xA, &vol);
    sim.run(sim.now() + msToTicks(1));
    g.hypervisor().enableIoTracing();
    g.hypervisor().blkTracer()->setSpanTarget(&spans);

    bool done = false;
    ASSERT_TRUE(g.blk()->read(0, 4 * KiB, g.os().cpu(1),
                              [&](std::uint8_t, Addr) {
                                  done = true;
                              }));
    sim.run(sim.now() + msToTicks(30));
    ASSERT_TRUE(done);

    // Every span record is a complete event whose ts/dur are the
    // record's start and duration.
    std::string json = spans.toChromeJson();
    EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(json.find("srv.spans"), std::string::npos);
    auto recs = spans.lastEvents();
    ASSERT_GE(recs.size(), 4u);
    for (const auto &r : recs) {
        char want[128];
        std::snprintf(want, sizeof(want),
                      "\"name\":\"%s\",\"cat\":\"flight\",\"ph\":\"X\","
                      "\"ts\":%.6f,\"dur\":%.6f,",
                      obs::stageName(r.stage), ticksToUs(r.at),
                      ticksToUs(r.a));
        EXPECT_NE(json.find(want), std::string::npos) << want;
    }
    EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
              std::count(json.begin(), json.end(), '}'));
    // Spans are the only records here: no instants.
    EXPECT_EQ(json.find("\"ph\":\"i\""), std::string::npos);
}

// --- Anomaly-triggered flight dumps ---

namespace fs = std::filesystem;

/** Dump files under @p dir, sorted by name. */
std::vector<std::string>
dumpFiles(const std::string &dir)
{
    std::vector<std::string> names;
    for (const auto &e : fs::directory_iterator(dir))
        names.push_back(e.path().filename().string());
    std::sort(names.begin(), names.end());
    return names;
}

std::string
slurp(const std::string &path)
{
    std::ifstream in(path);
    std::stringstream body;
    body << in.rdbuf();
    return body.str();
}

/** A server whose anomaly dumps land in a per-test temp dir. */
class FlightDumpTest : public ::testing::Test
{
  protected:
    FlightDumpTest()
        : dir(::testing::TempDir() + "/flight_dumps_" +
              ::testing::UnitTest::GetInstance()
                  ->current_test_info()
                  ->name()),
          sim(7), vswitch(sim, "vs"), storage(sim, "st"),
          server(sim, "srv", vswitch, &storage, params(dir))
    {
    }

    static core::BmServerParams
    params(const std::string &dir)
    {
        fs::remove_all(dir);
        fs::create_directories(dir);
        core::BmServerParams p;
        p.maxBoards = 2;
        p.obs.flightDumpDir = dir;
        return p;
    }

    std::string dir;
    Simulation sim;
    cloud::VSwitch vswitch;
    cloud::BlockService storage;
    core::BmHiveServer server;
};

TEST_F(FlightDumpTest, QuarantineEntryDumpsTheAttackerOnce)
{
    auto &atk = server.provision(core::InstanceCatalog::evaluated(),
                                 0xA);
    auto &vic = server.provision(core::InstanceCatalog::evaluated(),
                                 0xB);
    sim.run(sim.now() + msToTicks(1));
    ASSERT_NE(atk.flight(), nullptr);
    ASSERT_NE(atk.slo(), nullptr);

    // Put real datapath events in the attacker's ring first.
    vic.net().setRxHandler([](const cloud::Packet &) {});
    cloud::Packet pkt;
    pkt.src = 0xA;
    pkt.dst = 0xB;
    pkt.len = 128;
    ASSERT_TRUE(atk.net().sendPacket(pkt, true, atk.os().cpu(1)));
    sim.run(sim.now() + msToTicks(1));
    ASSERT_GT(atk.flight()->size(), 0u);

    server.quarantineGuest(0);
    EXPECT_EQ(server.flightDumps(), 1u);
    auto files = dumpFiles(dir);
    ASSERT_EQ(files.size(), 1u);
    EXPECT_NE(files[0].find("flight_srv_guest0_quarantine"),
              std::string::npos);
    EXPECT_EQ(server.lastFlightDumpPath(), dir + "/" + files[0]);

    // The dump is the attacker's black box, not the victim's.
    std::string body = slurp(server.lastFlightDumpPath());
    EXPECT_NE(body.find("\"trigger\":\"quarantine\""),
              std::string::npos);
    EXPECT_NE(body.find("srv.guest0.flight"), std::string::npos);
    EXPECT_EQ(body.find("srv.guest1.flight"), std::string::npos);
    EXPECT_NE(body.find("\"doorbell_accept\""), std::string::npos);
    EXPECT_EQ(std::count(body.begin(), body.end(), '{'),
              std::count(body.begin(), body.end(), '}'));

    // Quarantine release resets every function; those resets are
    // cleanup, not anomalies — still exactly one dump afterwards.
    sim.run(sim.now() + msToTicks(10));
    EXPECT_EQ(server.flightDumps(), 1u);
    EXPECT_EQ(dumpFiles(dir).size(), 1u);
}

TEST_F(FlightDumpTest, WatchdogRespawnDumps)
{
    auto &g = server.provision(core::InstanceCatalog::evaluated(),
                               0xA);
    sim.run(sim.now() + msToTicks(1));
    server.startWatchdog(msToTicks(2));
    g.hypervisor().crash();
    sim.run(sim.now() + msToTicks(5));
    EXPECT_GE(server.watchdogRespawns(), 1u);
    ASSERT_GE(server.flightDumps(), 1u);
    auto files = dumpFiles(dir);
    ASSERT_GE(files.size(), 1u);
    EXPECT_NE(files[0].find("flight_srv_guest0_watchdog"),
              std::string::npos);
    std::string body = slurp(dir + "/" + files[0]);
    EXPECT_NE(body.find("\"trigger\":\"watchdog\""),
              std::string::npos);
}

TEST_F(FlightDumpTest, DeviceResetDumps)
{
    auto &g = server.provision(core::InstanceCatalog::evaluated(),
                               0xA);
    sim.run(sim.now() + msToTicks(1));
    // An infrastructure-side function failure on a healthy guest:
    // DEVICE_NEEDS_RESET propagates and the dump explains it.
    // (Function 0 is the NIC; indices are per-bond, not PCI slots.)
    g.bond().failFunction(0);
    EXPECT_EQ(server.flightDumps(), 1u);
    auto files = dumpFiles(dir);
    ASSERT_EQ(files.size(), 1u);
    EXPECT_NE(files[0].find("flight_srv_guest0_reset"),
              std::string::npos);
    std::string body = slurp(dir + "/" + files[0]);
    EXPECT_NE(body.find("\"trigger\":\"reset\""),
              std::string::npos);
    // The Reset event itself is in the ring, on the failed fn.
    EXPECT_NE(body.find("\"reset\""), std::string::npos);
}

TEST_F(FlightDumpTest, CooldownSuppressesDumpStorms)
{
    auto &g = server.provision(core::InstanceCatalog::evaluated(),
                               0xA);
    sim.run(sim.now() + msToTicks(1));
    g.bond().failFunction(0);
    g.bond().failFunction(1); // same tick: within cooldown
    EXPECT_EQ(server.flightDumpTriggers(), 2u);
    EXPECT_EQ(server.flightDumps(), 1u);
    EXPECT_EQ(dumpFiles(dir).size(), 1u);
}

TEST(FlightDumpSloTest, SloBreachDumpsAndCounts)
{
    std::string dir = ::testing::TempDir() + "/flight_dumps_slo";
    fs::remove_all(dir);
    fs::create_directories(dir);
    Simulation sim(7);
    cloud::VSwitch vswitch(sim, "vs");
    cloud::BlockService storage(sim, "st");
    core::BmServerParams pp;
    pp.maxBoards = 2;
    pp.obs.flightDumpDir = dir;
    // An unmeetable 1 ns target: every request violates, so the
    // first rotation with enough window samples breaches.
    pp.obs.slo.netTargetUs = 0.001;
    pp.obs.slo.window = msToTicks(1.0);
    pp.obs.slo.minWindowSamples = 8;
    core::BmHiveServer server(sim, "srv", vswitch, &storage, pp);

    auto &a = server.provision(core::InstanceCatalog::evaluated(),
                               0xA);
    auto &b = server.provision(core::InstanceCatalog::evaluated(),
                               0xB);
    sim.run(sim.now() + msToTicks(1));
    b.net().setRxHandler([](const cloud::Packet &) {});

    cloud::Packet p;
    p.src = 0xA;
    p.dst = 0xB;
    p.len = 128;
    for (int i = 0; i < 40; ++i) {
        ASSERT_TRUE(a.net().sendPacket(p, true, a.os().cpu(1)));
        sim.run(sim.now() + usToTicks(100));
    }
    EXPECT_GE(server.sloBreaches(), 1u);
    EXPECT_GE(a.slo()->breaches(obs::SloRole::Net), 1u);
    auto files = dumpFiles(dir);
    ASSERT_GE(files.size(), 1u);
    bool breach_dump = false;
    for (const auto &f : files)
        breach_dump |= f.find("slo_breach") != std::string::npos;
    EXPECT_TRUE(breach_dump);
    // The breach landed in the guest's own ring too.
    std::string body = slurp(server.lastFlightDumpPath());
    EXPECT_NE(body.find("\"slo_breach\""), std::string::npos);
}

// --- Observers do not move the model ---

/** Metric name -> its JSON value, one toJson() line per metric. */
std::map<std::string, std::string>
metricValues(const MetricRegistry &reg)
{
    std::map<std::string, std::string> out;
    std::istringstream in(reg.toJson());
    std::string line;
    while (std::getline(in, line)) {
        auto colon = line.find("\": ");
        if (line.rfind("  \"", 0) != 0 || colon == std::string::npos)
            continue;
        std::string value = line.substr(colon + 3);
        if (!value.empty() && value.back() == ',')
            value.pop_back();
        out[line.substr(3, colon - 3)] = value;
    }
    return out;
}

/**
 * One seeded two-guest run: net tx both ways, block reads and
 * writes on both guests, and a NIC reset on guest 0 half-way.
 * @p obs_on selects BmServerParams::obs.enabled; @p spans attaches
 * a span recorder to both tracers of each guest.
 */
std::map<std::string, std::string>
observedRun(bool obs_on, bool spans)
{
    Simulation sim(31);
    cloud::VSwitch vswitch(sim, "vs");
    cloud::BlockService storage(sim, "st");
    core::BmServerParams p;
    p.maxBoards = 2;
    p.obs.enabled = obs_on;
    core::BmHiveServer server(sim, "srv", vswitch, &storage, p);
    std::vector<core::BmGuest *> guests;
    std::vector<std::unique_ptr<FlightRecorder>> recorders;
    for (unsigned i = 0; i < 2; ++i) {
        auto &vol = storage.createVolume("v" + std::to_string(i),
                                         16 * MiB);
        auto &g = server.provision(core::InstanceCatalog::evaluated(),
                                   0xA + i, &vol);
        g.net().setRxHandler([](const cloud::Packet &) {});
        guests.push_back(&g);
        if (!spans)
            continue;
        recorders.push_back(std::make_unique<FlightRecorder>(
            "srv.guest" + std::to_string(i) + ".spans", sim.metrics(),
            4096));
        g.hypervisor().netTracer()->setSpanTarget(recorders.back().get());
        g.hypervisor().blkTracer()->setSpanTarget(recorders.back().get());
    }
    sim.run(sim.now() + msToTicks(1));

    for (unsigned round = 0; round < 20; ++round) {
        if (round == 10)
            guests[0]->bond().failFunction(0);
        for (unsigned i = 0; i < 2; ++i) {
            core::BmGuest &g = *guests[i];
            cloud::Packet pkt;
            pkt.src = 0xA + i;
            pkt.dst = 0xA + (1 - i);
            pkt.len = 256;
            pkt.seq = round;
            g.net().sendPacket(pkt, true, g.os().cpu(1));
            std::uint64_t sector = (round * 2 + i) * 8;
            if (round % 2)
                g.blk()->write(sector, 4 * KiB, nullptr, g.os().cpu(0),
                               [](std::uint8_t, Addr) {});
            else
                g.blk()->read(sector, 4 * KiB, g.os().cpu(0),
                              [](std::uint8_t, Addr) {});
        }
        sim.run(sim.now() + usToTicks(500));
    }
    sim.run(sim.now() + msToTicks(20));
    return metricValues(sim.metrics());
}

/** Names both runs register, compared value by value; the server's
 *  own obs dump counters are skipped when @p skip_dumps. */
unsigned
expectSharedMetricsEqual(const std::map<std::string, std::string> &a,
                         const std::map<std::string, std::string> &b,
                         bool skip_dumps)
{
    unsigned shared = 0;
    for (const auto &[name, value] : a) {
        auto it = b.find(name);
        if (it == b.end())
            continue;
        if (skip_dumps && name.rfind("srv.obs.", 0) == 0)
            continue;
        ++shared;
        EXPECT_EQ(value, it->second) << name;
    }
    return shared;
}

TEST(ObserverInvarianceTest, ObsAndSpansNeverMoveTheModel)
{
    auto off = observedRun(false, false);
    auto on = observedRun(true, false);
    auto traced = observedRun(true, true);

    // The run did what it says: traffic both ways, a reset (it
    // triggers a flight dump), closed flows, span records.
    EXPECT_NE(off.at("srv.guest0.hv.svc.tx_pkts"), "0");
    EXPECT_NE(off.at("srv.guest1.hv.svc.tx_pkts"), "0");
    EXPECT_NE(off.at("st.writes"), "0");
    EXPECT_EQ(on.at("srv.obs.dump_triggers"), "1");
    EXPECT_NE(on.at("srv.guest1.hv.blk.flows.completed"), "0");
    EXPECT_NE(traced.at("srv.guest0.spans.events"), "0");

    for (const auto &[name, value] : off) {
        EXPECT_TRUE(on.count(name)) << name << " only with obs off";
        EXPECT_TRUE(traced.count(name)) << name << " only with obs off";
    }
    EXPECT_GT(expectSharedMetricsEqual(off, on, true), 50u);
    EXPECT_GT(expectSharedMetricsEqual(off, traced, true), 50u);
    // Span targets add their own counters and change nothing else.
    EXPECT_EQ(expectSharedMetricsEqual(on, traced, false), on.size());
}

} // namespace
} // namespace bmhive
