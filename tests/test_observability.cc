/**
 * @file
 * Time-series observability tests: histogram bucketing and quantile
 * determinism (concurrent == serial, TSan-covered), snapshot merge
 * associativity, empty-histogram NaN semantics, registry and manifest
 * integration, the structured event log (record shape, level filter,
 * correlation IDs, strict JSON), the flight recorder CSV and its
 * Chrome counter/metadata events, and the progress-meter clamp.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/event_log.hh"
#include "common/flight_recorder.hh"
#include "common/histogram.hh"
#include "common/instrument.hh"
#include "common/json_value.hh"
#include "common/parallel.hh"

using namespace mcpat;

namespace {

/** Force instrumentation on/off and restore a clean "off" state. */
struct InstrumentGuard
{
    explicit InstrumentGuard(bool on)
    {
        instr::setEnabled(on);
        instr::Registry::instance().reset();
        instr::clearTrace();
    }
    ~InstrumentGuard()
    {
        instr::setEnabled(false);
        instr::Registry::instance().reset();
        instr::clearTrace();
    }
};

/** Close the event log and delete its file when the test ends. */
struct EventLogGuard
{
    std::string path;
    explicit EventLogGuard(std::string p) : path(std::move(p)) {}
    ~EventLogGuard()
    {
        elog::close();
        std::remove(path.c_str());
    }
};

std::vector<std::string>
readLines(const std::string &path)
{
    std::vector<std::string> lines;
    std::ifstream in(path);
    std::string line;
    while (std::getline(in, line))
        if (!line.empty())
            lines.push_back(line);
    return lines;
}

/** The deterministic multiset used by the concurrent == serial test. */
double
sampleValue(std::size_t i)
{
    // Spread across several octaves, with repeats.
    return 0.125 * static_cast<double>(1 + (i * 37) % 997);
}

} // namespace

// ---------------------------------------------------------------------
// Histogram bucketing.
// ---------------------------------------------------------------------

TEST(Histogram, BucketIndexIsMonotoneAndSelfConsistent)
{
    int prev = 0;
    for (double v : {1e-12, 1e-9, 0.001, 0.5, 1.0, 1.5, 2.0, 3.0, 10.0,
                     1000.0, 1e6, 1e9, 1e12}) {
        const int idx = instr::Histogram::bucketIndex(v);
        ASSERT_GE(idx, 0);
        ASSERT_LT(idx, instr::Histogram::kBuckets);
        EXPECT_GE(idx, prev) << "non-monotone at v=" << v;
        prev = idx;
        // In-range values land inside their reported bucket bounds
        // (out-of-range values clamp to the first/last real bucket).
        if (idx > 0 && idx < instr::Histogram::kBuckets - 1 &&
            v >= instr::Histogram::bucketLowerBound(1)) {
            EXPECT_GE(v, instr::Histogram::bucketLowerBound(idx));
            EXPECT_LT(v, instr::Histogram::bucketUpperBound(idx));
        }
    }
}

TEST(Histogram, BucketWidthWithinRelativeBound)
{
    // Every real bucket spans at most 1/kSubBuckets of its low edge —
    // the "within one bucket width" resolution quoted for quantiles.
    for (int idx = 1; idx < instr::Histogram::kBuckets - 1; ++idx) {
        const double lo = instr::Histogram::bucketLowerBound(idx);
        const double hi = instr::Histogram::bucketUpperBound(idx);
        ASSERT_GT(hi, lo);
        EXPECT_LE((hi - lo) / lo,
                  1.0 / instr::Histogram::kSubBuckets + 1e-12)
            << "bucket " << idx;
        const double mid = instr::Histogram::bucketMidpoint(idx);
        EXPECT_GE(mid, lo);
        EXPECT_LE(mid, hi);
    }
}

TEST(Histogram, NonPositiveUnderflowsAndNaNIsDropped)
{
    instr::Histogram h;
    h.record(0.0);
    h.record(-1.0);
    h.record(std::nan(""));
    const auto snap = h.snapshot();
    EXPECT_EQ(snap.count, 2u);  // NaN dropped entirely
    ASSERT_EQ(snap.buckets.size(), 1u);
    EXPECT_EQ(snap.buckets[0].first, 0);  // underflow bucket
    EXPECT_EQ(snap.buckets[0].second, 2u);
}

TEST(Histogram, ExtremeValuesClampToRangeEnds)
{
    instr::Histogram h;
    h.record(1e300);
    h.record(1e-300);
    const auto snap = h.snapshot();
    ASSERT_EQ(snap.buckets.size(), 2u);
    EXPECT_EQ(snap.buckets[0].first, 1);
    EXPECT_EQ(snap.buckets[1].first, instr::Histogram::kBuckets - 1);
    EXPECT_EQ(snap.min, 1e-300);
    EXPECT_EQ(snap.max, 1e300);
}

// ---------------------------------------------------------------------
// Determinism: concurrent == serial.
// ---------------------------------------------------------------------

TEST(Histogram, ConcurrentRecordMatchesSerialQuantiles)
{
    constexpr std::size_t kValues = 20000;

    instr::Histogram serial;
    for (std::size_t i = 0; i < kValues; ++i)
        serial.record(sampleValue(i));

    instr::Histogram concurrent;
    parallel::parallelFor(kValues, [&](std::size_t i) {
        concurrent.record(sampleValue(i));
    });

    const auto a = serial.snapshot();
    const auto b = concurrent.snapshot();
    ASSERT_EQ(a.count, b.count);
    ASSERT_EQ(a.buckets, b.buckets);
    EXPECT_EQ(a.min, b.min);
    EXPECT_EQ(a.max, b.max);
    // Bucketized quantiles are exactly equal regardless of insertion
    // order; the exact sum differs only by FP addition order.
    for (double p : {0.0, 0.01, 0.25, 0.5, 0.75, 0.95, 0.99, 1.0})
        EXPECT_EQ(a.quantile(p), b.quantile(p)) << "p=" << p;
    EXPECT_NEAR(a.sum, b.sum, 1e-6 * std::abs(a.sum));
}

TEST(Histogram, QuantilesMatchNearestRankWithinBucketWidth)
{
    instr::Histogram h;
    for (int i = 1; i <= 100; ++i)
        h.record(static_cast<double>(i));
    const auto snap = h.snapshot();
    ASSERT_EQ(snap.count, 100u);
    // Nearest-rank p50 of 1..100 is 50; the midpoint answer must be
    // within one bucket width (12.5%) of it.
    EXPECT_NEAR(snap.quantile(0.50), 50.0, 50.0 / 8.0 + 1e-9);
    EXPECT_NEAR(snap.quantile(0.99), 99.0, 99.0 / 8.0 + 1e-9);
    EXPECT_NEAR(snap.mean(), 50.5, 1e-9);
    EXPECT_EQ(snap.min, 1.0);
    EXPECT_EQ(snap.max, 100.0);
}

TEST(Histogram, EmptySnapshotsAreNaNNotPanics)
{
    instr::Histogram h;
    const auto snap = h.snapshot();
    EXPECT_EQ(snap.count, 0u);
    EXPECT_TRUE(snap.buckets.empty());
    EXPECT_TRUE(std::isnan(snap.quantile(0.5)));
    EXPECT_TRUE(std::isnan(snap.quantile(0.0)));
    EXPECT_TRUE(std::isnan(snap.quantile(1.0)));
    EXPECT_TRUE(std::isnan(snap.mean()));
    EXPECT_TRUE(std::isnan(snap.min));
    EXPECT_TRUE(std::isnan(snap.max));
}

TEST(Histogram, MergeIsAssociativeAndCommutative)
{
    instr::Histogram ha, hb, hc;
    for (int i = 0; i < 50; ++i)
        ha.record(0.5 + i);
    for (int i = 0; i < 70; ++i)
        hb.record(1000.0 + i);
    for (int i = 0; i < 30; ++i)
        hc.record(1e-6 * (1 + i));

    const auto a = ha.snapshot(), b = hb.snapshot(), c = hc.snapshot();

    auto ab_c = a;
    ab_c.merge(b);
    ab_c.merge(c);
    auto bc = b;
    bc.merge(c);
    auto a_bc = a;
    a_bc.merge(bc);
    auto cba = c;
    cba.merge(b);
    cba.merge(a);

    for (const auto *m : {&a_bc, &cba}) {
        EXPECT_EQ(ab_c.buckets, m->buckets);
        EXPECT_EQ(ab_c.count, m->count);
        EXPECT_EQ(ab_c.min, m->min);
        EXPECT_EQ(ab_c.max, m->max);
        EXPECT_NEAR(ab_c.sum, m->sum, 1e-9 * std::abs(ab_c.sum));
    }
    // Merging an empty snapshot is the identity.
    auto viaEmpty = instr::HistogramSnapshot{};
    viaEmpty.merge(a);
    EXPECT_EQ(viaEmpty.buckets, a.buckets);
    EXPECT_EQ(viaEmpty.min, a.min);
    EXPECT_EQ(viaEmpty.max, a.max);
}

// ---------------------------------------------------------------------
// Registry and manifest integration.
// ---------------------------------------------------------------------

TEST(HistogramRegistry, StableReferencesAndSortedSnapshots)
{
    InstrumentGuard guard(true);
    auto &reg = instr::Registry::instance();
    instr::Histogram &h1 = reg.histogram("t.hist");
    instr::Histogram &h2 = reg.histogram("t.hist");
    EXPECT_EQ(&h1, &h2);
    h1.record(2.0);
    h2.record(4.0);
    reg.histogram("t.a_first").record(1.0);

    const auto snaps = reg.histogramSnapshots();
    ASSERT_GE(snaps.size(), 2u);
    EXPECT_TRUE(std::is_sorted(
        snaps.begin(), snaps.end(), [](const auto &x, const auto &y) {
            return x.first < y.first;
        }));
    for (const auto &[name, snap] : snaps) {
        if (name == "t.hist") {
            EXPECT_EQ(snap.count, 2u);
        }
    }

    reg.reset();
    EXPECT_EQ(reg.histogram("t.hist").count(), 0u);
}

TEST(HistogramRegistry, ManifestCarriesHistogramsBlock)
{
    InstrumentGuard guard(true);
    auto &reg = instr::Registry::instance();
    for (int i = 1; i <= 10; ++i)
        reg.histogram("t.latency_ms").record(static_cast<double>(i));

    instr::RunInfo info;
    info.configPath = "x.xml";
    info.wallSeconds = 0.1;
    info.valid = true;
    const std::string text = instr::runManifestJson(info);
    std::string error;
    common::JsonValue doc;
    ASSERT_TRUE(common::jsonParse(text, doc, &error))
        << error << "\n" << text;
    for (const char *key :
         {"\"histograms\"", "\"t.latency_ms\"", "\"count\": 10",
          "\"mean\"", "\"p50\"", "\"p95\"", "\"p99\"", "\"min\"",
          "\"max\""}) {
        EXPECT_NE(text.find(key), std::string::npos)
            << "missing " << key << " in:\n" << text;
    }
}

// ---------------------------------------------------------------------
// Structured event log.
// ---------------------------------------------------------------------

TEST(EventLog, RecordsAreStrictJsonWithExpectedShape)
{
    const std::string path = "elog_shape.tmp.jsonl";
    EventLogGuard guard(path);
    ASSERT_TRUE(elog::open(path));
    EXPECT_FALSE(elog::runId().empty());

    elog::emit(elog::Level::Warn, "test.component", "something_failed",
               "a \"quoted\" message\twith escapes",
               {elog::Field::str("path", "/tmp/x"),
                elog::Field::num("attempts", 3)});
    elog::close();

    const auto lines = readLines(path);
    ASSERT_EQ(lines.size(), 1u);
    std::string error;
    common::JsonValue doc;
    ASSERT_TRUE(common::jsonParse(lines[0], doc, &error))
        << error << "\n" << lines[0];
    for (const char *key :
         {"\"ts_ms\"", "\"mono_ms\"", "\"level\": \"warn\"",
          "\"component\": \"test.component\"",
          "\"event\": \"something_failed\"", "\"message\"",
          "\"path\": \"/tmp/x\"", "\"attempts\": 3", "\"run\": \"0x"}) {
        EXPECT_NE(lines[0].find(key), std::string::npos)
            << "missing " << key << " in: " << lines[0];
    }
}

TEST(EventLog, LevelFilterDropsBelowThreshold)
{
    const std::string path = "elog_level.tmp.jsonl";
    EventLogGuard guard(path);
    ASSERT_TRUE(elog::open(path));
    elog::setLevel(elog::Level::Warn);

    EXPECT_FALSE(elog::enabled(elog::Level::Debug));
    EXPECT_FALSE(elog::enabled(elog::Level::Info));
    EXPECT_TRUE(elog::enabled(elog::Level::Warn));
    EXPECT_TRUE(elog::enabled(elog::Level::Error));

    elog::emit(elog::Level::Info, "test", "dropped", "below level");
    elog::emit(elog::Level::Error, "test", "kept", "at level");
    elog::close();

    const auto lines = readLines(path);
    ASSERT_EQ(lines.size(), 1u);
    EXPECT_NE(lines[0].find("\"event\": \"kept\""), std::string::npos);
}

TEST(EventLog, ClosedSinkDisablesEverything)
{
    elog::close();
    EXPECT_FALSE(elog::enabled(elog::Level::Error));
    EXPECT_TRUE(elog::runId().empty());
    // Emitting while closed must be a harmless no-op.
    elog::emit(elog::Level::Error, "test", "nowhere", "dropped");
}

TEST(EventLog, RequestIdsCorrelateAndNest)
{
    const std::string path = "elog_req.tmp.jsonl";
    EventLogGuard guard(path);
    ASSERT_TRUE(elog::open(path));

    elog::emit(elog::Level::Info, "test", "outside", "no request");
    {
        elog::ScopedRequestId outer("req-1");
        elog::emit(elog::Level::Info, "test", "outer", "m");
        {
            elog::ScopedRequestId inner("req-2");
            elog::emit(elog::Level::Info, "test", "inner", "m");
        }
        elog::emit(elog::Level::Info, "test", "outer_again", "m");
    }
    elog::emit(elog::Level::Info, "test", "after", "m");
    elog::close();

    const auto lines = readLines(path);
    ASSERT_EQ(lines.size(), 5u);
    EXPECT_EQ(lines[0].find("\"request\""), std::string::npos);
    EXPECT_NE(lines[1].find("\"request\": \"req-1\""), std::string::npos);
    EXPECT_NE(lines[2].find("\"request\": \"req-2\""), std::string::npos);
    EXPECT_NE(lines[3].find("\"request\": \"req-1\""), std::string::npos);
    EXPECT_EQ(lines[4].find("\"request\""), std::string::npos);
    // All five carry the same run ID.
    const std::size_t at = lines[0].find("\"run\": \"");
    ASSERT_NE(at, std::string::npos);
    const std::string run = lines[0].substr(at, 8 + 2 + 16 + 1);
    for (const auto &line : lines)
        EXPECT_NE(line.find(run), std::string::npos) << line;
}

TEST(EventLog, ConcurrentEmitsNeverInterleaveLines)
{
    const std::string path = "elog_mt.tmp.jsonl";
    EventLogGuard guard(path);
    ASSERT_TRUE(elog::open(path));
    constexpr std::size_t kEmits = 500;
    parallel::parallelFor(kEmits, [](std::size_t i) {
        elog::emit(elog::Level::Info, "test.mt", "tick", "m",
                   {elog::Field::num("i", static_cast<double>(i))});
    });
    elog::close();

    const auto lines = readLines(path);
    ASSERT_EQ(lines.size(), kEmits);
    std::string error;
    common::JsonValue doc;
    for (const auto &line : lines)
        ASSERT_TRUE(common::jsonParse(line, doc, &error))
            << error << "\n" << line;
}

TEST(EventLog, ParseLevelRoundTripsAndRejectsJunk)
{
    elog::Level lv;
    ASSERT_TRUE(elog::parseLevel("debug", lv));
    EXPECT_EQ(lv, elog::Level::Debug);
    ASSERT_TRUE(elog::parseLevel("error", lv));
    EXPECT_EQ(lv, elog::Level::Error);
    EXPECT_FALSE(elog::parseLevel("verbose", lv));
    EXPECT_FALSE(elog::parseLevel("", lv));
    EXPECT_STREQ(elog::levelName(elog::Level::Warn), "warn");
}

// ---------------------------------------------------------------------
// Flight recorder.
// ---------------------------------------------------------------------

TEST(FlightRecorder, WritesCsvRowsAndTraceCounters)
{
    InstrumentGuard guard(true);
    auto &reg = instr::Registry::instance();
    reg.gauge("cache.memory.hit_rate").set(0.75);
    reg.counter("component_memo.evictions").add(5);

    const std::string path = "recorder.tmp.csv";
    auto &rec = instr::FlightRecorder::instance();
    ASSERT_TRUE(rec.start(path, 10));
    EXPECT_TRUE(rec.running());
    // start() is idempotent while running.
    EXPECT_TRUE(rec.start(path, 10));
    std::this_thread::sleep_for(std::chrono::milliseconds(60));
    rec.stop();
    EXPECT_FALSE(rec.running());
    rec.stop();  // idempotent

    const auto lines = readLines(path);
    std::remove(path.c_str());
    ASSERT_GE(lines.size(), 2u);  // header + at least one sample
    EXPECT_EQ(lines[0], instr::FlightRecorder::csvHeader());
    const std::size_t cols =
        1 + std::count(lines[0].begin(), lines[0].end(), ',');
    for (std::size_t i = 1; i < lines.size(); ++i) {
        EXPECT_EQ(1 + std::count(lines[i].begin(), lines[i].end(), ','),
                  static_cast<long>(cols))
            << "row " << i << ": " << lines[i];
    }

    // The same samples surface as Chrome counter events, after the
    // metadata events, in a trace that is still strict JSON.
    std::ostringstream os;
    instr::writeChromeTrace(os);
    const std::string trace = os.str();
    std::string error;
    common::JsonValue doc;
    ASSERT_TRUE(common::jsonParse(trace, doc, &error)) << error;
    EXPECT_NE(trace.find("\"ph\": \"C\""), std::string::npos);
    EXPECT_NE(trace.find("\"ph\": \"M\""), std::string::npos);
    EXPECT_NE(trace.find("\"process_name\""), std::string::npos);
    EXPECT_NE(trace.find("\"mem_hit_rate\""), std::string::npos);
    EXPECT_NE(trace.find("\"args\": {\"value\""), std::string::npos);
    // The sampler thread announced its name.
    EXPECT_NE(trace.find("\"recorder\""), std::string::npos);
}

TEST(FlightRecorder, StartFailsCleanlyOnUnwritablePath)
{
    InstrumentGuard guard(true);
    auto &rec = instr::FlightRecorder::instance();
    EXPECT_FALSE(rec.start("no/such/dir/recorder.csv", 10));
    EXPECT_FALSE(rec.running());
}

TEST(TraceMetadata, ThreadNamesAppearInTrace)
{
    InstrumentGuard guard(true);
    std::thread t([] {
        instr::setThreadName("test-worker");
        MCPAT_SPAN("t.named_thread_span");
    });
    t.join();
    std::ostringstream os;
    instr::writeChromeTrace(os);
    const std::string trace = os.str();
    std::string error;
    common::JsonValue doc;
    ASSERT_TRUE(common::jsonParse(trace, doc, &error)) << error;
    EXPECT_NE(trace.find("\"thread_name\""), std::string::npos);
    EXPECT_NE(trace.find("\"test-worker\""), std::string::npos);
}

// ---------------------------------------------------------------------
// Progress meter clamp.
// ---------------------------------------------------------------------

TEST(ProgressMeter, OverTickingClampsToTotal)
{
    InstrumentGuard guard(false);
    instr::setProgressEnabled(true);
    std::ostringstream os;
    instr::ProgressMeter meter("clamp", 3, &os);
    for (int i = 0; i < 5; ++i)
        meter.tick();
    instr::setProgressEnabled(false);

    EXPECT_EQ(meter.completed(), 3u);
    const std::string out = os.str();
    // Replayed items beyond the plan must never report >100% or a
    // negative ETA.
    EXPECT_NE(out.find("3/3 (100.0%)"), std::string::npos) << out;
    EXPECT_EQ(out.find("4/3"), std::string::npos) << out;
    EXPECT_EQ(out.find("5/3"), std::string::npos) << out;
    EXPECT_EQ(out.find("eta -"), std::string::npos) << out;
    EXPECT_EQ(out.find("(133"), std::string::npos) << out;
}

TEST(ProgressMeter, ConcurrentOverTickingStaysClamped)
{
    InstrumentGuard guard(false);
    constexpr std::size_t kTotal = 200;
    instr::ProgressMeter meter("mt-clamp", kTotal);
    // Twice as many ticks as planned, concurrently (a resumed batch
    // replaying journaled items does exactly this).
    parallel::parallelFor(2 * kTotal, [&](std::size_t) { meter.tick(); });
    EXPECT_EQ(meter.completed(), kTotal);
}
