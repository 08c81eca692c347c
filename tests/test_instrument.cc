/**
 * @file
 * Instrumentation layer tests: registry semantics and determinism,
 * span nesting and thread-safety under the pool (exercised under TSan
 * in CI), Chrome-trace JSON validity, run-manifest round trips, the
 * zero-overhead-when-disabled guarantee, the strict JSON checker
 * itself, and the progress meter.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/instrument.hh"
#include "common/json_value.hh"
#include "common/parallel.hh"

using namespace mcpat;

namespace {

/** RAII guard: force instrumentation on/off, restore "off" afterwards.
 *  Also clears the registry and trace so tests see only their own
 *  activity (each gtest case runs in its own process under ctest, but
 *  the guard keeps the tests order-independent when run manually). */
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

/** Sample lookup helper; fails the test when the metric is missing. */
const instr::MetricSample &
find(const std::vector<instr::MetricSample> &samples,
     const std::string &name)
{
    for (const auto &s : samples)
        if (s.name == name)
            return s;
    static instr::MetricSample missing;
    ADD_FAILURE() << "metric not found: " << name;
    return missing;
}

bool
has(const std::vector<instr::MetricSample> &samples,
    const std::string &name)
{
    return std::any_of(samples.begin(), samples.end(),
                       [&](const auto &s) { return s.name == name; });
}

} // namespace

// ---------------------------------------------------------------------
// Registry.
// ---------------------------------------------------------------------

TEST(InstrumentRegistry, CounterGaugeTimerRoundTrip)
{
    InstrumentGuard guard(true);
    auto &reg = instr::Registry::instance();

    reg.counter("t.counter").add(3);
    reg.counter("t.counter").add();
    reg.gauge("t.gauge").set(2.5);
    reg.gauge("t.gauge").setMax(1.0);  // below current: no change
    reg.gauge("t.gauge").setMax(7.0);
    reg.timer("t.timer").addNanos(1'500'000'000, 3);

    const auto samples = reg.snapshot(/*collect=*/false);
    EXPECT_EQ(find(samples, "t.counter").value, 4.0);
    EXPECT_EQ(find(samples, "t.counter").count, 4u);
    EXPECT_EQ(find(samples, "t.gauge").value, 7.0);
    EXPECT_NEAR(find(samples, "t.timer").value, 1.5, 1e-12);
    EXPECT_EQ(find(samples, "t.timer").count, 3u);
}

TEST(InstrumentRegistry, ReferencesAreStableAndShared)
{
    InstrumentGuard guard(true);
    auto &reg = instr::Registry::instance();
    instr::Counter &a = reg.counter("t.stable");
    instr::Counter &b = reg.counter("t.stable");
    EXPECT_EQ(&a, &b);
    a.add(2);
    b.add(3);
    EXPECT_EQ(reg.counter("t.stable").value(), 5u);
}

TEST(InstrumentRegistry, SnapshotIsSortedAndDeterministic)
{
    InstrumentGuard guard(true);
    auto &reg = instr::Registry::instance();
    // Register out of order; snapshots must come back name-sorted.
    reg.counter("t.zebra").add(1);
    reg.gauge("t.apple").set(1.0);
    reg.timer("t.mango").addNanos(10);

    const auto s1 = reg.snapshot(/*collect=*/false);
    const auto s2 = reg.snapshot(/*collect=*/false);
    ASSERT_EQ(s1.size(), s2.size());
    EXPECT_TRUE(std::is_sorted(
        s1.begin(), s1.end(), [](const auto &x, const auto &y) {
            return x.name < y.name;
        }));
    for (std::size_t i = 0; i < s1.size(); ++i) {
        EXPECT_EQ(s1[i].name, s2[i].name);
        EXPECT_EQ(s1[i].value, s2[i].value);
        EXPECT_EQ(s1[i].count, s2[i].count);
    }
}

TEST(InstrumentRegistry, CollectorsRunOnCollectingSnapshotsOnly)
{
    InstrumentGuard guard(true);
    auto &reg = instr::Registry::instance();
    static std::atomic<int> runs{0};
    ASSERT_TRUE(reg.addCollector([](instr::Registry &r) {
        runs.fetch_add(1);
        r.gauge("t.collected").set(42.0);
    }));

    const int before = runs.load();
    const auto passive = reg.snapshot(/*collect=*/false);
    EXPECT_EQ(runs.load(), before);
    EXPECT_FALSE(has(passive, "t.collected"));

    const auto active = reg.snapshot();
    EXPECT_GT(runs.load(), before);
    EXPECT_EQ(find(active, "t.collected").value, 42.0);
}

TEST(InstrumentRegistry, ResetZeroesButKeepsRegistrations)
{
    InstrumentGuard guard(true);
    auto &reg = instr::Registry::instance();
    reg.counter("t.reset").add(9);
    reg.reset();
    const auto samples = reg.snapshot(/*collect=*/false);
    EXPECT_EQ(find(samples, "t.reset").value, 0.0);
}

TEST(InstrumentRegistry, ThreadSafeUnderConcurrentAdds)
{
    InstrumentGuard guard(true);
    auto &reg = instr::Registry::instance();
    constexpr std::size_t kIters = 2000;
    parallel::parallelFor(kIters, [&](std::size_t i) {
        // Mix of registration (name lookup) and updates from many
        // threads; TSan in CI verifies the locking.
        reg.counter("t.mt").add();
        reg.gauge("t.mt.max").setMax(static_cast<double>(i));
        reg.timer("t.mt.time").addNanos(1);
    });
    EXPECT_EQ(reg.counter("t.mt").value(), kIters);
    EXPECT_EQ(reg.gauge("t.mt.max").value(),
              static_cast<double>(kIters - 1));
    EXPECT_EQ(reg.timer("t.mt.time").count(), kIters);
}

// ---------------------------------------------------------------------
// Zero overhead when disabled.
// ---------------------------------------------------------------------

TEST(InstrumentDisabled, SpansAndSitesLeaveNoTrace)
{
    InstrumentGuard guard(false);
    {
        MCPAT_SPAN("t.disabled_span");
        MCPAT_SPAN("t.disabled_inner", "detail");
    }
    // Pool-style instrumented loop: sites gate on enabled() and must
    // not touch the registry.
    parallel::parallelFor(64, [](std::size_t) {});

    EXPECT_TRUE(instr::collectTrace().empty());
    const auto samples =
        instr::Registry::instance().snapshot(/*collect=*/false);
    EXPECT_FALSE(has(samples, "span.t.disabled_span"));
    // Registrations persist across Registry::reset(), so a prior test
    // in the same process may have created these names: absent or
    // zero both mean the disabled sites pushed nothing.
    for (const char *name : {"parallel.tasks", "parallel.serial_tasks",
                             "parallel.jobs"}) {
        for (const auto &s : samples) {
            if (s.name == name) {
                EXPECT_EQ(s.value, 0.0) << name;
            }
        }
    }
}

TEST(InstrumentDisabled, SpanNameExpressionNotEvaluated)
{
    InstrumentGuard guard(false);
    int evaluations = 0;
    auto name = [&]() {
        ++evaluations;
        return std::string("t.lazy");
    };
    {
        MCPAT_SPAN(name());
    }
    EXPECT_EQ(evaluations, 0);

    instr::setEnabled(true);
    {
        MCPAT_SPAN(name());
    }
    EXPECT_EQ(evaluations, 1);
    EXPECT_EQ(instr::collectTrace().size(), 1u);
}

// ---------------------------------------------------------------------
// Spans and the Chrome trace.
// ---------------------------------------------------------------------

TEST(InstrumentSpan, NestingIsContainment)
{
    InstrumentGuard guard(true);
    {
        MCPAT_SPAN("t.outer");
        {
            MCPAT_SPAN("t.inner", "leaf");
        }
    }
    auto events = instr::collectTrace();
    ASSERT_EQ(events.size(), 2u);
    // collectTrace sorts by (tid, startNs): outer starts first.
    EXPECT_EQ(events[0].name, "t.outer");
    EXPECT_EQ(events[1].name, "t.inner");
    EXPECT_EQ(events[1].arg, "leaf");
    EXPECT_EQ(events[0].tid, events[1].tid);
    // The inner interval is contained in the outer one.
    EXPECT_GE(events[1].startNs, events[0].startNs);
    EXPECT_LE(events[1].startNs + events[1].durNs,
              events[0].startNs + events[0].durNs);

    // Collecting snapshots fold durations into "span.<name>" timers.
    const auto samples = instr::Registry::instance().snapshot();
    EXPECT_EQ(find(samples, "span.t.outer").count, 1u);
    EXPECT_EQ(find(samples, "span.t.inner").count, 1u);
}

TEST(InstrumentSpan, ThreadSafeUnderPool)
{
    InstrumentGuard guard(true);
    constexpr std::size_t kTasks = 256;
    parallel::parallelFor(kTasks, [](std::size_t i) {
        MCPAT_SPAN("t.task", std::to_string(i));
        MCPAT_SPAN("t.task.nested");
    });
    const auto events = instr::collectTrace();
    std::size_t tasks = 0, nested = 0;
    for (const auto &e : events) {
        if (e.name == "t.task")
            ++tasks;
        else if (e.name == "t.task.nested")
            ++nested;
    }
    EXPECT_EQ(tasks, kTasks);
    EXPECT_EQ(nested, kTasks);
    // Per-thread buffers keep (tid, startNs) sortable and stable.
    EXPECT_TRUE(std::is_sorted(
        events.begin(), events.end(), [](const auto &a, const auto &b) {
            return a.tid != b.tid ? a.tid < b.tid
                                  : a.startNs < b.startNs;
        }));
}

TEST(InstrumentSpan, ChromeTraceIsValidJsonWithExpectedFields)
{
    InstrumentGuard guard(true);
    {
        MCPAT_SPAN("t.phase \"quoted\"\\", "arg\nwith\tescapes");
    }
    std::ostringstream os;
    instr::writeChromeTrace(os);
    const std::string text = os.str();

    std::string error;
    common::JsonValue doc;
    EXPECT_TRUE(common::jsonParse(text, doc, &error)) << error;
    // Chrome trace_event object form with complete events.
    EXPECT_NE(text.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(text.find("\"ph\": \"X\""), std::string::npos);
    EXPECT_NE(text.find("\"ts\""), std::string::npos);
    EXPECT_NE(text.find("\"dur\""), std::string::npos);
    EXPECT_NE(text.find("\"displayTimeUnit\""), std::string::npos);
}

TEST(InstrumentSpan, EmptyTraceStillValidJson)
{
    InstrumentGuard guard(true);
    std::ostringstream os;
    instr::writeChromeTrace(os);
    std::string error;
    common::JsonValue doc;
    EXPECT_TRUE(common::jsonParse(os.str(), doc, &error)) << error;
}

// ---------------------------------------------------------------------
// Run manifest.
// ---------------------------------------------------------------------

TEST(InstrumentManifest, RoundTripValidJsonWithAllSections)
{
    InstrumentGuard guard(true);
    auto &reg = instr::Registry::instance();
    {
        MCPAT_SPAN("t.manifest_phase");
    }
    reg.counter("t.events").add(5);
    reg.gauge("t.level").set(1.25);
    reg.timer("t.elapsed").addNanos(2'000'000);

    instr::RunInfo info;
    info.configPath = "configs/example \"x\".xml";
    info.configChecksum = "0x0123456789abcdef";
    info.wallSeconds = 0.75;
    info.valid = true;

    const std::string text = instr::runManifestJson(info);
    std::string error;
    common::JsonValue doc;
    ASSERT_TRUE(common::jsonParse(text, doc, &error))
        << error << "\n" << text;

    for (const char *key :
         {"\"schema\"", "\"mcpat-run-manifest-v1\"", "\"config\"",
          "\"config_checksum\"", "\"threads\"", "\"wall_ms\"",
          "\"valid\"", "\"phases\"", "\"t.manifest_phase\"",
          "\"counters\"", "\"t.events\"", "\"gauges\"", "\"t.level\"",
          "\"timers\"", "\"t.elapsed\"", "\"total_ms\""}) {
        EXPECT_NE(text.find(key), std::string::npos)
            << "missing " << key << " in:\n" << text;
    }
    // Phase names are stripped of the "span." prefix.
    EXPECT_EQ(text.find("\"span.t.manifest_phase\""), std::string::npos);

    // Stream and string forms agree.
    std::ostringstream os;
    instr::writeRunManifest(os, info);
    EXPECT_EQ(os.str(), text);

    // Indented form is still valid (it is embedded mid-document).
    EXPECT_TRUE(
        common::jsonParse(instr::runManifestJson(info, 4), doc, &error))
        << error;
}

TEST(InstrumentManifest, FileChecksumMatchesContentNotName)
{
    const std::string path_a = "instr_checksum_a.tmp";
    const std::string path_b = "instr_checksum_b.tmp";
    {
        std::ofstream(path_a) << "identical bytes";
        std::ofstream(path_b) << "identical bytes";
    }
    const std::string sum_a = instr::fileChecksumHex(path_a);
    const std::string sum_b = instr::fileChecksumHex(path_b);
    std::remove(path_a.c_str());
    std::remove(path_b.c_str());

    ASSERT_FALSE(sum_a.empty());
    EXPECT_EQ(sum_a.substr(0, 2), "0x");
    EXPECT_EQ(sum_a, sum_b);
    EXPECT_TRUE(instr::fileChecksumHex("no/such/file.xml").empty());
}

// ---------------------------------------------------------------------
// Strict JSON parser (common::jsonParse).
// ---------------------------------------------------------------------

TEST(JsonCheck, AcceptsValidDocuments)
{
    for (const char *ok :
         {"{}", "[]", "null", "true", "-1.5e-3", "\"s\"",
          "{\"a\": [1, 2.0, {\"b\": null}], \"c\": \"\\u00e9\\n\"}",
          "  [0]  "}) {
        std::string error;
        common::JsonValue doc;
        EXPECT_TRUE(common::jsonParse(ok, doc, &error))
            << ok << ": " << error;
    }
}

TEST(JsonCheck, RejectsCommonWriterBugs)
{
    for (const char *bad :
         {"", "{", "[1,]", "{\"a\":1,}", "nan", "Infinity", "-",
          "01", "{\"a\"}", "\"unterminated", "[1] trailing",
          "{\"a\": 1 \"b\": 2}", "\"bad\tcontrol\""}) {
        common::JsonValue doc;
        EXPECT_FALSE(common::jsonParse(bad, doc)) << "accepted: " << bad;
    }
}

// ---------------------------------------------------------------------
// Progress meter.
// ---------------------------------------------------------------------

TEST(InstrumentProgress, SilentByDefaultPrintsWhenEnabled)
{
    InstrumentGuard guard(false);
    {
        std::ostringstream os;
        instr::ProgressMeter meter("test", 2, &os);
        meter.tick();
        meter.tick();
        EXPECT_EQ(meter.completed(), 2u);
        EXPECT_TRUE(os.str().empty());
    }

    instr::setProgressEnabled(true);
    {
        std::ostringstream os;
        instr::ProgressMeter meter("test", 4, &os);
        meter.tick();
        const std::string line = os.str();
        EXPECT_NE(line.find("test: 1/4"), std::string::npos) << line;
        EXPECT_NE(line.find("eta"), std::string::npos) << line;
    }
    instr::setProgressEnabled(false);
}

TEST(InstrumentProgress, ThreadSafeTicks)
{
    InstrumentGuard guard(false);
    constexpr std::size_t kTicks = 500;
    instr::ProgressMeter meter("mt", kTicks);
    parallel::parallelFor(kTicks, [&](std::size_t) { meter.tick(); });
    EXPECT_EQ(meter.completed(), kTicks);
}
