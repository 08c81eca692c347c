/**
 * @file
 * Delta-evaluation and Pareto-frontier search tests: the component
 * memo's sharing correctness (memo on vs off is bit-identical) and
 * hit accounting, grid indexing, dominance relations, the search's
 * frontier-identity contract against the exhaustive grid, and its
 * journal: deterministic bytes at any thread count, bit-identical
 * resume after a crash between rounds or an exception inside one, and
 * journal failures that warn once without changing results.
 */

#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <limits>
#include <map>
#include <set>
#include <sstream>
#include <unistd.h>

#include "chip/component_memo.hh"
#include "chip/processor.hh"
#include "chip/report_writer.hh"
#include "common/event_log.hh"
#include "common/parallel.hh"
#include "study/sweep_search.hh"

using namespace mcpat;
using namespace mcpat::study;
namespace fs = std::filesystem;

namespace {

/** A small grid that keeps search tests fast. */
SweepSpace
tinySpace()
{
    SweepSpace s;
    s.totalCores = 4;
    s.styles = {CoreStyle::InOrderMT, CoreStyle::OutOfOrder};
    s.clusterSizes = {1, 2, 4};
    s.l2BytesPerCore = {512.0 * 1024, 1.0 * 1024 * 1024,
                        2.0 * 1024 * 1024};
    s.clockRates = {1.5e9, 2.5e9, 3.5e9};
    return s;
}

Metrics
metricsOf(double ed, double ed2, double eda, double ed2a)
{
    Metrics m;
    m.ed = ed;
    m.ed2 = ed2;
    m.eda = eda;
    m.ed2a = ed2a;
    return m;
}

} // namespace

TEST(SweepSpace, FlatIndexRoundTrips)
{
    const SweepSpace s = tinySpace();
    EXPECT_EQ(s.size(), 2u * 3u * 3u * 3u);
    for (std::size_t flat = 0; flat < s.size(); ++flat)
        EXPECT_EQ(s.flatIndex(s.coords(flat)), flat);

    // at() must honor the axis values, and keys must be unique across
    // the grid (the journal and memo both depend on that).
    std::set<std::string> keys;
    for (std::size_t flat = 0; flat < s.size(); ++flat)
        keys.insert(s.at(flat).key());
    EXPECT_EQ(keys.size(), s.size());

    const CaseStudyConfig last = s.at(s.size() - 1);
    EXPECT_EQ(last.style, CoreStyle::OutOfOrder);
    EXPECT_EQ(last.coresPerCluster, 4);
    EXPECT_DOUBLE_EQ(last.l2BytesPerCore, 2.0 * 1024 * 1024);
    EXPECT_DOUBLE_EQ(last.clockRate, 3.5e9);
}

TEST(SweepSearch, DominanceRelations)
{
    const Metrics a = metricsOf(1, 1, 1, 1);
    const Metrics b = metricsOf(2, 2, 2, 2);
    const Metrics mixed = metricsOf(0.5, 3, 1, 1);
    EXPECT_TRUE(dominates(a, b));
    EXPECT_FALSE(dominates(b, a));
    EXPECT_FALSE(dominates(a, a));  // equal: not strictly better
    EXPECT_FALSE(dominates(a, mixed));
    EXPECT_FALSE(dominates(mixed, a));

    const Metrics bad = Metrics::invalid();
    EXPECT_FALSE(dominates(bad, b));  // non-finite never dominates
    EXPECT_TRUE(dominates(a, bad));
}

TEST(SweepSearch, ParetoFrontierExcludesDominatedAndNonFinite)
{
    std::vector<SweepSearchPoint> pts(4);
    pts[0].index = 0;
    pts[0].result.meanMetrics = metricsOf(1, 4, 1, 4);
    pts[1].index = 1;
    pts[1].result.meanMetrics = metricsOf(4, 1, 4, 1);
    pts[2].index = 2;
    pts[2].result.meanMetrics = metricsOf(5, 5, 5, 5);  // dominated
    pts[3].index = 3;
    pts[3].result.meanMetrics = Metrics::invalid();     // degenerate
    const auto frontier = paretoFrontier(pts);
    EXPECT_EQ(frontier, (std::vector<std::size_t>{0, 1}));
}

TEST(SweepSearch, FrontierIdenticalToExhaustiveGrid)
{
    const SweepSpace space = tinySpace();
    SweepSearchOptions opts;

    opts.exhaustive = true;
    const SweepSearchResult grid = runSweepSearch(space, opts);
    EXPECT_EQ(grid.points.size(), space.size());
    EXPECT_FALSE(grid.frontier.empty());

    opts.exhaustive = false;
    const SweepSearchResult searched = runSweepSearch(space, opts);
    EXPECT_LT(searched.points.size(), space.size());
    EXPECT_EQ(searched.frontier, grid.frontier);

    // Every point the search evaluated matches the grid's bit for bit
    // (delta evaluation must not change any number).
    std::map<std::size_t, const SweepSearchPoint *> by_index;
    for (const auto &p : grid.points)
        by_index[p.index] = &p;
    for (const auto &p : searched.points) {
        const Metrics &a = p.result.meanMetrics;
        const Metrics &b = by_index.at(p.index)->result.meanMetrics;
        EXPECT_EQ(a.ed, b.ed);
        EXPECT_EQ(a.ed2, b.ed2);
        EXPECT_EQ(a.eda, b.eda);
        EXPECT_EQ(a.ed2a, b.ed2a);
    }
}

TEST(SweepSearch, JournaledSearchResumesWithoutReevaluation)
{
    const fs::path dir = fs::temp_directory_path() /
        ("mcpat_sweep_search_" + std::to_string(::getpid()));
    fs::remove_all(dir);
    fs::create_directories(dir);

    const SweepSpace space = tinySpace();
    SweepSearchOptions opts;
    opts.journal.path = (dir / "sweep_journal.jsonl").string();

    const SweepSearchResult first = runSweepSearch(space, opts);
    EXPECT_GT(first.fullEvaluations, 0u);

    // Resuming the identical search replays every point: zero full
    // evaluations, same frontier, same rounds.
    opts.journal.resume = true;
    const SweepSearchResult second = runSweepSearch(space, opts);
    EXPECT_EQ(second.fullEvaluations, 0u);
    EXPECT_EQ(second.replayed,
              static_cast<std::uint64_t>(first.points.size()));
    EXPECT_EQ(second.frontier, first.frontier);
    EXPECT_EQ(second.rounds, first.rounds);
    fs::remove_all(dir);
}

namespace {

fs::path
scratchDir(const std::string &tag)
{
    const fs::path dir = fs::temp_directory_path() /
        ("mcpat_sweep_search_" + tag + "_" + std::to_string(::getpid()));
    fs::remove_all(dir);
    fs::create_directories(dir);
    return dir;
}

std::string
slurp(const fs::path &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

std::vector<std::string>
readLines(const fs::path &path)
{
    std::ifstream in(path);
    std::vector<std::string> lines;
    for (std::string line; std::getline(in, line);)
        lines.push_back(line);
    return lines;
}

std::size_t
countOf(const std::string &text, const std::string &needle)
{
    std::size_t n = 0;
    for (std::size_t pos = text.find(needle); pos != std::string::npos;
         pos = text.find(needle, pos + needle.size()))
        ++n;
    return n;
}

/** Same points, figures bit for bit, same frontier, same rounds. */
void
expectSameSearch(const SweepSearchResult &a, const SweepSearchResult &b)
{
    EXPECT_EQ(a.frontier, b.frontier);
    EXPECT_EQ(a.rounds, b.rounds);
    ASSERT_EQ(a.points.size(), b.points.size());
    for (std::size_t i = 0; i < a.points.size(); ++i) {
        const DesignPointResult &x = a.points[i].result;
        const DesignPointResult &y = b.points[i].result;
        EXPECT_EQ(a.points[i].index, b.points[i].index);
        EXPECT_EQ(x.area, y.area);
        EXPECT_EQ(x.tdp, y.tdp);
        EXPECT_EQ(x.meanThroughput, y.meanThroughput);
        EXPECT_EQ(x.meanPower, y.meanPower);
        EXPECT_EQ(x.meanMetrics.ed, y.meanMetrics.ed);
        EXPECT_EQ(x.meanMetrics.ed2, y.meanMetrics.ed2);
        EXPECT_EQ(x.meanMetrics.eda, y.meanMetrics.eda);
        EXPECT_EQ(x.meanMetrics.ed2a, y.meanMetrics.ed2a);
    }
}

/** Redirects std::cerr into a string for the guard's lifetime. */
class CerrCapture
{
  public:
    CerrCapture() : _old(std::cerr.rdbuf(_buf.rdbuf())) {}
    ~CerrCapture() { std::cerr.rdbuf(_old); }
    std::string text() const { return _buf.str(); }

  private:
    std::ostringstream _buf;
    std::streambuf *_old;
};

/** Restores the default model thread count on scope exit. */
struct ThreadCountGuard
{
    explicit ThreadCountGuard(int n) { parallel::setThreadCount(n); }
    ~ThreadCountGuard() { parallel::setThreadCount(0); }
};

/**
 * A search journaling to @p journal_path, which cannot be opened or
 * committed to, must warn exactly once (stderr and an @p event record
 * in the event log) and return the journal-less search's results.
 */
void
expectJournalFailureWarnsOnce(const std::string &journal_path,
                              const std::string &event)
{
    const SweepSpace space = tinySpace();
    const SweepSearchResult expected =
        runSweepSearch(space, SweepSearchOptions{});

    const fs::path dir = scratchDir("journal_failure");
    const std::string log_path = (dir / "events.jsonl").string();
    ASSERT_TRUE(elog::open(log_path));
    SweepSearchOptions opts;
    opts.journal.path = journal_path;
    std::string warning;
    SweepSearchResult r;
    {
        const CerrCapture capture;
        r = runSweepSearch(space, opts);
        warning = capture.text();
    }
    elog::close();

    expectSameSearch(r, expected);
    EXPECT_EQ(countOf(warning, "sweep: warning: "), 1u) << warning;
    EXPECT_NE(warning.find("resume will not be available"),
              std::string::npos)
        << warning;
    const std::string events = slurp(log_path);
    EXPECT_EQ(countOf(events, event), 1u) << events;
    EXPECT_NE(events.find("study.sweep"), std::string::npos) << events;
    fs::remove_all(dir);
}

} // namespace

TEST(SweepSearch, JournalBytesIdenticalAcrossThreadCounts)
{
    const fs::path dir = scratchDir("threads");
    const SweepSpace space = tinySpace();
    for (int threads : {1, 4}) {
        const ThreadCountGuard guard(threads);
        SweepSearchOptions opts;
        opts.journal.path =
            (dir / ("journal_" + std::to_string(threads))).string();
        runSweepSearch(space, opts);
    }
    // Each round commits its fresh points in index order, never in
    // completion order.
    const std::string serial = slurp(dir / "journal_1");
    EXPECT_FALSE(serial.empty());
    EXPECT_EQ(serial, slurp(dir / "journal_4"));
    fs::remove_all(dir);
}

TEST(SweepSearch, CrashBetweenRoundsResumesBitIdentically)
{
    const fs::path dir = scratchDir("crash");
    const SweepSpace space = tinySpace();
    SweepSearchOptions opts;
    opts.journal.path = (dir / "sweep_journal.jsonl").string();
    const SweepSearchResult full = runSweepSearch(space, opts);
    ASSERT_GT(full.rounds, 1);
    const std::string full_journal = slurp(opts.journal.path);

    // Round 1 evaluates the seeds: every grid corner plus the center.
    std::set<std::size_t> seeds;
    const auto d = space.dims();
    for (unsigned mask = 0; mask < (1u << SweepSpace::kAxes); ++mask) {
        std::array<std::size_t, SweepSpace::kAxes> c{};
        for (std::size_t a = 0; a < SweepSpace::kAxes; ++a)
            c[a] = (mask & (1u << a)) ? d[a] - 1 : 0;
        seeds.insert(space.flatIndex(c));
    }
    std::array<std::size_t, SweepSpace::kAxes> center{};
    for (std::size_t a = 0; a < SweepSpace::kAxes; ++a)
        center[a] = d[a] / 2;
    seeds.insert(space.flatIndex(center));

    // The journal is the header, then round 1's points in index order.
    const std::vector<std::string> lines = readLines(opts.journal.path);
    ASSERT_EQ(lines.size(), 1 + full.points.size());
    std::size_t line = 1;
    for (std::size_t flat : seeds) {
        EXPECT_NE(lines[line].find("\"key\": \"" + space.at(flat).key() +
                                   "\""),
                  std::string::npos)
            << "line " << line;
        ++line;
    }

    // Kill between rounds 1 and 2: keep the header and round 1.
    {
        std::ofstream out(opts.journal.path, std::ios::trunc);
        for (std::size_t i = 0; i <= seeds.size(); ++i)
            out << lines[i] << "\n";
    }
    opts.journal.resume = true;
    const SweepSearchResult resumed = runSweepSearch(space, opts);
    EXPECT_EQ(resumed.replayed, seeds.size());
    EXPECT_EQ(resumed.fullEvaluations, full.points.size() - seeds.size());
    expectSameSearch(resumed, full);
    // The resumed run commits the lost rounds exactly as they were.
    EXPECT_EQ(slurp(opts.journal.path), full_journal);
    fs::remove_all(dir);
}

TEST(SweepSearch, StoppedExhaustiveRoundKeepsFinishedPoints)
{
    const fs::path dir = scratchDir("stopped");
    // 72 points in one exhaustive round: more than one 64-point commit.
    SweepSpace space;
    space.totalCores = 4;
    space.styles = {CoreStyle::InOrderMT};
    space.clusterSizes = {1, 2, 4};
    space.l2BytesPerCore = {512.0 * 1024, 1.0 * 1024 * 1024,
                            2.0 * 1024 * 1024};
    space.clockRates = {1.5e9, 1.75e9, 2.0e9, 2.25e9,
                        2.5e9, 2.75e9, 3.0e9, 3.25e9};
    SweepSearchOptions opts;
    opts.exhaustive = true;
    const SweepSearchResult full = runSweepSearch(space, opts);

    // A cluster of 3 does not divide the 4 cores, so the first such
    // point (flat index 72) throws partway through the round, as a
    // cancel would.  At one thread every point before it has finished
    // and none after it has started.
    SweepSpace stopped = space;
    stopped.clusterSizes = {1, 2, 4, 3};
    opts.journal.path = (dir / "sweep_journal.jsonl").string();
    {
        const ThreadCountGuard guard(1);
        EXPECT_THROW(runSweepSearch(stopped, opts), ConfigError);
    }
    // The first commit held 64 points; the stopped one the other 8.
    const std::vector<std::string> lines = readLines(opts.journal.path);
    ASSERT_EQ(lines.size(), 1 + space.size());
    for (std::size_t flat = 0; flat < space.size(); ++flat)
        EXPECT_NE(lines[1 + flat].find("\"key\": \"" +
                                       space.at(flat).key() + "\""),
                  std::string::npos)
            << "line " << 1 + flat;

    opts.journal.resume = true;
    const SweepSearchResult resumed = runSweepSearch(space, opts);
    EXPECT_EQ(resumed.replayed, space.size());
    EXPECT_EQ(resumed.fullEvaluations, 0u);
    expectSameSearch(resumed, full);
    fs::remove_all(dir);
}

TEST(SweepSearch, UnopenableJournalWarnsOnceAndKeepsResults)
{
    const fs::path missing = scratchDir("unopenable") / "missing";
    expectJournalFailureWarnsOnce((missing / "sweep_journal.jsonl").string(),
                                  "journal_open_failed");
    EXPECT_FALSE(fs::exists(missing));
    fs::remove_all(missing.parent_path());
}

TEST(SweepSearch, FailedCommitWarnsOnceAndKeepsResults)
{
    // Every write to /dev/full fails with ENOSPC after a successful
    // open: the disk-full case.
    if (!fs::exists("/dev/full"))
        GTEST_SKIP() << "no /dev/full on this platform";
    expectJournalFailureWarnsOnce("/dev/full", "journal_commit_failed");
}

TEST(SweepSearch, WritersEmitFrontierAndFlags)
{
    const SweepSpace space = tinySpace();
    SweepSearchOptions opts;
    opts.exhaustive = false;
    const SweepSearchResult r = runSweepSearch(space, opts);

    std::ostringstream json;
    writeSweepSearchJson(json, space, r, opts.work);
    EXPECT_NE(json.str().find("\"mcpat-sweep-search-v1\""),
              std::string::npos);
    EXPECT_NE(json.str().find("\"frontier\": ["), std::string::npos);

    std::ostringstream csv;
    writeSweepSearchCsv(csv, space, r);
    EXPECT_NE(csv.str().find("in_frontier"), std::string::npos);
    // At least one frontier row and one non-frontier row.
    EXPECT_NE(csv.str().find(",1\n"), std::string::npos);
    EXPECT_NE(csv.str().find(",0\n"), std::string::npos);
}

TEST(ComponentMemo, SharesComponentsAcrossProcessorsBitIdentically)
{
    chip::ComponentMemo &memo = chip::ComponentMemo::instance();
    if (!memo.enabled())
        GTEST_SKIP() << "component memo disabled via env";

    CaseStudyConfig cfg;
    cfg.totalCores = 4;
    cfg.coresPerCluster = 2;
    const chip::SystemParams sys = makeCaseStudySystem(cfg);

    memo.clear();
    const auto cold = memo.stats();
    const chip::Processor first(sys);
    const auto after_first = memo.stats();
    EXPECT_GT(after_first.misses, cold.misses);

    // Same params again: every component comes from the memo.
    const chip::Processor second(sys);
    const auto after_second = memo.stats();
    EXPECT_GT(after_second.hits, after_first.hits);
    EXPECT_EQ(after_second.misses, after_first.misses);

    // A different L2 reuses the core side but rebuilds the cache.
    CaseStudyConfig bigger = cfg;
    bigger.l2BytesPerCore = 2.0 * 1024 * 1024;
    const chip::Processor third(makeCaseStudySystem(bigger));
    const auto after_third = memo.stats();
    EXPECT_GT(after_third.hits, after_second.hits);
    EXPECT_GT(after_third.misses, after_second.misses);

    // Memoized sharing must not change a single reported number:
    // compare a full JSON report against a memo-off build.
    const stats::ChipStats rt;
    std::ostringstream with_memo;
    chip::writeReportJson(with_memo, first.makeReport(rt));

    memo.setEnabled(false);
    const chip::Processor isolated(sys);
    std::ostringstream without_memo;
    chip::writeReportJson(without_memo, isolated.makeReport(rt));
    memo.setEnabled(true);

    EXPECT_EQ(with_memo.str(), without_memo.str());
}

namespace {

/** RAII guard: an enabled, cleared memo; previous switch restored. */
struct EnabledMemo
{
    EnabledMemo() : was(chip::ComponentMemo::instance().enabled())
    {
        chip::ComponentMemo::instance().setEnabled(true);
        chip::ComponentMemo::instance().clear();
    }
    ~EnabledMemo()
    {
        chip::ComponentMemo::instance().clear();
        chip::ComponentMemo::instance().setEnabled(was);
    }
    bool was;
};

/** Whether one get<T>() was served from the memo. */
template <typename T, typename P>
bool
servedFromMemo(const P &params, const tech::Technology &t)
{
    chip::ComponentMemo &memo = chip::ComponentMemo::instance();
    const auto before = memo.stats();
    memo.get<T>(params, t);
    return memo.stats().hits == before.hits + 1;
}

/** Identical params hit; a changed display name misses. */
template <typename T, typename P>
void
expectKeyedOnParams(P params, const tech::Technology &t)
{
    EXPECT_FALSE(servedFromMemo<T>(params, t));
    EXPECT_TRUE(servedFromMemo<T>(params, t));
    params.name += " renamed";
    EXPECT_FALSE(servedFromMemo<T>(params, t));
    EXPECT_TRUE(servedFromMemo<T>(params, t));
}

} // namespace

TEST(ComponentMemo, EveryKindHitsOnEqualParamsAndMissesOnAnyChange)
{
    const EnabledMemo memo;
    const tech::Technology t(45);
    expectKeyedOnParams<core::Core>(core::CoreParams{}, t);
    expectKeyedOnParams<uncore::SharedCache>(uncore::SharedCacheParams{},
                                             t);
    expectKeyedOnParams<uncore::Directory>(uncore::DirectoryParams{}, t);
    expectKeyedOnParams<uncore::Noc>(uncore::NocParams{}, t);
    expectKeyedOnParams<uncore::MemoryController>(
        uncore::MemCtrlParams{}, t);
    expectKeyedOnParams<uncore::ChipIo>(uncore::ChipIoParams{}, t);

    // Nested fields are part of the key.
    core::CoreParams core;
    core.icache.assoc *= 2;
    EXPECT_FALSE(servedFromMemo<core::Core>(core, t));
    core = core::CoreParams{};
    core.predictor.rasEntries *= 2;
    EXPECT_FALSE(servedFromMemo<core::Core>(core, t));
    uncore::NocParams noc;
    noc.router.bufferDepth *= 2;
    EXPECT_FALSE(servedFromMemo<uncore::Noc>(noc, t));

    // So is the operating point.
    tech::Technology hot(45);
    hot.setTemperature(t.temperature() + 10.0);
    EXPECT_FALSE(servedFromMemo<core::Core>(core::CoreParams{}, hot));
}

TEST(ComponentMemo, NanKeyIsBuiltButNeverStored)
{
    const EnabledMemo guard;
    chip::ComponentMemo &memo = chip::ComponentMemo::instance();
    const tech::Technology t(45);
    core::CoreParams p;
    p.areaOverhead = std::numeric_limits<double>::quiet_NaN();
    EXPECT_NE(memo.get<core::Core>(p, t), nullptr);
    EXPECT_NE(memo.get<core::Core>(p, t), nullptr);
    const auto s = memo.stats();
    EXPECT_EQ(s.hits, 0u);
    EXPECT_EQ(s.misses, 2u);
    EXPECT_EQ(s.entries, 0u);
}

TEST(SweepDiagnostics, DegenerateWorkYieldsLocatedDiagnostics)
{
    // A non-finite work value poisons every per-workload delay; the
    // evaluation must survive with NaN aggregates and name the design
    // point and workloads in located diagnostics instead of aborting.
    CaseStudyConfig cfg;
    cfg.totalCores = 4;
    cfg.coresPerCluster = 4;
    const DesignPointResult r = evaluateDesignPoint(
        cfg, std::numeric_limits<double>::quiet_NaN());
    EXPECT_FALSE(r.diagnostics.empty());
    EXPECT_FALSE(r.diagnostics.hasErrors());  // warnings, not errors
    EXPECT_TRUE(std::isnan(r.meanMetrics.ed));
    bool located = false;
    for (const auto &d : r.diagnostics)
        located = located || d.component == cfg.label();
    EXPECT_TRUE(located);
    EXPECT_GT(r.area, 0.0);  // physical figures are still real
}
