/**
 * @file
 * Resilience tests: cooperative cancellation (deadlines, interrupts,
 * parent chaining, the process-wide stop flag), the physical-invariant
 * audit (clean on shipped configs, catches every seeded violation),
 * and journaled batch resume — including the property that a run
 * SIGKILLed mid-flight and resumed produces output byte-identical to
 * an uninterrupted run.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <csignal>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <sys/wait.h>
#include <thread>
#include <unistd.h>
#include <vector>

#include "chip/invariant_audit.hh"
#include "common/cancel.hh"
#include "common/event_log.hh"
#include "common/journal.hh"
#include "common/logging.hh"
#include "study/batch.hh"
#include "study/eval_core.hh"
#include "study/sweep.hh"

#include "test_inputs.hh"

using namespace mcpat;
namespace fs = std::filesystem;

namespace {

fs::path
scratchDir(const std::string &tag)
{
    static int counter = 0;
    const fs::path dir = fs::temp_directory_path() /
        ("mcpat_resilience_" + tag + "_" + std::to_string(::getpid()) +
         "_" + std::to_string(counter++));
    fs::remove_all(dir);
    fs::create_directories(dir);
    return dir;
}

std::string
slurp(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(in.good()) << path;
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

std::string
writeList(const fs::path &dir, const std::vector<std::string> &lines)
{
    const std::string path = (dir / "list.txt").string();
    std::ofstream out(path);
    for (const auto &l : lines)
        out << l << "\n";
    return path;
}

/**
 * Blank the per-row timing columns (load_ms, assemble_ms, report_ms,
 * total_ms — fields 7..10) of a batch summary CSV: wall-clock noise is
 * the one part of the summary a resumed run legitimately may not
 * reproduce.
 */
std::string
maskSummaryTiming(const std::string &csv)
{
    std::ostringstream out;
    std::istringstream in(csv);
    std::string line;
    while (std::getline(in, line)) {
        std::ostringstream row;
        std::size_t field = 0, start = 0;
        while (true) {
            const std::size_t comma = line.find(',', start);
            const std::string cell = line.substr(
                start, comma == std::string::npos ? std::string::npos
                                                  : comma - start);
            if (field)
                row << ',';
            row << (field >= 6 && field <= 9 ? std::string("MASKED")
                                             : cell);
            if (comma == std::string::npos)
                break;
            start = comma + 1;
            ++field;
        }
        out << row.str() << "\n";
    }
    return out.str();
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

/** The event-log line recording @p event; empty when there is none. */
std::string
eventLine(const std::string &events, const std::string &event)
{
    const std::size_t at = events.find("\"" + event + "\"");
    if (at == std::string::npos)
        return "";
    const std::size_t begin = events.rfind('\n', at) + 1;
    return events.substr(begin, events.find('\n', at) - begin);
}

/** True when any diagnostic key starts with "invariant.". */
bool
hasInvariantDiagnostic(const DiagnosticList &diags)
{
    for (const auto &d : diags)
        if (d.key.rfind("invariant.", 0) == 0)
            return true;
    return false;
}

/** First diagnostic with the given key; nullptr when absent. */
const Diagnostic *
findByKey(const DiagnosticList &diags, const std::string &key)
{
    for (const auto &d : diags)
        if (d.key == key)
            return &d;
    return nullptr;
}

} // namespace

// ---------------------------------------------------------------------
// CancelToken
// ---------------------------------------------------------------------

TEST(CancelToken, UntrippedTokenIsANoOp)
{
    cancel::CancelToken t;
    t.setHonorGlobalStop(false);
    EXPECT_EQ(t.state(), cancel::Kind::None);
    EXPECT_FALSE(t.cancelled());
    EXPECT_NO_THROW(t.checkpoint());
}

TEST(CancelToken, DeadlineTripsAsTimeout)
{
    cancel::CancelToken t;
    t.setHonorGlobalStop(false);
    t.setDeadlineIn(0.001);
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    EXPECT_EQ(t.state(), cancel::Kind::Timeout);
    try {
        t.checkpoint();
        FAIL() << "checkpoint did not throw";
    } catch (const cancel::Cancelled &e) {
        EXPECT_EQ(e.kind(), cancel::Kind::Timeout);
        EXPECT_NE(std::string(e.what()).find("deadline"),
                  std::string::npos);
    }
}

TEST(CancelToken, NonPositiveDeadlineLeavesNoneArmed)
{
    cancel::CancelToken t;
    t.setHonorGlobalStop(false);
    t.setDeadlineIn(0.0);
    t.setDeadlineIn(-5.0);
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    EXPECT_EQ(t.state(), cancel::Kind::None);
}

TEST(CancelToken, RequestCancelTripsAsInterrupt)
{
    cancel::CancelToken t;
    t.setHonorGlobalStop(false);
    t.requestCancel();
    EXPECT_EQ(t.state(), cancel::Kind::Interrupt);
    try {
        t.checkpoint();
        FAIL() << "checkpoint did not throw";
    } catch (const cancel::Cancelled &e) {
        EXPECT_EQ(e.kind(), cancel::Kind::Interrupt);
    }
}

TEST(CancelToken, TrippedParentTripsTheChild)
{
    cancel::CancelToken parent, child;
    parent.setHonorGlobalStop(false);
    child.setHonorGlobalStop(false);
    child.setParent(&parent);
    EXPECT_EQ(child.state(), cancel::Kind::None);
    parent.requestCancel();
    EXPECT_EQ(child.state(), cancel::Kind::Interrupt);
}

TEST(CancelToken, GlobalStopReachesEveryHonoringToken)
{
    cancel::clearStop();
    cancel::CancelToken honoring, optedOut;
    optedOut.setHonorGlobalStop(false);

    cancel::requestStop(SIGTERM);
    EXPECT_TRUE(cancel::stopRequested());
    EXPECT_EQ(cancel::stopSignal(), SIGTERM);
    EXPECT_EQ(honoring.state(), cancel::Kind::Interrupt);
    EXPECT_EQ(optedOut.state(), cancel::Kind::None);

    // First signal wins; a later one does not overwrite it.
    cancel::requestStop(SIGINT);
    EXPECT_EQ(cancel::stopSignal(), SIGTERM);

    cancel::clearStop();
    EXPECT_FALSE(cancel::stopRequested());
    EXPECT_EQ(cancel::stopSignal(), 0);
    EXPECT_EQ(honoring.state(), cancel::Kind::None);
}

TEST(CancelToken, AmbientCheckpointUsesTheInstalledToken)
{
    cancel::clearStop();
    EXPECT_EQ(cancel::current(), nullptr);
    EXPECT_NO_THROW(cancel::checkpoint());

    cancel::CancelToken t;
    t.setHonorGlobalStop(false);
    {
        cancel::ScopedCurrent scope(&t);
        EXPECT_EQ(cancel::current(), &t);
        EXPECT_NO_THROW(cancel::checkpoint());
        t.requestCancel();
        EXPECT_THROW(cancel::checkpoint(), cancel::Cancelled);

        // Nested scopes restore the outer token on exit.
        cancel::CancelToken inner;
        inner.setHonorGlobalStop(false);
        {
            cancel::ScopedCurrent nested(&inner);
            EXPECT_EQ(cancel::current(), &inner);
            EXPECT_NO_THROW(cancel::checkpoint());
        }
        EXPECT_EQ(cancel::current(), &t);
    }
    EXPECT_EQ(cancel::current(), nullptr);
}

// ---------------------------------------------------------------------
// Evaluation deadlines
// ---------------------------------------------------------------------

TEST(EvalDeadline, BlownBudgetComesBackAsStructuredTimeout)
{
    study::EvalRequest req;
    req.configPath = fs::absolute(findConfig("niagara.xml")).string();
    req.timeoutMs = 1e-6;  // armed, and already elapsed at first check
    const study::EvalResult res = study::evaluate(req);
    EXPECT_FALSE(res.ok);
    EXPECT_TRUE(res.timedOut);
    EXPECT_FALSE(res.interrupted);
    EXPECT_NE(res.error.find("deadline"), std::string::npos)
        << res.error;
}

TEST(EvalDeadline, GlobalStopComesBackAsInterrupt)
{
    cancel::requestStop(SIGINT);
    study::EvalRequest req;
    req.configPath = fs::absolute(findConfig("niagara.xml")).string();
    const study::EvalResult res = study::evaluate(req);
    cancel::clearStop();
    EXPECT_FALSE(res.ok);
    EXPECT_TRUE(res.interrupted);
    EXPECT_FALSE(res.timedOut);
}

// ---------------------------------------------------------------------
// Physical-invariant audit
// ---------------------------------------------------------------------

namespace {

/** Evaluate a shipped config once and hand out the report tree. */
const study::EvalResult &
niagaraEval()
{
    static const study::EvalResult res = [] {
        study::EvalRequest req;
        req.configPath = fs::absolute(findConfig("niagara.xml")).string();
        req.wantReportJson = false;
        return study::evaluate(req);
    }();
    return res;
}

} // namespace

TEST(InvariantAudit, ShippedConfigAuditsClean)
{
    const study::EvalResult &res = niagaraEval();
    ASSERT_TRUE(res.ok) << res.error;
    EXPECT_FALSE(hasInvariantDiagnostic(res.diagnostics));
    EXPECT_TRUE(chip::auditReport(res.report).empty());
}

TEST(InvariantAudit, SeededNegativeLeakageIsLocated)
{
    const study::EvalResult &res = niagaraEval();
    ASSERT_TRUE(res.ok) << res.error;
    Report seeded = res.report;
    ASSERT_FALSE(seeded.children.empty());
    Report &victim = seeded.children.front();
    victim.subthresholdLeakage = -0.5;

    const DiagnosticList diags = chip::auditReport(seeded);
    const Diagnostic *d = findByKey(diags, "invariant.nonnegative");
    ASSERT_NE(d, nullptr);
    EXPECT_NE(d->component.find(victim.name), std::string::npos)
        << d->component;
    EXPECT_NE(d->message.find("subthreshold leakage"),
              std::string::npos);
}

TEST(InvariantAudit, SeededChildAreaAboveParentIsLocated)
{
    const study::EvalResult &res = niagaraEval();
    ASSERT_TRUE(res.ok) << res.error;
    Report seeded = res.report;
    ASSERT_FALSE(seeded.children.empty());
    // Inflate one child's area past the parent total without updating
    // the parent: a contribution counted below but lost on the way up.
    seeded.children.front().area = seeded.area * 2.0;

    const DiagnosticList diags = chip::auditReport(seeded);
    const Diagnostic *d = findByKey(diags, "invariant.child_sum");
    ASSERT_NE(d, nullptr);
    EXPECT_EQ(d->component, seeded.name);
    EXPECT_NE(d->message.find("area"), std::string::npos);
}

TEST(InvariantAudit, SeededNegativeDynamicBreaksLeakageBound)
{
    const study::EvalResult &res = niagaraEval();
    ASSERT_TRUE(res.ok) << res.error;
    Report seeded = res.report;
    ASSERT_FALSE(seeded.children.empty());
    // Total power is dynamic + leakage, so leakage can only exceed the
    // total when some dynamic term went negative.
    seeded.children.front().peakDynamic = -1.0;

    const DiagnosticList diags = chip::auditReport(seeded);
    EXPECT_NE(findByKey(diags, "invariant.leakage_le_power"), nullptr);
    EXPECT_NE(findByKey(diags, "invariant.nonnegative"), nullptr);
}

TEST(InvariantAudit, SeededNaNAreaIsLocatedOnce)
{
    const study::EvalResult &res = niagaraEval();
    ASSERT_TRUE(res.ok) << res.error;
    Report seeded = res.report;
    ASSERT_FALSE(seeded.children.empty());
    seeded.children.front().area =
        std::numeric_limits<double>::quiet_NaN();

    const DiagnosticList diags = chip::auditReport(seeded);
    const Diagnostic *d = findByKey(diags, "invariant.finite");
    ASSERT_NE(d, nullptr);
    EXPECT_NE(d->component.find(seeded.children.front().name),
              std::string::npos);
    // NaN must not additionally fire the non-negativity check, and the
    // parent's child-sum checks are skipped (the NaN child is the real
    // problem).
    EXPECT_EQ(findByKey(diags, "invariant.nonnegative"), nullptr);
    EXPECT_EQ(findByKey(diags, "invariant.child_sum"), nullptr);
}

TEST(InvariantAudit, SeededNegativeCriticalPathIsLocated)
{
    const study::EvalResult &res = niagaraEval();
    ASSERT_TRUE(res.ok) << res.error;
    Report seeded = res.report;
    ASSERT_FALSE(seeded.children.empty());
    seeded.children.front().criticalPath = -1e-9;

    const DiagnosticList diags = chip::auditReport(seeded);
    const Diagnostic *d = findByKey(diags, "invariant.nonnegative");
    ASSERT_NE(d, nullptr);
    EXPECT_NE(d->message.find("critical path"), std::string::npos);
}

TEST(InvariantAudit, StrictModeEscalatesSeededViolations)
{
    // Strict single evaluations must fail when the audit reports
    // anything; a clean shipped config must still pass strict.
    study::EvalRequest req;
    req.configPath = fs::absolute(findConfig("niagara.xml")).string();
    req.strict = true;
    req.wantReportJson = false;
    const study::EvalResult res = study::evaluate(req);
    EXPECT_TRUE(res.ok) << res.error;
}

// ---------------------------------------------------------------------
// Journaled batch resume (in-process)
// ---------------------------------------------------------------------

TEST(BatchResume, ReplaysJournaledItemsByteIdentically)
{
    const fs::path dir = scratchDir("resume");
    const std::string list = writeList(dir,
        {fs::absolute(findConfig("niagara.xml")).string(),
         fs::absolute(findConfig("alpha21364.xml")).string()});

    study::BatchOptions opts;
    opts.outputDir = (dir / "out").string();

    // Uninterrupted reference run.
    std::ostringstream log1;
    const auto fresh = study::runBatch(list, opts, log1);
    ASSERT_TRUE(fresh.ok()) << log1.str();
    ASSERT_EQ(fresh.items.size(), 2u);
    ASSERT_FALSE(fresh.journalPath.empty());
    const std::string freshSummary = slurp(fresh.summaryCsvPath);
    const std::string freshJson0 = slurp(fresh.items[0].jsonPath);
    const std::string freshJson1 = slurp(fresh.items[1].jsonPath);

    // Simulate a crash after the first item: keep the journal header
    // plus the first item record, as if the process died mid-second.
    const common::JournalContents j =
        common::readJournal(fresh.journalPath);
    ASSERT_GE(j.records.size(), 3u);  // header + 2 items
    {
        common::JournalWriter w;
        ASSERT_TRUE(w.open(fresh.journalPath, /*truncate=*/true));
        ASSERT_TRUE(w.append(j.records[0]));
        ASSERT_TRUE(w.append(j.records[1]));
    }
    fs::remove(fresh.items[1].jsonPath);  // the crash lost item 2

    study::BatchOptions resumeOpts = opts;
    resumeOpts.resume = true;
    std::ostringstream log2;
    const auto resumed = study::runBatch(list, resumeOpts, log2);
    EXPECT_TRUE(resumed.ok()) << log2.str();
    ASSERT_EQ(resumed.items.size(), 2u);
    EXPECT_EQ(resumed.resumed, 1u);

    // Replayed and re-evaluated outputs match the uninterrupted run
    // byte for byte; the summary matches modulo wall-clock columns.
    EXPECT_EQ(slurp(resumed.items[0].jsonPath), freshJson0);
    EXPECT_EQ(slurp(resumed.items[1].jsonPath), freshJson1);
    EXPECT_EQ(maskSummaryTiming(slurp(resumed.summaryCsvPath)),
              maskSummaryTiming(freshSummary));

    // The journal now records both items again: a third, fully
    // resumed run replays everything without re-evaluating.
    std::ostringstream log3;
    const auto replayAll = study::runBatch(list, resumeOpts, log3);
    EXPECT_TRUE(replayAll.ok()) << log3.str();
    EXPECT_EQ(replayAll.resumed, 2u);
    EXPECT_EQ(maskSummaryTiming(slurp(replayAll.summaryCsvPath)),
              maskSummaryTiming(freshSummary));
    fs::remove_all(dir);
}

TEST(BatchResume, MismatchedJournalHeaderStartsFresh)
{
    const fs::path dir = scratchDir("resume_mismatch");
    const std::string list =
        writeList(dir, {fs::absolute(findConfig("niagara.xml")).string()});

    study::BatchOptions opts;
    opts.outputDir = (dir / "out").string();
    std::ostringstream log1;
    const auto first = study::runBatch(list, opts, log1);
    ASSERT_TRUE(first.ok()) << log1.str();

    // Change the list contents: the journal's list checksum no longer
    // matches, so -resume must ignore it rather than replay stale
    // results against a different input set.
    const std::string list2 = writeList(dir,
        {fs::absolute(findConfig("niagara.xml")).string(),
         fs::absolute(findConfig("alpha21364.xml")).string()});
    study::BatchOptions resumeOpts = opts;
    resumeOpts.resume = true;
    std::ostringstream log2;
    const auto second = study::runBatch(list2, resumeOpts, log2);
    EXPECT_TRUE(second.ok()) << log2.str();
    EXPECT_EQ(second.resumed, 0u);
    EXPECT_EQ(second.items.size(), 2u);
    fs::remove_all(dir);
}

TEST(BatchResume, TornTailResumeKeepsLaterRecordsReadable)
{
    const fs::path dir = scratchDir("resume_torn");
    const std::string list = writeList(dir,
        {fs::absolute(findConfig("niagara.xml")).string(),
         fs::absolute(findConfig("alpha21364.xml")).string()});

    study::BatchOptions opts;
    opts.outputDir = (dir / "out").string();
    std::ostringstream log1;
    const auto fresh = study::runBatch(list, opts, log1);
    ASSERT_TRUE(fresh.ok()) << log1.str();

    // Cut the last record in half, as a kill inside its write would.
    const std::string journal = slurp(fresh.journalPath);
    const std::size_t last = journal.rfind('\n', journal.size() - 2) + 1;
    fs::resize_file(fresh.journalPath,
                    last + (journal.size() - last) / 2);

    const fs::path events = dir / "events.jsonl";
    ASSERT_TRUE(elog::open(events.string()));
    study::BatchOptions resumeOpts = opts;
    resumeOpts.resume = true;
    std::ostringstream log2;
    const auto first = study::runBatch(list, resumeOpts, log2);
    elog::close();
    EXPECT_TRUE(first.ok()) << log2.str();
    EXPECT_EQ(first.resumed, 1u);
    EXPECT_EQ(countOf(log2.str(), "batch: warning: "), 1u) << log2.str();
    EXPECT_NE(log2.str().find("corrupt tail (1 line(s) dropped)"),
              std::string::npos)
        << log2.str();
    const std::string slurped = slurp(events.string());
    EXPECT_EQ(countOf(slurped, "\"journal_tail_corrupt\""), 1u) << slurped;
    EXPECT_NE(eventLine(slurped, "journal_tail_corrupt")
                  .find("\"study.batch\""),
              std::string::npos)
        << slurped;

    // The first resume cut the torn half-line before it committed the
    // item it re-evaluated, so the second replays both items and finds
    // nothing to warn about.
    std::ostringstream log3;
    const auto second = study::runBatch(list, resumeOpts, log3);
    EXPECT_TRUE(second.ok()) << log3.str();
    EXPECT_EQ(second.resumed, 2u);
    EXPECT_EQ(log3.str().find("warning"), std::string::npos) << log3.str();
    EXPECT_FALSE(common::readJournal(fresh.journalPath).tailCorrupt);
    fs::remove_all(dir);
}

TEST(BatchResume, FailedJournalCommitWarnsOnceAndKeepsResults)
{
    // Every write to /dev/full fails with ENOSPC after a successful
    // open: the disk-full case.
    if (!fs::exists("/dev/full"))
        GTEST_SKIP() << "no /dev/full on this platform";
    const fs::path dir = scratchDir("journal_full");
    const std::string list = writeList(dir,
        {fs::absolute(findConfig("niagara.xml")).string(),
         fs::absolute(findConfig("alpha21364.xml")).string()});

    study::BatchOptions opts;
    opts.outputDir = (dir / "reference").string();
    std::ostringstream ref_log;
    const auto reference = study::runBatch(list, opts, ref_log);
    ASSERT_TRUE(reference.ok()) << ref_log.str();

    const fs::path events = dir / "events.jsonl";
    ASSERT_TRUE(elog::open(events.string()));
    opts.outputDir = (dir / "out").string();
    opts.journalPath = "/dev/full";
    std::ostringstream log;
    const auto res = study::runBatch(list, opts, log);
    elog::close();

    EXPECT_TRUE(res.ok()) << log.str();
    EXPECT_TRUE(res.journalPath.empty());
    EXPECT_EQ(countOf(log.str(), "batch: warning: "), 1u) << log.str();
    EXPECT_NE(log.str().find("resume will not be available"),
              std::string::npos)
        << log.str();
    const std::string slurped = slurp(events.string());
    EXPECT_EQ(countOf(slurped, "\"journal_commit_failed\""), 1u)
        << slurped;
    EXPECT_NE(eventLine(slurped, "journal_commit_failed")
                  .find("\"study.batch\""),
              std::string::npos)
        << slurped;

    ASSERT_EQ(res.items.size(), reference.items.size());
    for (std::size_t i = 0; i < res.items.size(); ++i) {
        EXPECT_EQ(slurp(res.items[i].jsonPath),
                  slurp(reference.items[i].jsonPath));
        EXPECT_EQ(slurp(res.items[i].csvPath),
                  slurp(reference.items[i].csvPath));
    }
    EXPECT_EQ(maskSummaryTiming(slurp(res.summaryCsvPath)),
              maskSummaryTiming(slurp(reference.summaryCsvPath)));
    fs::remove_all(dir);
}

TEST(BatchResume, TimedOutItemFailsButTheBatchContinues)
{
    const fs::path dir = scratchDir("timeout");
    const std::string list = writeList(dir,
        {fs::absolute(findConfig("niagara.xml")).string(),
         fs::absolute(findConfig("alpha21364.xml")).string()});

    study::BatchOptions opts;
    opts.outputDir = (dir / "out").string();
    opts.evalTimeoutMs = 1e-6;
    std::ostringstream log;
    const auto res = study::runBatch(list, opts, log);
    EXPECT_FALSE(res.ok());
    ASSERT_EQ(res.items.size(), 2u);
    EXPECT_EQ(res.failures, 2u);
    EXPECT_EQ(res.interruptedSignal, 0);
    for (const auto &item : res.items) {
        EXPECT_FALSE(item.ok);
        EXPECT_NE(item.error.find("deadline"), std::string::npos)
            << item.error;
    }
    fs::remove_all(dir);
}

TEST(BatchResume, PendingStopInterruptsBeforeTheNextItem)
{
    const fs::path dir = scratchDir("interrupt");
    const std::string list = writeList(dir,
        {fs::absolute(findConfig("niagara.xml")).string(),
         fs::absolute(findConfig("alpha21364.xml")).string()});

    study::BatchOptions opts;
    opts.outputDir = (dir / "out").string();

    // A stop request raised before the batch starts must stop it at
    // the first item boundary with the signal recorded — nothing
    // evaluated, nothing journaled as complete.
    cancel::requestStop(SIGTERM);
    std::ostringstream log;
    const auto res = study::runBatch(list, opts, log);
    cancel::clearStop();
    EXPECT_FALSE(res.ok());
    EXPECT_EQ(res.interruptedSignal, SIGTERM);
    EXPECT_TRUE(res.items.empty());

    // Resuming after the interrupt runs the full batch to completion.
    study::BatchOptions resumeOpts = opts;
    resumeOpts.resume = true;
    std::ostringstream log2;
    const auto resumed = study::runBatch(list, resumeOpts, log2);
    EXPECT_TRUE(resumed.ok()) << log2.str();
    EXPECT_EQ(resumed.items.size(), 2u);
    EXPECT_EQ(resumed.resumed, 0u);
    fs::remove_all(dir);
}

// ---------------------------------------------------------------------
// Sweep journal
// ---------------------------------------------------------------------

TEST(SweepJournal, ResumeReplaysAggregatesAndSkipsEvaluation)
{
    const fs::path dir = scratchDir("sweep");
    // Two small design points keep the test fast; the journal schema
    // is the same as the full 8-point paper sweep.
    std::vector<study::CaseStudyConfig> configs(2);
    configs[0].totalCores = 4;
    configs[0].coresPerCluster = 2;
    configs[1].totalCores = 4;
    configs[1].coresPerCluster = 4;

    study::SweepJournalOptions journal;
    journal.path = (dir / "sweep_journal.jsonl").string();
    const auto fresh =
        study::evaluateDesignPoints(configs, 1.0e12, journal);
    ASSERT_EQ(fresh.size(), 2u);
    EXPECT_GT(fresh[0].area, 0.0);
    EXPECT_FALSE(fresh[0].workloads.empty());

    // Resume: both points replay from the journal — aggregates exact,
    // per-workload detail intentionally absent and explicitly flagged.
    journal.resume = true;
    const auto replayed =
        study::evaluateDesignPoints(configs, 1.0e12, journal);
    ASSERT_EQ(replayed.size(), 2u);
    for (std::size_t i = 0; i < replayed.size(); ++i) {
        EXPECT_EQ(replayed[i].area, fresh[i].area);
        EXPECT_EQ(replayed[i].tdp, fresh[i].tdp);
        EXPECT_EQ(replayed[i].meanThroughput, fresh[i].meanThroughput);
        EXPECT_EQ(replayed[i].meanPower, fresh[i].meanPower);
        EXPECT_TRUE(replayed[i].workloads.empty());
        EXPECT_TRUE(replayed[i].aggregatesOnly);
        EXPECT_FALSE(fresh[i].aggregatesOnly);
    }

    // Printing a replayed point must say why there is no per-workload
    // section, not render an empty one.
    std::ostringstream note;
    study::printDesignPointWorkloads(note, replayed[0]);
    EXPECT_NE(note.str().find("aggregates only"), std::string::npos)
        << note.str();
    std::ostringstream table;
    study::printDesignPointWorkloads(table, fresh[0]);
    EXPECT_NE(table.str().find("workload"), std::string::npos);

    // A different work value invalidates the journal header: the
    // sweep re-evaluates rather than replaying mismatched aggregates.
    const auto rework =
        study::evaluateDesignPoints(configs, 2.0e12, journal);
    ASSERT_EQ(rework.size(), 2u);
    EXPECT_FALSE(rework[0].workloads.empty());
    EXPECT_FALSE(rework[0].aggregatesOnly);
    fs::remove_all(dir);
}

TEST(SweepJournal, NonFiniteWorkResumesAndNeverFalselyMatchesZero)
{
    const fs::path dir = scratchDir("sweep_nan_work");
    std::vector<study::CaseStudyConfig> configs(1);
    configs[0].totalCores = 4;
    configs[0].coresPerCluster = 4;

    // A non-finite work journals its header work as JSON null.  The
    // old exact `double ==` against the parsed number (null -> 0.0
    // default) meant such journals could never be resumed — and were
    // silently *accepted* by a later run whose work really was 0.0.
    const double nan_work = std::numeric_limits<double>::quiet_NaN();
    study::SweepJournalOptions journal;
    journal.path = (dir / "sweep_journal.jsonl").string();
    const auto fresh =
        study::evaluateDesignPoints(configs, nan_work, journal);
    ASSERT_EQ(fresh.size(), 1u);

    // Same (non-finite) work: the journal matches and replays.
    journal.resume = true;
    const auto replayed =
        study::evaluateDesignPoints(configs, nan_work, journal);
    EXPECT_TRUE(replayed[0].aggregatesOnly);
    EXPECT_EQ(replayed[0].area, fresh[0].area);

    // work = 0.0 must NOT match the null header: fresh evaluation.
    const auto zero =
        study::evaluateDesignPoints(configs, 0.0, journal);
    EXPECT_FALSE(zero[0].aggregatesOnly);
    EXPECT_FALSE(zero[0].workloads.empty());
    fs::remove_all(dir);
}

TEST(SweepJournal, DamagedTailReplaysIntactPointsByteIdentically)
{
    const fs::path dir = scratchDir("sweep_tail");
    std::vector<study::CaseStudyConfig> configs(2);
    configs[0].totalCores = 4;
    configs[0].coresPerCluster = 2;
    configs[1].totalCores = 4;
    configs[1].coresPerCluster = 4;

    study::SweepJournalOptions journal;
    journal.path = (dir / "sweep_journal.jsonl").string();
    const auto fresh =
        study::evaluateDesignPoints(configs, 1.0e12, journal);

    // Truncate the final journal line mid-record, as a kill mid-write
    // would.  The checksummed reader drops the damaged tail; resume
    // replays the intact point and re-evaluates the lost one.
    {
        std::ifstream in(journal.path);
        std::vector<std::string> lines;
        std::string line;
        while (std::getline(in, line))
            lines.push_back(line);
        ASSERT_EQ(lines.size(), 3u);  // header + 2 points
        in.close();
        std::ofstream out(journal.path, std::ios::trunc);
        out << lines[0] << "\n" << lines[1] << "\n"
            << lines[2].substr(0, lines[2].size() / 2);
    }

    study::resetSweepEvalStats();
    journal.resume = true;
    const auto resumed =
        study::evaluateDesignPoints(configs, 1.0e12, journal);
    const auto stats = study::sweepEvalStats();
    EXPECT_EQ(stats.replayed, 1u);
    EXPECT_EQ(stats.fullEvaluations, 1u);

    // Whichever path each point took, the aggregates match the
    // uninterrupted run bit for bit (replay round-trips at full
    // precision; re-evaluation is deterministic).
    for (std::size_t i = 0; i < resumed.size(); ++i) {
        EXPECT_EQ(resumed[i].area, fresh[i].area);
        EXPECT_EQ(resumed[i].tdp, fresh[i].tdp);
        EXPECT_EQ(resumed[i].meanThroughput, fresh[i].meanThroughput);
        EXPECT_EQ(resumed[i].meanPower, fresh[i].meanPower);
        EXPECT_EQ(resumed[i].meanMetrics.ed, fresh[i].meanMetrics.ed);
        EXPECT_EQ(resumed[i].meanMetrics.ed2a,
                  fresh[i].meanMetrics.ed2a);
    }

    // The resume cut the torn tail off in place before committing the
    // point it re-evaluated, so a second resume replays both points.
    study::resetSweepEvalStats();
    study::evaluateDesignPoints(configs, 1.0e12, journal);
    const auto again = study::sweepEvalStats();
    EXPECT_EQ(again.replayed, 2u);
    EXPECT_EQ(again.fullEvaluations, 0u);
    EXPECT_FALSE(common::readJournal(journal.path).tailCorrupt);
    fs::remove_all(dir);
}

TEST(SweepJournal, LastPointWithoutNewlineReplaysAndStaysReadable)
{
    const fs::path dir = scratchDir("sweep_newline");
    std::vector<study::CaseStudyConfig> configs(2);
    configs[0].totalCores = 4;
    configs[0].coresPerCluster = 2;
    configs[1].totalCores = 4;
    configs[1].coresPerCluster = 4;

    study::SweepJournalOptions journal;
    journal.path = (dir / "sweep_journal.jsonl").string();
    study::evaluateDesignPoints(configs, 1.0e12, journal);

    // A crash just before the last record's newline leaves that
    // record whole: it replays, and the resumed run's commit must
    // start on a new line rather than run on from it.
    fs::resize_file(journal.path, fs::file_size(journal.path) - 1);
    configs.push_back(configs[0]);
    configs[2].coresPerCluster = 1;
    journal.resume = true;
    study::resetSweepEvalStats();
    study::evaluateDesignPoints(configs, 1.0e12, journal);
    EXPECT_EQ(study::sweepEvalStats().replayed, 2u);
    EXPECT_EQ(study::sweepEvalStats().fullEvaluations, 1u);

    study::resetSweepEvalStats();
    study::evaluateDesignPoints(configs, 1.0e12, journal);
    EXPECT_EQ(study::sweepEvalStats().replayed, 3u);
    EXPECT_EQ(study::sweepEvalStats().fullEvaluations, 0u);
    const common::JournalContents j = common::readJournal(journal.path);
    EXPECT_FALSE(j.tailCorrupt);
    EXPECT_FALSE(j.lastRecordUnterminated);
    EXPECT_EQ(j.records.size(), 4u);  // header + 3 points
    fs::remove_all(dir);
}

// ---------------------------------------------------------------------
// SIGKILL-mid-run resume property (subprocess, real CLI binary)
// ---------------------------------------------------------------------

#ifdef MCPAT_CLI_PATH

namespace {

/** Spawn the real CLI in batch mode; returns the child pid. */
pid_t
spawnBatch(const std::string &list, const std::string &outDir,
           bool resume)
{
    const pid_t pid = ::fork();
    if (pid != 0)
        return pid;
    // Child: silence the batch log; the test asserts on files.
    if (!std::freopen("/dev/null", "w", stdout) ||
        !std::freopen("/dev/null", "w", stderr))
        ::_exit(126);
    if (resume) {
        ::execl(MCPAT_CLI_PATH, MCPAT_CLI_PATH, "-batch", list.c_str(),
                "-batch_out", outDir.c_str(), "-resume",
                static_cast<char *>(nullptr));
    } else {
        ::execl(MCPAT_CLI_PATH, MCPAT_CLI_PATH, "-batch", list.c_str(),
                "-batch_out", outDir.c_str(),
                static_cast<char *>(nullptr));
    }
    ::_exit(127);
}

int
waitForExit(pid_t pid)
{
    int status = 0;
    EXPECT_EQ(::waitpid(pid, &status, 0), pid);
    return status;
}

} // namespace

TEST(BatchResume, SigkilledRunResumesToByteIdenticalOutput)
{
    const fs::path dir = scratchDir("sigkill");
    const std::string list = writeList(dir,
        {fs::absolute(findConfig("niagara.xml")).string(),
         fs::absolute(findConfig("alpha21364.xml")).string(),
         fs::absolute(findConfig("xeon_tulsa.xml")).string()});
    const std::string outKilled = (dir / "killed").string();
    const std::string outFresh = (dir / "fresh").string();

    // Reference: one uninterrupted run.
    const int freshStatus = waitForExit(spawnBatch(list, outFresh,
                                                   false));
    ASSERT_TRUE(WIFEXITED(freshStatus) &&
                WEXITSTATUS(freshStatus) == 0);

    // Victim: SIGKILL as soon as the first report lands — no handler
    // runs, no flush happens; only the journal's completed records
    // survive.  If the kill races past the whole batch, the run simply
    // completed and resume degenerates to full replay: the property
    // holds wherever the kill lands.
    const pid_t victim = spawnBatch(list, outKilled, false);
    ASSERT_GT(victim, 0);
    bool victimExited = false;
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::minutes(5);
    while (std::chrono::steady_clock::now() < deadline) {
        bool anyReport = false;
        if (fs::exists(outKilled)) {
            for (const auto &e : fs::directory_iterator(outKilled))
                anyReport = anyReport ||
                    e.path().extension() == ".json";
        }
        if (anyReport)
            break;
        int status = 0;
        if (::waitpid(victim, &status, WNOHANG) == victim) {
            victimExited = true;
            EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0);
            break;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    if (!victimExited) {
        ::kill(victim, SIGKILL);
        const int killedStatus = waitForExit(victim);
        ASSERT_TRUE(WIFSIGNALED(killedStatus));
        ASSERT_EQ(WTERMSIG(killedStatus), SIGKILL);
    }

    // Resume and compare every artifact against the reference run.
    const int resumeStatus = waitForExit(spawnBatch(list, outKilled,
                                                    true));
    ASSERT_TRUE(WIFEXITED(resumeStatus) &&
                WEXITSTATUS(resumeStatus) == 0);

    std::vector<std::string> reports;
    for (const auto &e : fs::directory_iterator(outFresh))
        if (e.path().extension() == ".json" ||
            e.path().extension() == ".csv")
            reports.push_back(e.path().filename().string());
    ASSERT_FALSE(reports.empty());
    for (const auto &name : reports) {
        if (name == "batch_summary.csv")
            continue;
        EXPECT_EQ(slurp((fs::path(outKilled) / name).string()),
                  slurp((fs::path(outFresh) / name).string()))
            << name;
    }
    EXPECT_EQ(
        maskSummaryTiming(slurp(outKilled + "/batch_summary.csv")),
        maskSummaryTiming(slurp(outFresh + "/batch_summary.csv")));
    fs::remove_all(dir);
}

#endif // MCPAT_CLI_PATH
