/**
 * @file
 * The paper's 22 nm manycore case study: in-order (Niagara2-like) vs
 * out-of-order (Alpha-like) cores, with 1/2/4/8 cores per cluster
 * sharing an L2, evaluated on the SPLASH-2-like workloads for
 * throughput, power, and combined ED/ED2/EDA/ED2A metrics.
 */

#ifndef MCPAT_STUDY_SWEEP_HH
#define MCPAT_STUDY_SWEEP_HH

#include <iosfwd>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/diagnostics.hh"
#include "common/journal.hh"
#include "perf/activity_gen.hh"
#include "study/metrics.hh"

namespace mcpat {
namespace study {

/** Core microarchitecture style for the case study. */
enum class CoreStyle
{
    InOrderMT,   ///< dual-issue, 4-thread, Niagara2-like
    OutOfOrder   ///< 4-wide OoO, Alpha-like
};

/** One design point of the case study. */
struct CaseStudyConfig
{
    int nodeNm = 22;
    double clockRate = 2.5e9;
    int totalCores = 64;
    int coresPerCluster = 4;      ///< 1, 2, 4, or 8
    CoreStyle style = CoreStyle::InOrderMT;

    /** Per-core L2 allocation (cluster L2 = this x cluster size). */
    double l2BytesPerCore = 1.0 * 1024 * 1024;

    /**
     * Human-readable point name: "<style>-c<cluster>", extended with
     * core count / clock / L2 suffixes only when those knobs deviate
     * from the paper defaults (so the classic 8-point sweep keeps its
     * historical labels).
     */
    std::string label() const;

    /**
     * Canonical identity string covering *every* field at full double
     * precision.  Journals and memo tables key on this — two configs
     * share a key exactly when they describe the same design point.
     */
    std::string key() const;

    int clusters() const { return totalCores / coresPerCluster; }
};

/**
 * Grid shape for an n-node cluster mesh: the smallest nx x ny grid
 * (nx <= ny) with nx*ny >= n and aspect ratio at most 2:1.  Exact
 * factorizations stay waste-free (8 -> 2x4, 16 -> 4x4); prime and
 * awkward counts pad with idle slots instead of degenerating to a
 * 1xN chain (7 -> 2x4).
 */
std::pair<int, int> meshDims(int n);

/** Full chip description for a design point. */
chip::SystemParams makeCaseStudySystem(const CaseStudyConfig &cfg);

/** Per-workload evaluation of one design point. */
struct WorkloadResult
{
    std::string workload;
    perf::SystemPerformance performance;
    double runtimePower = 0.0;   ///< W
    RunFigures figures;
    Metrics metrics;
};

/** Aggregated evaluation of one design point. */
struct DesignPointResult
{
    CaseStudyConfig config;
    double area = 0.0;           ///< m^2
    double tdp = 0.0;            ///< W
    std::vector<WorkloadResult> workloads;

    /**
     * The per-workload vector is intentionally absent: this result was
     * replayed from a sweep journal, which records aggregates only.
     * Consumers printing per-workload sections must say so instead of
     * emitting nothing (printDesignPointWorkloads does).
     */
    bool aggregatesOnly = false;

    /**
     * Located problems found while evaluating this point — e.g. a
     * degenerate workload whose metrics came back non-finite.  The
     * point itself survives with NaN aggregates (JSON null).
     */
    DiagnosticList diagnostics;

    // Workload aggregates (arithmetic mean throughput; geometric mean
    // for ratio-like metrics, as the paper does).
    double meanThroughput = 0.0; ///< instructions/s
    double meanPower = 0.0;      ///< W
    Metrics meanMetrics;
};

/**
 * Evaluate one design point on all case-study workloads.
 *
 * Polls the ambient cancellation token (common/cancel.hh) between
 * workloads, so a deadline or stop request unwinds with
 * cancel::Cancelled instead of running the sweep to completion.
 *
 * A degenerate workload (non-positive delay, non-finite power) does
 * not throw: its metrics — and the affected aggregates — come back
 * NaN, with a located diagnostic in DesignPointResult::diagnostics.
 *
 * @param work the fixed work per run, instructions (delay = work /
 *             throughput)
 */
DesignPointResult evaluateDesignPoint(const CaseStudyConfig &cfg,
                                      double work = 1.0e12);

/** The paper's design points: both core styles x clusters {1,2,4,8}. */
std::vector<CaseStudyConfig> caseStudyConfigs();

/** Journal controls for SweepJournalSession / evaluateDesignPoints(). */
struct SweepJournalOptions
{
    /** Journal file; empty disables journaling (and resume). */
    std::string path;

    /**
     * Replay design points recorded in an existing journal.  Replayed
     * points carry the journaled aggregates (area, TDP, mean
     * throughput/power/metrics) with an empty per-workload vector and
     * aggregatesOnly set; callers needing per-workload detail
     * re-evaluate.
     */
    bool resume = false;
};

/**
 * One sweep journal (schema "mcpat-sweep-journal-v2", keyed by
 * CaseStudyConfig::key()) held open across every round of a sweep or
 * search, so an interrupted run resumes without redoing finished
 * points.
 *
 * The journal is a common::JournalSession: with resume set it is read
 * once, and it binds when its header carries the schema and the
 * `work` value by its max_digits10 round-trip representation (JSON
 * null for a non-finite work), so a journal matches exactly when the
 * value it was built with matches.  Its points become the replay set,
 * and it is appended to after its intact records (a torn tail is cut
 * off in place, never rewritten); any other journal is truncated and
 * gets a fresh header.
 *
 * Each evaluateRound() commits that round's freshly evaluated points
 * in one write(2) and one fsync once the round is done, in @p configs
 * order; a round of more than 64 points commits every 64.  So a kill
 * loses at most the round (at most 64 points) in flight, a cancel or
 * other exception loses no point that finished (the finished slots
 * are committed before it propagates), and the file's line order is
 * deterministic at any thread count: the header, then each round's
 * fresh points in index order.
 *
 * A torn tail, a mismatched header, or a journal that cannot be
 * opened or committed to warns once (stderr and the event log,
 * component "study.sweep"); the sweep runs on without what it lost,
 * and results never depend on the journal.
 */
class SweepJournalSession
{
  public:
    SweepJournalSession(const SweepJournalOptions &journal, double work);

    /**
     * Evaluate @p configs in parallel, replaying journaled points, and
     * commit the fresh ones.  Results keep @p configs order.
     */
    std::vector<DesignPointResult>
    evaluateRound(const std::vector<CaseStudyConfig> &configs);

  private:
    double _work;
    common::JournalSession _journal;
    std::map<std::string, DesignPointResult> _replay;
};

/**
 * Evaluate @p configs as a one-round SweepJournalSession: the fresh
 * points are journaled once they finish, so a resumed sweep does not
 * redo them.  Results keep @p configs order.
 */
std::vector<DesignPointResult>
evaluateDesignPoints(const std::vector<CaseStudyConfig> &configs,
                     double work, const SweepJournalOptions &journal);

/** The paper's sweep: both core styles x cluster sizes {1,2,4,8}. */
std::vector<DesignPointResult> runCaseStudy(double work = 1.0e12);

/** Sweep evaluation counters (mirrored into the registry). */
struct SweepEvalStats
{
    std::uint64_t fullEvaluations = 0;  ///< evaluateDesignPoint calls
    std::uint64_t replayed = 0;         ///< points served from a journal
};

SweepEvalStats sweepEvalStats();
void resetSweepEvalStats();

/**
 * Append one design point's JSON members, `"key"` through `"ed2a"`,
 * without the enclosing braces (journal records and the search
 * document share them).  Numbers use the round-trip rule
 * (appendJsonNumber at kRoundTripPrecision).
 */
void appendSweepPointFields(std::string &out, const DesignPointResult &r);

/**
 * Print one design point's per-workload rows.  A replayed
 * (aggregatesOnly) point prints an explicit note instead of a silent
 * empty section.
 */
void printDesignPointWorkloads(std::ostream &os,
                               const DesignPointResult &r);

/** A text-table number cell: `%.4g`, or "-" for a non-finite value. */
std::string numberCell(double v);

} // namespace study
} // namespace mcpat

#endif // MCPAT_STUDY_SWEEP_HH
