/**
 * @file
 * Batch evaluation: run many XML configurations through the full model
 * in one process, amortizing the in-memory and on-disk array caches
 * across inputs.
 *
 * The CLI's `-batch <list-file>` mode is a thin wrapper around
 * runBatch(); tests drive it directly.
 */

#ifndef MCPAT_STUDY_BATCH_HH
#define MCPAT_STUDY_BATCH_HH

#include <iosfwd>
#include <string>
#include <vector>

#include "array/array_cache.hh"
#include "common/diagnostics.hh"

namespace mcpat {
namespace study {

/** Controls for one runBatch() invocation. */
struct BatchOptions
{
    /** Directory receiving one report file set per input. */
    std::string outputDir = "mcpat_batch";

    bool writeJson = true;
    bool writeCsv = true;

    /**
     * Stop at the first failing input instead of continuing with the
     * remaining configurations.
     */
    bool stopOnError = false;

    /**
     * Treat validation warnings as failures (the CLI's -strict).
     * Validation *errors* always fail the item regardless of this
     * flag; either way the failure is isolated to that input and its
     * diagnostics land in the per-input sidecar files.
     */
    bool strict = false;

    /**
     * Write <outputDir>/batch_summary.csv: one row per input with the
     * headline figures and per-input timing columns (load, assemble,
     * report, total milliseconds).
     */
    bool writeSummaryCsv = true;

    /**
     * When non-empty, write an aggregated run manifest (JSON) here:
     * per-input timing and outcome plus the full instrumentation
     * registry (phases, cache tiers, search counts, pool metrics).
     * The CLI's -metrics_out in batch mode.
     */
    std::string metricsOut;

    /**
     * Resume from the progress journal of an earlier interrupted run
     * (the CLI's -resume).  Items the journal records as completed are
     * replayed — their figures re-emitted, sidecars rewritten, report
     * files verified on disk — instead of re-evaluated, so the final
     * outputs match an uninterrupted run.  A journal whose header does
     * not match this run (different list contents or options) is
     * ignored with a warning and the batch starts fresh.
     */
    bool resume = false;

    /**
     * Wall-clock budget per input, milliseconds; <= 0 means unbounded
     * (the CLI's -eval_timeout_ms).  A blown budget fails that item
     * with a structured timeout error; the batch continues.
     */
    double evalTimeoutMs = 0.0;

    /**
     * Progress journal path; empty uses
     * <outputDir>/batch_journal.jsonl.
     */
    std::string journalPath;
};

/** Outcome of one configuration in the batch. */
struct BatchItemResult
{
    std::string input;       ///< config path as given in the list file
    std::string name;        ///< unique output stem derived from input
    bool ok = false;
    /**
     * Failure reason when !ok.  Output-file problems (an unwritable
     * diagnostics sidecar) are also recorded here even when the model
     * evaluation itself succeeded, so no write failure is silent.
     */
    std::string error;
    std::string jsonPath;    ///< written report, empty if not written
    std::string csvPath;     ///< written report, empty if not written

    /** Every validation diagnostic this input produced. */
    DiagnosticList diagnostics;
    /** Sidecar diagnostic reports (<stem>.diagnostics.{json,csv}),
     *  written whenever diagnostics is non-empty. */
    std::string diagnosticsJsonPath;
    std::string diagnosticsCsvPath;

    // Chip-level headline figures (valid when ok).
    double area = 0.0;       ///< m^2
    double peakPower = 0.0;  ///< W
    double runtimePower = 0.0;  ///< W

    // Per-input wall-clock breakdown, seconds (always recorded; two
    // clock reads per phase are noise next to a model evaluation).
    double loadSeconds = 0.0;      ///< parse + load + validation
    double assembleSeconds = 0.0;  ///< Processor construction (TDP incl.)
    double reportSeconds = 0.0;    ///< report generation + file writes
    double wallSeconds = 0.0;      ///< end-to-end for this input
};

/** Outcome of the whole batch. */
struct BatchResult
{
    std::vector<BatchItemResult> items;
    std::size_t failures = 0;

    /** Array-cache counters snapshotted after the batch completed. */
    array::ArrayCacheStats cacheStats;

    /** End-to-end batch wall clock, seconds. */
    double wallSeconds = 0.0;

    /** Written summary CSV path, empty when not written. */
    std::string summaryCsvPath;

    /**
     * Why the summary CSV is missing or suspect: set when the file
     * could not be opened or a write error was detected afterwards.
     * Empty + empty summaryCsvPath simply means "not requested";
     * callers (and the server's batch endpoint) use this to tell
     * "no summary" from "summary lost".
     */
    std::string summaryError;

    /** Written aggregated manifest path, empty when not written. */
    std::string metricsPath;

    /** Items replayed from the journal instead of re-evaluated. */
    std::size_t resumed = 0;

    /**
     * The stop signal (SIGINT/SIGTERM) that cut the batch short; 0
     * when it ran to completion.  Completed items were flushed and
     * journaled before returning; the front end exits 128+signal.
     */
    int interruptedSignal = 0;

    /** Journal path in use; empty when journaling was unavailable. */
    std::string journalPath;

    bool ok() const
    {
        return failures == 0 && interruptedSignal == 0 && !items.empty();
    }
};

/**
 * Parse a batch list file: one configuration path per line, blank
 * lines and `#` comments ignored.  Relative paths resolve against the
 * list file's directory.  Throws ConfigError when the file cannot be
 * read.
 */
std::vector<std::string> readBatchList(const std::string &listFile);

/**
 * Evaluate every configuration in @p listFile, writing per-input
 * reports into opts.outputDir (created on demand) and a human-readable
 * per-item line plus a final summary — including per-tier cache hit
 * rates — to @p log.
 *
 * A failing input is reported and counted but does not abort the batch
 * unless opts.stopOnError is set.  Only list-file level problems throw.
 * Any input that produced validation diagnostics additionally gets
 * <stem>.diagnostics.json / .csv sidecar files recording each
 * diagnostic's severity, component, key, and source line.
 */
BatchResult runBatch(const std::string &listFile, const BatchOptions &opts,
                     std::ostream &log);

} // namespace study
} // namespace mcpat

#endif // MCPAT_STUDY_BATCH_HH
