/**
 * @file
 * The one evaluation path: one configuration in, one report (plus
 * diagnostics, timing, and an optional manifest) out.
 *
 * Every front end evaluates through evaluate(): the single-shot CLI,
 * the batch runner, and the `-serve` daemon.  It runs load ->
 * validate -> assemble -> report -> audit under the phase spans
 * `config_load`, `validate`, `assemble` (with its `array.optimize`
 * and `tdp` children) and `report` (with its `report.build`,
 * `report.audit`, `report.json` and `report.csv` children), so every
 * front end's trace shows the same phases.  The core never touches the filesystem for
 * *output* (callers decide where rendered reports go) and never
 * writes to global logs; everything it learns about a request comes
 * back in the EvalResult.  What stays in a front end is only its own:
 * the CLI's text report, `-thermal` and exit codes, the batch's files
 * and journal, the server's protocol and result cache.
 *
 * Thread safety: evaluate() may be called concurrently from multiple
 * threads.  All shared state it reaches (array memo cache, disk cache
 * tier, tech interpolation tables, instrumentation registry) is
 * internally synchronized, and the two-tier array cache is exactly
 * what makes a warm evaluation cheap — the server's whole reason to
 * exist.
 */

#ifndef MCPAT_STUDY_EVAL_CORE_HH
#define MCPAT_STUDY_EVAL_CORE_HH

#include <string>

#include "common/diagnostics.hh"
#include "common/report.hh"

namespace mcpat {
namespace study {

/** One configuration-evaluation request. */
struct EvalRequest
{
    /**
     * Path to an XML configuration file.  Exactly one of configPath /
     * configXml must be set; both (or neither) is a request error.
     */
    std::string configPath;

    /** Inline XML configuration text (server requests carry these). */
    std::string configXml;

    /** Treat validation warnings as failures (CLI -strict). */
    bool strict = false;

    /**
     * A gem5 stats.txt supplying the runtime activity instead of the
     * config's own <stat> entries (the CLI's -gem5_stats).  Empty
     * uses the config.
     */
    std::string gem5StatsPath;

    /**
     * Render the report tree as the canonical JSON document
     * (EvalResult::reportJson) — byte-identical to the single-shot
     * CLI's -json output.
     */
    bool wantReportJson = true;

    /** Render the report tree as CSV (EvalResult::reportCsv). */
    bool wantReportCsv = false;

    /**
     * Build a per-request manifest (EvalResult::manifestJson): phase
     * wall clock for this request plus a snapshot of the process-wide
     * cache counters.  Schema "mcpat-eval-manifest-v1".
     */
    bool wantManifest = false;

    /**
     * Wall-clock budget for this evaluation, milliseconds; <= 0 means
     * unbounded.  A blown budget unwinds at the next cancellation
     * checkpoint and comes back as ok == false with timedOut set — the
     * process (and a server's other workers) keep running.
     */
    double timeoutMs = 0.0;
};

/** Everything one evaluation produced. */
struct EvalResult
{
    bool ok = false;
    std::string error;  ///< failure reason when !ok

    /** The request blew its timeoutMs budget (implies !ok). */
    bool timedOut = false;

    /** A process-wide stop (SIGINT/SIGTERM) unwound the evaluation. */
    bool interrupted = false;

    /** Every validation diagnostic the request produced. */
    DiagnosticList diagnostics;

    /** The full report tree (valid when ok). */
    Report report;

    /** Rendered artifacts, empty unless requested (and ok). */
    std::string reportJson;
    std::string reportCsv;
    std::string manifestJson;

    // Chip-level headline figures (valid when ok).
    double area = 0.0;          ///< m^2
    double peakPower = 0.0;     ///< W
    double runtimePower = 0.0;  ///< W

    /** Every core structure fits in one clock (valid when ok). */
    bool meetsTiming = false;

    // Per-request wall-clock breakdown, seconds.
    double loadSeconds = 0.0;      ///< parse + load + validation
    double assembleSeconds = 0.0;  ///< Processor construction (TDP incl.)
    double reportSeconds = 0.0;    ///< report generation + rendering
    double wallSeconds = 0.0;      ///< end-to-end for this request
};

/**
 * Evaluate one request.  Never throws for request-level problems: a
 * malformed or invalid configuration comes back as ok == false with
 * located diagnostics and an error string, which is what lets a bad
 * request fail *its* reply without taking down a batch or the server.
 */
EvalResult evaluate(const EvalRequest &req);

/**
 * The per-request manifest JSON for @p result (what evaluate() stores
 * in manifestJson when asked).  @p source names the config (path, or
 * "<inline>" for XML-carrying requests).
 */
std::string evalManifestJson(const EvalResult &result,
                             const std::string &source, int indent = 0);

} // namespace study
} // namespace mcpat

#endif // MCPAT_STUDY_EVAL_CORE_HH
