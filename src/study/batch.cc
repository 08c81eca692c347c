/**
 * @file
 * Batch evaluation implementation: a thin loop over the shared
 * request-evaluation core (study/eval_core.hh) plus the batch-only
 * concerns — output files, sidecars, the summary CSV, and the
 * aggregated manifest.
 */

#include "study/batch.hh"

#include <algorithm>
#include <chrono>
#include <csignal>
#include <filesystem>
#include <fstream>
#include <map>
#include <ostream>
#include <sstream>

#include "chip/report_writer.hh"
#include "common/cancel.hh"
#include "common/diagnostics.hh"
#include "common/event_log.hh"
#include "common/instrument.hh"
#include "common/journal.hh"
#include "common/json_value.hh"
#include "common/logging.hh"
#include "study/eval_core.hh"

namespace mcpat {
namespace study {

namespace fs = std::filesystem;

namespace {

/** Trim ASCII whitespace from both ends. */
std::string
trim(const std::string &s)
{
    const auto b = s.find_first_not_of(" \t\r\n");
    if (b == std::string::npos)
        return "";
    const auto e = s.find_last_not_of(" \t\r\n");
    return s.substr(b, e - b + 1);
}

/** Seconds between two steady-clock points. */
double
secondsSince(std::chrono::steady_clock::time_point t0)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - t0)
        .count();
}

/** Append @p what to the item's error field ("; "-joined). */
void
recordItemError(BatchItemResult &item, const std::string &what)
{
    if (!item.error.empty())
        item.error += "; ";
    item.error += what;
}

/**
 * Write <stem>.diagnostics.json / .csv next to the item's reports so a
 * failing input in a thousand-config batch leaves a machine-readable
 * record of *why* instead of one interleaved log line.
 *
 * A sidecar that cannot be opened or written must not silently drop
 * that record: the failure is appended to the item's diagnostics as a
 * located warning and recorded in its error field, so the summary CSV
 * and the server's batch clients still see it.
 */
void
writeDiagnosticSidecars(BatchItemResult &item, const BatchOptions &opts,
                        const fs::path &out_base)
{
    if (item.diagnostics.empty())
        return;
    if (opts.writeJson) {
        const std::string path = out_base.string() + ".diagnostics.json";
        std::ofstream jf(path);
        if (jf) {
            jf << "{\n  \"input\": \"" << jsonEscapeString(item.input)
               << "\",\n  \"valid\": " << (item.ok ? "true" : "false")
               << ",\n  \"diagnostics\": ";
            writeDiagnosticsJson(jf, item.diagnostics, 2);
            jf << "\n}\n";
            jf.flush();
        }
        if (jf) {
            item.diagnosticsJsonPath = path;
        } else {
            item.diagnostics.add(Severity::Warning, "batch",
                                 "diagnostics_json",
                                 "cannot write diagnostics sidecar '" +
                                     path + "'");
            recordItemError(item, "cannot write " + path);
            if (elog::enabled(elog::Level::Warn))
                elog::emit(elog::Level::Warn, "study.batch",
                           "sidecar_write_failed",
                           "cannot write diagnostics sidecar",
                           {elog::Field::str("path", path),
                            elog::Field::str("input", item.input)});
        }
    }
    if (opts.writeCsv) {
        const std::string path = out_base.string() + ".diagnostics.csv";
        std::ofstream cf(path);
        if (cf) {
            writeDiagnosticsCsv(cf, item.diagnostics);
            cf.flush();
        }
        if (cf) {
            item.diagnosticsCsvPath = path;
        } else {
            item.diagnostics.add(Severity::Warning, "batch",
                                 "diagnostics_csv",
                                 "cannot write diagnostics sidecar '" +
                                     path + "'");
            recordItemError(item, "cannot write " + path);
            if (elog::enabled(elog::Level::Warn))
                elog::emit(elog::Level::Warn, "study.batch",
                           "sidecar_write_failed",
                           "cannot write diagnostics sidecar",
                           {elog::Field::str("path", path),
                            elog::Field::str("input", item.input)});
        }
    }
}

/**
 * One row per input with headline figures and the per-input timing
 * columns — the batch-level view the per-input report files can't give.
 *
 * Failures are reported, not swallowed: an unopenable or half-written
 * summary logs a warning and lands in BatchResult::summaryError so
 * callers can distinguish "no summary requested" from "summary lost".
 */
void
writeSummaryCsv(BatchResult &result, const BatchOptions &opts,
                std::ostream &log)
{
    const std::string path =
        (fs::path(opts.outputDir) / "batch_summary.csv").string();
    std::ofstream cf(path);
    if (!cf) {
        result.summaryError = "cannot open '" + path + "'";
        log << "batch: warning: " << result.summaryError
            << "; summary not written\n";
        if (elog::enabled(elog::Level::Warn))
            elog::emit(elog::Level::Warn, "study.batch",
                       "summary_open_failed",
                       "cannot open batch summary; summary not "
                       "written",
                       {elog::Field::str("path", path)});
        return;
    }
    cf << "input,name,ok,area_mm2,peak_w,runtime_w,load_ms,"
          "assemble_ms,report_ms,total_ms,error\n";
    for (const auto &item : result.items) {
        cf << csvEscapeField(item.input) << ','
           << csvEscapeField(item.name) << ',' << (item.ok ? 1 : 0) << ',';
        chip::writeCsvNumber(cf, item.area * 1e6);
        cf << ',';
        chip::writeCsvNumber(cf, item.peakPower);
        cf << ',';
        chip::writeCsvNumber(cf, item.runtimePower);
        cf << ',' << 1e3 * item.loadSeconds << ','
           << 1e3 * item.assembleSeconds << ','
           << 1e3 * item.reportSeconds << ','
           << 1e3 * item.wallSeconds << ',' << csvEscapeField(item.error)
           << '\n';
    }
    cf.flush();
    if (!cf) {
        result.summaryError = "error writing '" + path + "'";
        log << "batch: warning: " << result.summaryError
            << "; summary may be truncated\n";
        if (elog::enabled(elog::Level::Warn))
            elog::emit(elog::Level::Warn, "study.batch",
                       "summary_write_failed",
                       "error writing batch summary; summary may be "
                       "truncated",
                       {elog::Field::str("path", path)});
        return;
    }
    result.summaryCsvPath = path;
}

/**
 * Aggregated run manifest for the whole batch: per-input outcome and
 * timing plus the full instrumentation registry ("run" section).
 */
void
writeBatchManifest(BatchResult &result, const BatchOptions &opts,
                   const std::string &listFile, std::ostream &log)
{
    std::ofstream mf(opts.metricsOut);
    if (!mf) {
        log << "batch: warning: cannot write manifest '"
            << opts.metricsOut << "'\n";
        if (elog::enabled(elog::Level::Warn))
            elog::emit(elog::Level::Warn, "study.batch",
                       "manifest_write_failed",
                       "cannot write batch manifest",
                       {elog::Field::str("path", opts.metricsOut)});
        return;
    }
    instr::RunInfo info;
    info.configPath = listFile;
    info.configChecksum = instr::fileChecksumHex(listFile);
    info.wallSeconds = result.wallSeconds;
    info.valid = result.failures == 0;

    mf << "{\n  \"schema\": \"mcpat-batch-manifest-v1\",\n"
       << "  \"items\": [";
    for (std::size_t i = 0; i < result.items.size(); ++i) {
        const BatchItemResult &item = result.items[i];
        mf << (i ? ",\n" : "\n") << "    {\"name\": \""
           << jsonEscapeString(item.name) << "\", \"input\": \""
           << jsonEscapeString(item.input) << "\", \"ok\": "
           << (item.ok ? "true" : "false") << ", \"area_mm2\": ";
        writeJsonNumber(mf, item.area * 1e6);
        mf << ", \"peak_w\": ";
        writeJsonNumber(mf, item.peakPower);
        mf << ", \"load_ms\": " << 1e3 * item.loadSeconds
           << ", \"assemble_ms\": " << 1e3 * item.assembleSeconds
           << ", \"report_ms\": " << 1e3 * item.reportSeconds
           << ", \"wall_ms\": " << 1e3 * item.wallSeconds << "}";
    }
    mf << (result.items.empty() ? "],\n" : "\n  ],\n");
    mf << "  \"run\":\n" << instr::runManifestJson(info, 2) << "\n}\n";
    result.metricsPath = opts.metricsOut;
}

/** Unique output stem for an input path within this batch. */
std::string
uniqueStem(const std::string &input, std::vector<std::string> &used)
{
    std::string stem = fs::path(input).stem().string();
    if (stem.empty())
        stem = "config";
    std::string name = stem;
    int suffix = 2;
    while (std::find(used.begin(), used.end(), name) != used.end())
        name = stem + "_" + std::to_string(suffix++);
    used.push_back(name);
    return name;
}

/** Write @p text to @p path, throwing on open or write failure. */
void
writeTextFile(const std::string &path, const std::string &text)
{
    std::ofstream f(path);
    fatalIf(!f, "cannot write " + path);
    f << text;
    f.flush();
    fatalIf(!f, "error writing " + path);
}

// ---------------------------------------------------------------------
// Progress journal (schema "mcpat-batch-journal-v1")
// ---------------------------------------------------------------------

/** The journal's header record: what produced it, under what options. */
std::string
journalHeaderPayload(const std::string &listFile, const BatchOptions &opts)
{
    std::ostringstream os;
    os << "{\"schema\": \"mcpat-batch-journal-v1\", \"list\": \""
       << jsonEscapeString(listFile) << "\", \"list_checksum\": \""
       << instr::fileChecksumHex(listFile) << "\", \"strict\": "
       << (opts.strict ? "true" : "false") << ", \"json\": "
       << (opts.writeJson ? "true" : "false") << ", \"csv\": "
       << (opts.writeCsv ? "true" : "false") << "}";
    return os.str();
}

/**
 * One completed item as a single-line journal payload.  Numbers use
 * the round-trip rule, so a resumed run's summary figures are
 * bit-identical to the ones recorded.
 */
std::string
journalItemPayload(const BatchItemResult &item)
{
    std::ostringstream os;
    os << "{\"type\": \"item\", \"name\": \""
       << jsonEscapeString(item.name) << "\", \"input\": \""
       << jsonEscapeString(item.input) << "\", \"ok\": "
       << (item.ok ? "true" : "false") << ", \"error\": \""
       << jsonEscapeString(item.error)
       << "\", \"area\": " << jsonRoundTrip(item.area)
       << ", \"peak_w\": " << jsonRoundTrip(item.peakPower)
       << ", \"runtime_w\": " << jsonRoundTrip(item.runtimePower)
       << ", \"load_s\": " << jsonRoundTrip(item.loadSeconds)
       << ", \"assemble_s\": " << jsonRoundTrip(item.assembleSeconds)
       << ", \"report_s\": " << jsonRoundTrip(item.reportSeconds)
       << ", \"wall_s\": " << jsonRoundTrip(item.wallSeconds)
       << ", \"diagnostics\": " << diagnosticsJsonLine(item.diagnostics)
       << "}";
    return os.str();
}

/** Reconstruct an item from a journal payload; false on mismatch. */
bool
parseJournalItem(const std::string &payload, BatchItemResult &item)
{
    common::JsonValue v;
    if (!common::jsonParse(payload, v) || !v.isObject() ||
        v.getString("type") != "item")
        return false;
    item.name = v.getString("name");
    item.input = v.getString("input");
    if (item.name.empty() || item.input.empty())
        return false;
    item.ok = v.getBool("ok");
    item.error = v.getString("error");
    item.area = v.getNumber("area");
    item.peakPower = v.getNumber("peak_w");
    item.runtimePower = v.getNumber("runtime_w");
    item.loadSeconds = v.getNumber("load_s");
    item.assembleSeconds = v.getNumber("assemble_s");
    item.reportSeconds = v.getNumber("report_s");
    item.wallSeconds = v.getNumber("wall_s");
    if (const common::JsonValue *diags = v.find("diagnostics")) {
        if (!diags->isArray())
            return false;
        for (const auto &d : diags->array) {
            item.diagnostics.add(
                d.getString("severity") == "error" ? Severity::Error
                                                   : Severity::Warning,
                d.getString("component"), d.getString("key"),
                d.getString("message"),
                static_cast<int>(d.getNumber("line")));
        }
    }
    return true;
}

/**
 * Journal records completed in an earlier run, keyed by output stem
 * (the stem is a pure function of list order, so it identifies the
 * same work item across runs; the input path is re-checked at replay).
 */
std::map<std::string, BatchItemResult>
loadReplayableItems(const std::string &journalPath,
                    const std::string &listFile, const BatchOptions &opts,
                    std::ostream &log)
{
    std::map<std::string, BatchItemResult> replay;
    const common::JournalContents j = common::readJournal(journalPath);
    if (j.tailCorrupt) {
        log << "batch: warning: journal '" << journalPath
            << "' has a corrupt tail (" << j.droppedLines
            << " line(s) dropped); affected items will be "
               "re-evaluated\n";
        if (elog::enabled(elog::Level::Warn))
            elog::emit(elog::Level::Warn, "study.batch",
                       "journal_tail_corrupt",
                       "journal has a corrupt tail; affected items "
                       "will be re-evaluated",
                       {elog::Field::str("path", journalPath),
                        elog::Field::num(
                            "dropped_lines",
                            static_cast<double>(j.droppedLines))});
    }
    if (j.records.empty())
        return replay;

    common::JsonValue hdr;
    const bool header_ok = common::jsonParse(j.records.front(), hdr) &&
        hdr.getString("schema") == "mcpat-batch-journal-v1" &&
        hdr.getString("list_checksum") ==
            instr::fileChecksumHex(listFile) &&
        hdr.getBool("strict") == opts.strict &&
        hdr.getBool("json") == opts.writeJson &&
        hdr.getBool("csv") == opts.writeCsv;
    if (!header_ok) {
        log << "batch: warning: journal '" << journalPath
            << "' does not match this run (different list or options); "
               "starting fresh\n";
        if (elog::enabled(elog::Level::Warn))
            elog::emit(elog::Level::Warn, "study.batch",
                       "journal_mismatch",
                       "journal does not match this run (different "
                       "list or options); starting fresh",
                       {elog::Field::str("path", journalPath),
                        elog::Field::str("list", listFile)});
        return replay;
    }
    for (std::size_t i = 1; i < j.records.size(); ++i) {
        BatchItemResult item;
        if (parseJournalItem(j.records[i], item))
            replay[item.name] = std::move(item);  // last record wins
    }
    return replay;
}

/**
 * True when every report file the recorded item claims to have written
 * is still on disk — a replayed "ok" must not point at missing output.
 */
bool
replayOutputsPresent(const BatchItemResult &item, const BatchOptions &opts,
                     const fs::path &out_base)
{
    if (!item.ok)
        return true;  // a failed item wrote no reports to lose
    std::error_code ec;
    if (opts.writeJson &&
        !fs::is_regular_file(out_base.string() + ".json", ec))
        return false;
    if (opts.writeCsv &&
        !fs::is_regular_file(out_base.string() + ".csv", ec))
        return false;
    return true;
}

} // namespace

std::vector<std::string>
readBatchList(const std::string &listFile)
{
    std::ifstream in(listFile);
    fatalIf(!in, "cannot read batch list '" + listFile + "'");

    const fs::path base = fs::path(listFile).parent_path();
    std::vector<std::string> configs;
    std::string line;
    while (std::getline(in, line)) {
        const auto hash = line.find('#');
        if (hash != std::string::npos)
            line.erase(hash);
        line = trim(line);
        if (line.empty())
            continue;
        fs::path p(line);
        if (p.is_relative() && !base.empty())
            p = base / p;
        configs.push_back(p.string());
    }
    fatalIf(configs.empty(),
            "batch list '" + listFile + "' names no configurations");
    return configs;
}

BatchResult
runBatch(const std::string &listFile, const BatchOptions &opts,
         std::ostream &log)
{
    const std::vector<std::string> configs = readBatchList(listFile);

    std::error_code ec;
    fs::create_directories(opts.outputDir, ec);
    fatalIf(!fs::is_directory(opts.outputDir),
            "cannot create batch output directory '" + opts.outputDir +
                "'");

    BatchResult result;

    // Progress journal: records from a matching earlier run are
    // replayed; everything else is evaluated and journaled as it
    // completes, so the *next* resume skips it.
    const std::string journal_path = opts.journalPath.empty()
        ? (fs::path(opts.outputDir) / "batch_journal.jsonl").string()
        : opts.journalPath;
    std::map<std::string, BatchItemResult> replay;
    if (opts.resume)
        replay = loadReplayableItems(journal_path, listFile, opts, log);

    common::JournalWriter journal;
    std::string journal_error;
    bool journal_warned = false;
    if (journal.open(journal_path, /*truncate=*/replay.empty(),
                     &journal_error)) {
        result.journalPath = journal_path;
        if (replay.empty() &&
            !journal.append(journalHeaderPayload(listFile, opts))) {
            journal_warned = true;
            log << "batch: warning: cannot write journal header to '"
                << journal_path << "'; resume will not be available\n";
            if (elog::enabled(elog::Level::Warn))
                elog::emit(elog::Level::Warn, "study.batch",
                           "journal_header_failed",
                           "cannot write journal header; resume will "
                           "not be available",
                           {elog::Field::str("path", journal_path)});
            journal.close();
            result.journalPath.clear();
        }
    } else {
        journal_warned = true;
        log << "batch: warning: " << journal_error
            << "; resume will not be available\n";
        if (elog::enabled(elog::Level::Warn))
            elog::emit(elog::Level::Warn, "study.batch",
                       "journal_open_failed",
                       "cannot open journal; resume will not be "
                       "available",
                       {elog::Field::str("path", journal_path),
                        elog::Field::str("error", journal_error)});
    }

    std::vector<std::string> used_stems;
    const auto batch_t0 = std::chrono::steady_clock::now();
    if (elog::enabled(elog::Level::Info))
        elog::emit(elog::Level::Info, "study.batch", "batch_start",
                   "batch evaluation starting",
                   {elog::Field::str("list", listFile),
                    elog::Field::num(
                        "configs",
                        static_cast<double>(configs.size())),
                    elog::Field::num(
                        "replayable",
                        static_cast<double>(replay.size()))});
    instr::ProgressMeter progress("batch", configs.size());
    for (const auto &input : configs) {
        if (cancel::stopRequested()) {
            result.interruptedSignal =
                cancel::stopSignal() ? cancel::stopSignal() : SIGINT;
            log << "batch: interrupted before '" << input
                << "'; flushing completed results\n";
            break;
        }

        BatchItemResult item;
        item.input = input;
        item.name = uniqueStem(input, used_stems);
        const fs::path out_base = fs::path(opts.outputDir) / item.name;
        const auto item_t0 = std::chrono::steady_clock::now();
        MCPAT_SPAN("batch.item", item.name);

        // Replay a journaled result when it names the same input and
        // its report files survived; otherwise fall through and
        // re-evaluate (the new record supersedes the old one).
        const auto rep = replay.find(item.name);
        if (rep != replay.end() && rep->second.input == input &&
            replayOutputsPresent(rep->second, opts, out_base)) {
            item = rep->second;
            if (item.ok) {
                if (opts.writeJson)
                    item.jsonPath = out_base.string() + ".json";
                if (opts.writeCsv)
                    item.csvPath = out_base.string() + ".csv";
            } else {
                ++result.failures;
            }
            writeDiagnosticSidecars(item, opts, out_base);
            ++result.resumed;
            log << "batch: " << input << ": resumed ("
                << (item.ok ? "ok" : "failed") << ")\n";
            result.items.push_back(std::move(item));
            progress.tick();
            if (!result.items.back().ok && opts.stopOnError)
                break;
            continue;
        }

        EvalRequest req;
        req.configPath = input;
        req.strict = opts.strict;
        req.wantReportJson = opts.writeJson;
        req.wantReportCsv = opts.writeCsv;
        req.timeoutMs = opts.evalTimeoutMs;
        EvalResult ev = evaluate(req);

        item.diagnostics = std::move(ev.diagnostics);
        item.loadSeconds = ev.loadSeconds;
        item.assembleSeconds = ev.assembleSeconds;
        item.reportSeconds = ev.reportSeconds;
        if (ev.ok) {
            item.area = ev.area;
            item.peakPower = ev.peakPower;
            item.runtimePower = ev.runtimePower;
            for (const auto &d : item.diagnostics)
                log << input << ": " << d.format() << "\n";
            try {
                if (opts.writeJson) {
                    const std::string path = out_base.string() + ".json";
                    writeTextFile(path, ev.reportJson);
                    item.jsonPath = path;
                }
                if (opts.writeCsv) {
                    const std::string path = out_base.string() + ".csv";
                    writeTextFile(path, ev.reportCsv);
                    item.csvPath = path;
                }
                item.ok = true;
                log << "batch: " << input << ": ok, area "
                    << item.area * 1e6 << " mm^2, peak "
                    << item.peakPower << " W\n";
            } catch (const std::exception &e) {
                item.ok = false;
                item.error = e.what();
                ++result.failures;
                log << "batch: " << input << ": FAILED: " << e.what()
                    << "\n";
            }
        } else {
            item.ok = false;
            item.error = ev.error;
            ++result.failures;
            log << "batch: " << input << ": FAILED: " << ev.error
                << "\n";
        }
        item.wallSeconds = secondsSince(item_t0);
        if (instr::enabled())
            instr::Registry::instance()
                .histogram("batch.item_ms")
                .record(item.wallSeconds * 1e3);
        writeDiagnosticSidecars(item, opts, out_base);

        if (ev.interrupted) {
            // The in-flight item was unwound by a stop request: record
            // it in this run's summary but NOT in the journal, so a
            // resume re-evaluates it from scratch.
            result.interruptedSignal =
                cancel::stopSignal() ? cancel::stopSignal() : SIGINT;
            result.items.push_back(std::move(item));
            progress.tick();
            break;
        }

        // Timeouts *are* journaled: the deadline is deterministic
        // policy, so a resume under the same options keeps the
        // recorded failure instead of burning the budget again.
        if (journal.isOpen() &&
            !journal.append(journalItemPayload(item)) &&
            !journal_warned) {
            journal_warned = true;
            log << "batch: warning: cannot append to journal '"
                << journal_path
                << "'; resume may re-evaluate recent items\n";
            if (elog::enabled(elog::Level::Warn))
                elog::emit(elog::Level::Warn, "study.batch",
                           "journal_append_failed",
                           "cannot append to journal; resume may "
                           "re-evaluate recent items",
                           {elog::Field::str("path", journal_path),
                            elog::Field::str("input", item.input)});
        }

        result.items.push_back(std::move(item));
        progress.tick();
        if (!result.items.back().ok && opts.stopOnError)
            break;
    }
    journal.close();
    result.wallSeconds = secondsSince(batch_t0);

    result.cacheStats = array::ArrayResultCache::instance().stats();
    log << "batch summary: " << result.items.size() << " configs, "
        << (result.items.size() - result.failures) << " ok, "
        << result.failures << " failed";
    if (result.resumed)
        log << " (" << result.resumed << " resumed)";
    if (result.interruptedSignal)
        log << ", interrupted by signal " << result.interruptedSignal;
    log << " in " << 1e3 * result.wallSeconds << " ms\n";
    if (elog::enabled(elog::Level::Info))
        elog::emit(elog::Level::Info, "study.batch", "batch_done",
                   "batch evaluation finished",
                   {elog::Field::num(
                        "configs",
                        static_cast<double>(result.items.size())),
                    elog::Field::num(
                        "failures",
                        static_cast<double>(result.failures)),
                    elog::Field::num(
                        "resumed",
                        static_cast<double>(result.resumed)),
                    elog::Field::num("wall_ms",
                                     1e3 * result.wallSeconds)});
    array::reportCacheStats(log);

    if (opts.writeSummaryCsv)
        writeSummaryCsv(result, opts, log);
    if (!opts.metricsOut.empty())
        writeBatchManifest(result, opts, listFile, log);
    return result;
}

} // namespace study
} // namespace mcpat
