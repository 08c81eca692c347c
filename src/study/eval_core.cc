/**
 * @file
 * The one evaluation path shared by the CLI, batch runner, and server.
 */

#include "study/eval_core.hh"

#include <chrono>
#include <sstream>

#include "array/array_cache.hh"
#include "chip/component_memo.hh"
#include "chip/invariant_audit.hh"
#include "chip/processor.hh"
#include "chip/report_writer.hh"
#include "common/cancel.hh"
#include "common/instrument.hh"
#include "common/serialize.hh"
#include "config/gem5_stats.hh"
#include "config/xml_loader.hh"
#include "config/xml_parser.hh"

namespace mcpat {
namespace study {

namespace {

/** Seconds between two steady-clock points. */
double
secondsSince(std::chrono::steady_clock::time_point t0)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - t0)
        .count();
}

} // namespace

std::string
evalManifestJson(const EvalResult &result, const std::string &source,
                 int indent)
{
    const std::string pad(indent, ' ');
    const array::ArrayCacheStats cache =
        array::ArrayResultCache::instance().stats();
    const chip::ComponentMemoStats memo =
        chip::ComponentMemo::instance().stats();
    std::ostringstream os;
    os << pad << "{\n"
       << pad << "  \"schema\": \"mcpat-eval-manifest-v1\",\n"
       << pad << "  \"config\": \"" << jsonEscapeString(source)
       << "\",\n"
       << pad << "  \"valid\": " << (result.ok ? "true" : "false")
       << ",\n"
       << pad << "  \"phases\": {\"load_ms\": "
       << 1e3 * result.loadSeconds
       << ", \"assemble_ms\": " << 1e3 * result.assembleSeconds
       << ", \"report_ms\": " << 1e3 * result.reportSeconds
       << ", \"wall_ms\": " << 1e3 * result.wallSeconds << "},\n"
       // Process-global counters: across a server's lifetime these are
       // cumulative, so per-request deltas belong to the reader.
       << pad << "  \"cache\": {\"memory_hits\": " << cache.hits
       << ", \"memory_misses\": " << cache.misses
       << ", \"entries\": " << cache.entries
       << ", \"disk_hits\": " << cache.diskHits
       << ", \"disk_misses\": " << cache.diskMisses << "},\n"
       << pad << "  \"component_memo\": {\"hits\": " << memo.hits
       << ", \"misses\": " << memo.misses
       << ", \"entries\": " << memo.entries
       << ", \"evictions\": " << memo.evictions << "},\n"
       << pad << "  \"diagnostics\": "
       << result.diagnostics.size() << "\n"
       << pad << "}";
    return os.str();
}

EvalResult
evaluate(const EvalRequest &req)
{
    EvalResult result;
    const auto t0 = std::chrono::steady_clock::now();
    const std::string source =
        !req.configPath.empty() ? req.configPath : "<inline>";
    MCPAT_SPAN("eval.request", source);

    // Scope this request under its own token: the deadline bounds only
    // this evaluation, while the parent link keeps an enclosing scope's
    // cancellation (e.g. a sweep being interrupted) visible downstream.
    cancel::CancelToken token;
    token.setDeadlineIn(req.timeoutMs);
    token.setParent(cancel::current());
    cancel::ScopedCurrent scope(&token);

    try {
        cancel::checkpoint();
        if (req.configPath.empty() == req.configXml.empty()) {
            throw ConfigError(req.configPath.empty()
                ? "request carries neither a config path nor inline XML"
                : "request carries both a config path and inline XML");
        }

        config::XmlNode root;
        config::LoadResult loaded;
        {
            MCPAT_SPAN("config_load");
            root = req.configPath.empty()
                ? config::parseXmlString(req.configXml)
                : config::parseXmlFile(req.configPath);
            loaded = config::loadSystemParams(root);
        }
        {
            MCPAT_SPAN("validate");
            result.diagnostics = loaded.diagnostics;
            result.diagnostics.merge(loaded.system.check());
            result.diagnostics.throwIfErrors("configuration '" + source +
                                             "'");
            if (req.strict && result.diagnostics.hasWarnings()) {
                throw ConfigError(
                    "strict mode: " +
                    std::to_string(result.diagnostics.size()) +
                    " validation warning(s) for '" + source + "'");
            }
        }
        result.loadSeconds = secondsSince(t0);
        cancel::checkpoint();

        const auto assemble_t0 = std::chrono::steady_clock::now();
        chip::Processor proc(loaded.system);
        const stats::ChipStats rt = req.gem5StatsPath.empty()
            ? config::loadChipStats(root, loaded.system)
            : config::gem5ToChipStats(
                  config::parseGem5StatsFile(req.gem5StatsPath),
                  loaded.system);
        result.meetsTiming = proc.meetsTiming();
        result.assembleSeconds = secondsSince(assemble_t0);
        cancel::checkpoint();

        const auto report_t0 = std::chrono::steady_clock::now();
        MCPAT_SPAN("report");
        result.report = proc.makeReport(rt);
        result.area = result.report.area;
        result.peakPower = result.report.peakPower();
        result.runtimePower = result.report.runtimePower();

        // Post-assembly physical-invariant audit: a model bug that
        // yields negative leakage or a child outweighing its parent
        // must surface as a located diagnostic, not ship silently.
        DiagnosticList audit = chip::auditReport(result.report);
        const std::size_t violations = audit.size();
        result.diagnostics.merge(std::move(audit));
        if (req.strict && violations > 0) {
            throw ConfigError(
                "strict mode: " + std::to_string(violations) +
                " physical-invariant violation(s) for '" + source +
                "'");
        }

        if (req.wantReportJson) {
            std::ostringstream js;
            chip::writeReportJson(js, result.report);
            result.reportJson = js.str();
        }
        if (req.wantReportCsv) {
            std::ostringstream cs;
            chip::writeReportCsv(cs, result.report);
            result.reportCsv = cs.str();
        }
        result.reportSeconds = secondsSince(report_t0);
        result.ok = true;
    } catch (const cancel::Cancelled &e) {
        result.ok = false;
        result.error = e.what();
        result.timedOut = e.kind() == cancel::Kind::Timeout;
        result.interrupted = e.kind() == cancel::Kind::Interrupt;
    } catch (const ValidationError &e) {
        // Keep the per-key context.  A throw from the request's own
        // merged list (cross-field errors) is already present; one from
        // the runtime statistics follows the load's warnings.
        if (!result.diagnostics.hasErrors())
            result.diagnostics.merge(e.diagnostics());
        result.ok = false;
        result.error = e.what();
    } catch (const std::exception &e) {
        result.ok = false;
        result.error = e.what();
    }
    result.wallSeconds = secondsSince(t0);
    if (req.wantManifest)
        result.manifestJson = evalManifestJson(result, source);
    return result;
}

} // namespace study
} // namespace mcpat
