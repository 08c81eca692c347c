/**
 * @file
 * mcpat command-line front end: XML configuration in, hierarchical
 * power/area/timing report out — mirroring the original tool's usage:
 *
 *   mcpat -infile <config.xml> [-print_level N]
 */

#include <chrono>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "array/array_cache.hh"
#include "chip/component_memo.hh"
#include "chip/report_printer.hh"
#include "chip/report_writer.hh"
#include "chip/thermal.hh"
#include "common/cancel.hh"
#include "common/event_log.hh"
#include "common/flight_recorder.hh"
#include "common/instrument.hh"
#include "common/parallel.hh"
#include "config/xml_loader.hh"
#include "study/batch.hh"
#include "study/eval_core.hh"
#include "study/server.hh"
#include "study/sweep_search.hh"

namespace {

void
usage(const char *prog)
{
    std::cerr << "Usage: " << prog
              << " -infile <config.xml> [-print_level N]"
              << " [-json <out.json>] [-csv <out.csv>]\n"
              << "       " << prog
              << " -batch <list.txt> [-batch_out <dir>]\n"
              << "       " << prog
              << " -serve <port-or-socket-path> [-serve_workers N]\n"
              << "       " << prog
              << " -sweep_search <out-dir> [-sweep_exhaustive] "
                 "[-resume]\n"
              << "  -infile      McPAT XML configuration file\n"
              << "  -batch       evaluate every config listed in "
                 "<list.txt>\n"
              << "               (one path per line, # comments) in one "
                 "process\n"
              << "  -batch_out   directory for per-config batch reports "
                 "(default\n"
              << "               mcpat_batch)\n"
              << "  -resume      batch mode: replay the progress journal "
                 "of an\n"
              << "               interrupted run "
                 "(<batch_out>/batch_journal.jsonl),\n"
              << "               skipping completed items; outputs match "
                 "an\n"
              << "               uninterrupted run\n"
              << "  -eval_timeout_ms N  wall-clock budget per "
                 "evaluation; a\n"
              << "               blown budget fails that item/request "
                 "with a\n"
              << "               structured timeout (single-shot exits "
                 "124;\n"
              << "               batch continues; server replies 504)\n"
              << "  -serve       run as a long-running evaluation "
                 "server on a\n"
              << "               loopback TCP port (all digits) or "
                 "Unix socket\n"
              << "               path; newline-delimited JSON "
                 "requests in,\n"
              << "               one-line JSON responses out (keeps "
                 "both cache\n"
              << "               tiers warm across requests)\n"
              << "  -serve_workers  concurrent request workers "
                 "(default: the\n"
              << "               -threads / MCPAT_THREADS resolution)\n"
              << "  -serve_queue admission control: connections "
                 "allowed to\n"
              << "               wait for a worker before new ones "
                 "get a 503\n"
              << "               rejection (default 32)\n"
              << "  -sweep_search  run the case-study Pareto-frontier "
                 "search\n"
              << "               over the design grid, writing "
                 "frontier.json,\n"
              << "               points.csv, and a resumable journal "
                 "to\n"
              << "               <out-dir> (-resume replays "
                 "sweep_journal.jsonl)\n"
              << "  -sweep_exhaustive  evaluate every grid point "
                 "instead of\n"
              << "               searching (the reference the search "
                 "is graded\n"
              << "               against)\n"
              << "  -sweep_work  instructions per run for the delay "
                 "figure\n"
              << "               (default 1e12)\n"
              << "  -sweep_cores total cores per design point "
                 "(default 16)\n"
              << "  -sweep_clusters    comma list of cores-per-cluster "
                 "values\n"
              << "  -sweep_l2_mib      comma list of per-core L2 "
                 "budgets, MiB\n"
              << "  -sweep_clocks_ghz  comma list of core clocks, "
                 "GHz\n"
              << "  -strict      treat validation warnings as errors "
                 "(exit\n"
              << "               nonzero; batch items with warnings "
                 "count as\n"
              << "               failed)\n"
              << "  -permissive  report validation warnings and continue "
                 "(the\n"
              << "               default; malformed values are still "
                 "fatal)\n"
              << "  -print_level hierarchy depth to print (default 3)\n"
              << "  -json        also write the report tree as JSON\n"
              << "  -csv         also write the report tree as CSV\n"
              << "  -gem5_stats  gem5 stats.txt supplying runtime "
                 "activity\n"
              << "  -thermal R   solve the leakage/temperature fixed "
                 "point\n"
              << "               for junction-to-ambient resistance R "
                 "(K/W)\n"
              << "  -threads N   worker threads for model evaluation "
                 "(default:\n"
              << "               MCPAT_THREADS env var, else hardware "
                 "concurrency)\n"
              << "  -cache_dir   persist solved array models under this "
                 "directory\n"
              << "               (also: MCPAT_CACHE_DIR env var)\n"
              << "  -cache_stats print array-optimizer cache counters "
                 "for both\n"
              << "               the in-memory and on-disk tiers\n"
              << "  -trace_out   write a Chrome trace_event JSON file "
                 "of the\n"
              << "               run's phase spans (chrome://tracing, "
                 "Perfetto)\n"
              << "  -metrics_out write the run manifest JSON (per-phase "
                 "wall\n"
              << "               clock, cache/prune/pool metrics, "
                 "config\n"
              << "               checksum)\n"
              << "  -progress    one-line stderr progress updates "
                 "during\n"
              << "               batch/sweep loops (off by default)\n"
              << "  -log_out     write a structured event log "
                 "(JSON-lines,\n"
              << "               leveled records with run/request "
                 "correlation\n"
              << "               IDs) alongside the human-readable "
                 "stderr text\n"
              << "  -log_level   minimum event-log level: debug, "
                 "info, warn,\n"
              << "               or error (default info)\n"
              << "  -record_out  flight recorder: sample the metrics "
                 "registry\n"
              << "               periodically into this CSV (cache "
                 "hit rates,\n"
              << "               queue depth, in-flight count, RSS); "
                 "the same\n"
              << "               series land in -trace_out as counter "
                 "tracks\n"
              << "  -record_interval_ms  flight-recorder sampling "
                 "period\n"
              << "               (default 500, minimum 10)\n";
}

/**
 * Wall clock and trace/manifest export shared by both CLI modes; the
 * files are written after everything else so every span has closed.
 */
struct InstrumentationOutputs
{
    std::string traceOut;
    std::string metricsOut;
    std::chrono::steady_clock::time_point start =
        std::chrono::steady_clock::now();

    bool requested() const
    {
        return !traceOut.empty() || !metricsOut.empty();
    }

    double
    wallSeconds() const
    {
        return std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - start)
            .count();
    }

    mcpat::instr::RunInfo
    runInfo(const std::string &config, bool valid) const
    {
        mcpat::instr::RunInfo info;
        info.configPath = config;
        info.configChecksum = mcpat::instr::fileChecksumHex(config);
        info.wallSeconds = wallSeconds();
        info.valid = valid;
        return info;
    }

    /** Write -trace_out and (single-run mode) -metrics_out files. */
    void
    write(const std::string &config, bool valid,
          bool write_metrics) const
    {
        // Stop the flight recorder before serializing the trace so its
        // final sample (and counter events) land in -trace_out.
        mcpat::instr::FlightRecorder::instance().stop();
        writeArtifact(traceOut, "-trace_out", "trace_write_failed",
                      [](std::ostream &os) {
                          mcpat::instr::writeChromeTrace(os);
                      });
        if (write_metrics)
            writeArtifact(metricsOut, "-metrics_out",
                          "metrics_write_failed", [&](std::ostream &os) {
                              mcpat::instr::writeRunManifest(
                                  os, runInfo(config, valid));
                              os << "\n";
                          });
    }

    /** Write @p path (if set) with @p body; warn when it won't open. */
    template <typename Body>
    static void
    writeArtifact(const std::string &path, const char *flag,
                  const char *event, Body body)
    {
        if (path.empty())
            return;
        std::ofstream f(path);
        if (f) {
            body(f);
            std::cerr << "wrote " << path << "\n";
            return;
        }
        std::cerr << "cannot write " << path << "\n";
        if (mcpat::elog::enabled(mcpat::elog::Level::Warn))
            mcpat::elog::emit(mcpat::elog::Level::Warn, "cli", event,
                              std::string("cannot open ") + flag +
                                  " file for writing",
                              {mcpat::elog::Field::str("path", path)});
    }
};

/// Parse a numeric flag value, exiting with a clear error (rather than
/// an uncaught std::invalid_argument) on garbage like `-threads abc`.
double
numericArg(const char *flag, const char *value)
{
    try {
        std::size_t consumed = 0;
        const double v = std::stod(value, &consumed);
        if (consumed != std::strlen(value))
            throw std::invalid_argument(value);
        return v;
    } catch (const std::exception &) {
        std::cerr << flag << " expects a number, got '" << value << "'\n";
        std::exit(1);
    }
}

/// Parse a comma-separated numeric list ("1,1.5,2"), with the same
/// fail-fast behavior as numericArg.
std::vector<double>
numericListArg(const char *flag, const char *value)
{
    std::vector<double> out;
    std::istringstream is(value);
    std::string item;
    while (std::getline(is, item, ','))
        out.push_back(numericArg(flag, item.c_str()));
    if (out.empty()) {
        std::cerr << flag << " expects a comma-separated list, got '"
                  << value << "'\n";
        std::exit(1);
    }
    return out;
}

/**
 * The single-shot outputs of a successful evaluation: the text report
 * on stdout, -json (with the run manifest embedded when instrumented),
 * -csv, the -thermal fixed point and the core timing verdict.
 */
void
writeSingleShot(const mcpat::study::EvalResult &result,
                const std::string &infile, int print_level,
                const std::string &json_out, const std::string &csv_out,
                double thermal_rth,
                const InstrumentationOutputs &instrumentation)
{
    std::cout << "McPAT (reproduction) results\n"
              << "-----------------------------------------------\n";
    mcpat::chip::printReport(std::cout, result.report, print_level);

    if (!json_out.empty()) {
        std::ofstream jf(json_out);
        if (!jf)
            throw mcpat::ConfigError("cannot write " + json_out);
        // Embed the manifest so the report is self-describing; without
        // instrumentation flags the document stays byte-identical to
        // previous releases.
        const std::string manifest = mcpat::instr::enabled()
            ? mcpat::instr::runManifestJson(
                  instrumentation.runInfo(infile, true), 2)
            : std::string();
        mcpat::chip::writeReportJson(jf, result.report, &manifest);
        std::cerr << "wrote " << json_out << "\n";
    }
    if (!csv_out.empty()) {
        std::ofstream cf(csv_out);
        if (!cf)
            throw mcpat::ConfigError("cannot write " + csv_out);
        cf << result.reportCsv;
        std::cerr << "wrote " << csv_out << "\n";
    }
    if (thermal_rth > 0.0) {
        // Re-read the params here, and only here, so evaluation
        // results never carry a SystemParams.
        mcpat::chip::ThermalParams env;
        env.junctionToAmbient = thermal_rth;
        const auto th = mcpat::chip::solveThermal(
            mcpat::config::loadSystemParamsFromFile(infile).system, env);
        std::cout << "-----------------------------------------------\n"
                  << "Thermal fixed point (R = " << thermal_rth
                  << " K/W): " << (th.converged ? "" : "RUNAWAY at ")
                  << th.temperature << " K, " << th.power << " W ("
                  << th.leakage << " W leakage)\n";
    }
    std::cout << "-----------------------------------------------\n"
              << "Core timing check: "
              << (result.meetsTiming ? "PASS"
                                     : "FAIL (structure slower than one "
                                       "clock; pipeline it)")
              << "\n";
}

} // namespace

int
main(int argc, char **argv)
{
    std::string infile;
    std::string batch_list;
    std::string serve_endpoint;
    std::string sweep_dir;
    bool sweep_exhaustive = false;
    double sweep_work = 1.0e12;
    int sweep_cores = 0;
    std::vector<double> sweep_clusters;
    std::vector<double> sweep_l2_mib;
    std::vector<double> sweep_clocks_ghz;
    int serve_workers = 0;
    int serve_queue = 32;
    std::string batch_out = "mcpat_batch";
    std::string json_out;
    std::string csv_out;
    std::string gem5_stats;
    std::string cache_dir;
    double thermal_rth = 0.0;
    int print_level = 3;
    bool cache_stats = false;
    bool strict = false;
    bool resume = false;
    double eval_timeout_ms = 0.0;
    std::string log_out;
    mcpat::elog::Level log_level = mcpat::elog::Level::Info;
    std::string record_out;
    int record_interval_ms = 500;
    InstrumentationOutputs instrumentation;

    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "-infile") == 0 && i + 1 < argc) {
            infile = argv[++i];
        } else if (std::strcmp(argv[i], "-batch") == 0 && i + 1 < argc) {
            batch_list = argv[++i];
        } else if (std::strcmp(argv[i], "-batch_out") == 0 &&
                   i + 1 < argc) {
            batch_out = argv[++i];
        } else if (std::strcmp(argv[i], "-serve") == 0 && i + 1 < argc) {
            serve_endpoint = argv[++i];
        } else if (std::strcmp(argv[i], "-sweep_search") == 0 &&
                   i + 1 < argc) {
            sweep_dir = argv[++i];
        } else if (std::strcmp(argv[i], "-sweep_exhaustive") == 0) {
            sweep_exhaustive = true;
        } else if (std::strcmp(argv[i], "-sweep_work") == 0 &&
                   i + 1 < argc) {
            sweep_work = numericArg("-sweep_work", argv[++i]);
        } else if (std::strcmp(argv[i], "-sweep_cores") == 0 &&
                   i + 1 < argc) {
            sweep_cores = static_cast<int>(
                numericArg("-sweep_cores", argv[++i]));
        } else if (std::strcmp(argv[i], "-sweep_clusters") == 0 &&
                   i + 1 < argc) {
            sweep_clusters =
                numericListArg("-sweep_clusters", argv[++i]);
        } else if (std::strcmp(argv[i], "-sweep_l2_mib") == 0 &&
                   i + 1 < argc) {
            sweep_l2_mib = numericListArg("-sweep_l2_mib", argv[++i]);
        } else if (std::strcmp(argv[i], "-sweep_clocks_ghz") == 0 &&
                   i + 1 < argc) {
            sweep_clocks_ghz =
                numericListArg("-sweep_clocks_ghz", argv[++i]);
        } else if (std::strcmp(argv[i], "-serve_workers") == 0 &&
                   i + 1 < argc) {
            serve_workers = static_cast<int>(
                numericArg("-serve_workers", argv[++i]));
        } else if (std::strcmp(argv[i], "-serve_queue") == 0 &&
                   i + 1 < argc) {
            serve_queue = static_cast<int>(
                numericArg("-serve_queue", argv[++i]));
        } else if (std::strcmp(argv[i], "-cache_dir") == 0 &&
                   i + 1 < argc) {
            cache_dir = argv[++i];
        } else if (std::strcmp(argv[i], "-print_level") == 0 &&
                   i + 1 < argc) {
            print_level = static_cast<int>(
                numericArg("-print_level", argv[++i]));
        } else if (std::strcmp(argv[i], "-json") == 0 && i + 1 < argc) {
            json_out = argv[++i];
        } else if (std::strcmp(argv[i], "-csv") == 0 && i + 1 < argc) {
            csv_out = argv[++i];
        } else if (std::strcmp(argv[i], "-gem5_stats") == 0 &&
                   i + 1 < argc) {
            gem5_stats = argv[++i];
        } else if (std::strcmp(argv[i], "-thermal") == 0 &&
                   i + 1 < argc) {
            thermal_rth = numericArg("-thermal", argv[++i]);
        } else if (std::strcmp(argv[i], "-threads") == 0 &&
                   i + 1 < argc) {
            mcpat::parallel::setThreadCount(static_cast<int>(
                numericArg("-threads", argv[++i])));
        } else if (std::strcmp(argv[i], "-resume") == 0) {
            resume = true;
        } else if (std::strcmp(argv[i], "-eval_timeout_ms") == 0 &&
                   i + 1 < argc) {
            eval_timeout_ms = numericArg("-eval_timeout_ms", argv[++i]);
        } else if (std::strcmp(argv[i], "-strict") == 0) {
            strict = true;
        } else if (std::strcmp(argv[i], "-permissive") == 0) {
            strict = false;
        } else if (std::strcmp(argv[i], "-cache_stats") == 0) {
            cache_stats = true;
        } else if (std::strcmp(argv[i], "-trace_out") == 0 &&
                   i + 1 < argc) {
            instrumentation.traceOut = argv[++i];
        } else if (std::strcmp(argv[i], "-metrics_out") == 0 &&
                   i + 1 < argc) {
            instrumentation.metricsOut = argv[++i];
        } else if (std::strcmp(argv[i], "-log_out") == 0 &&
                   i + 1 < argc) {
            log_out = argv[++i];
        } else if (std::strcmp(argv[i], "-log_level") == 0 &&
                   i + 1 < argc) {
            if (!mcpat::elog::parseLevel(argv[++i], log_level)) {
                std::cerr << "-log_level expects debug, info, warn, or "
                             "error, got '"
                          << argv[i] << "'\n";
                return 1;
            }
        } else if (std::strcmp(argv[i], "-record_out") == 0 &&
                   i + 1 < argc) {
            record_out = argv[++i];
        } else if (std::strcmp(argv[i], "-record_interval_ms") == 0 &&
                   i + 1 < argc) {
            record_interval_ms = static_cast<int>(
                numericArg("-record_interval_ms", argv[++i]));
        } else if (std::strcmp(argv[i], "-progress") == 0) {
            mcpat::instr::setProgressEnabled(true);
        } else if (std::strcmp(argv[i], "-h") == 0 ||
                   std::strcmp(argv[i], "--help") == 0) {
            usage(argv[0]);
            return 0;
        } else {
            std::cerr << "unknown argument: " << argv[i] << "\n";
            usage(argv[0]);
            return 1;
        }
    }
    // Exactly one mode: -infile, -batch, -serve, or -sweep_search.
    const int modes = (infile.empty() ? 0 : 1) +
        (batch_list.empty() ? 0 : 1) + (serve_endpoint.empty() ? 0 : 1) +
        (sweep_dir.empty() ? 0 : 1);
    if (modes != 1) {
        usage(argv[0]);
        return 1;
    }
    if (!cache_dir.empty())
        mcpat::array::ArrayResultCache::instance().setCacheDir(cache_dir);
    // The event log is independent of the metrics master switch so
    // that -log_out alone leaves every report/manifest byte-identical.
    if (!log_out.empty()) {
        if (!mcpat::elog::open(log_out)) {
            std::cerr << "cannot write " << log_out << "\n";
            return 1;
        }
        mcpat::elog::setLevel(log_level);
    }
    if (instrumentation.requested() || !record_out.empty())
        mcpat::instr::setEnabled(true);
    if (!record_out.empty() &&
        !mcpat::instr::FlightRecorder::instance().start(
            record_out, record_interval_ms)) {
        std::cerr << "cannot write " << record_out << "\n";
        return 1;
    }

    if (!serve_endpoint.empty()) {
        mcpat::study::ServerOptions opts;
        opts.endpoint = serve_endpoint;
        opts.workers = serve_workers;
        if (serve_queue > 0)
            opts.maxQueue = static_cast<std::size_t>(serve_queue);
        opts.strictDefault = strict;
        opts.evalTimeoutMs = eval_timeout_ms;
        const int rc = mcpat::study::runServer(opts, std::cerr);
        if (cache_stats)
            mcpat::array::reportCacheStats(std::cerr);
        // Serve mode has no config file; the manifest records the
        // endpoint and whatever the registry accumulated while serving.
        instrumentation.write(serve_endpoint, rc == 0,
                              /*write_metrics=*/true);
        return rc;
    }

    if (!sweep_dir.empty()) {
        try {
            mcpat::cancel::installStopHandlers();
            std::error_code ec;
            std::filesystem::create_directories(sweep_dir, ec);

            mcpat::study::SweepSpace space =
                mcpat::study::SweepSpace::reference();
            if (sweep_cores > 0)
                space.totalCores = sweep_cores;
            if (!sweep_clusters.empty()) {
                space.clusterSizes.clear();
                for (double c : sweep_clusters)
                    space.clusterSizes.push_back(static_cast<int>(c));
            }
            if (!sweep_l2_mib.empty()) {
                space.l2BytesPerCore.clear();
                for (double m : sweep_l2_mib)
                    space.l2BytesPerCore.push_back(m * 1024 * 1024);
            }
            if (!sweep_clocks_ghz.empty()) {
                space.clockRates.clear();
                for (double g : sweep_clocks_ghz)
                    space.clockRates.push_back(g * 1.0e9);
            }

            mcpat::study::SweepSearchOptions opts;
            opts.work = sweep_work;
            opts.exhaustive = sweep_exhaustive;
            opts.journal.path = sweep_dir + "/sweep_journal.jsonl";
            opts.journal.resume = resume;
            const mcpat::study::SweepSearchResult result =
                mcpat::study::runSweepSearch(space, opts);

            mcpat::study::printSweepSearchResult(std::cout, space,
                                                 result);
            const auto memo =
                mcpat::chip::ComponentMemo::instance().stats();
            std::cout << "Component memo: " << memo.hits << " hits, "
                      << memo.misses << " misses, " << memo.entries
                      << " entries\n";

            const std::string json_path = sweep_dir + "/frontier.json";
            std::ofstream jf(json_path);
            if (!jf)
                throw mcpat::ConfigError("cannot write " + json_path);
            mcpat::study::writeSweepSearchJson(jf, space, result,
                                               sweep_work);
            std::cerr << "wrote " << json_path << "\n";

            const std::string csv_path = sweep_dir + "/points.csv";
            std::ofstream cf(csv_path);
            if (!cf)
                throw mcpat::ConfigError("cannot write " + csv_path);
            mcpat::study::writeSweepSearchCsv(cf, space, result);
            std::cerr << "wrote " << csv_path << "\n";

            if (cache_stats)
                mcpat::array::reportCacheStats(std::cerr);
            instrumentation.write(sweep_dir, /*valid=*/true,
                                  /*write_metrics=*/false);
            return 0;
        } catch (const mcpat::cancel::Cancelled &e) {
            // The sweep committed every finished point to the journal
            // before the cancel reached here; rerunning with -resume
            // replays them and continues the search.
            std::cerr << "mcpat: " << e.what()
                      << " (resume with -resume)\n";
            return e.kind() == mcpat::cancel::Kind::Timeout ? 124 : 130;
        } catch (const std::exception &e) {
            std::cerr << e.what() << "\n";
            return 1;
        }
    }

    if (!batch_list.empty()) {
        try {
            // Orderly interruption: SIGINT/SIGTERM set the cooperative
            // stop flag (async-signal-safe), the loop flushes completed
            // results and finalizes the journal, and the exit status is
            // the conventional 128+signal so wrappers see the cause.
            mcpat::cancel::installStopHandlers();
            mcpat::study::BatchOptions opts;
            opts.outputDir = batch_out;
            opts.strict = strict;
            opts.resume = resume;
            opts.evalTimeoutMs = eval_timeout_ms;
            // Batch writes its own aggregated manifest (per-input
            // timing rows plus the registry), so hand the path down.
            opts.metricsOut = instrumentation.metricsOut;
            const mcpat::study::BatchResult res =
                mcpat::study::runBatch(batch_list, opts, std::cout);
            if (cache_stats)
                mcpat::array::reportCacheStats(std::cerr);
            if (!res.metricsPath.empty())
                std::cerr << "wrote " << res.metricsPath << "\n";
            instrumentation.write(batch_list, res.ok(),
                                  /*write_metrics=*/false);
            if (res.interruptedSignal)
                return 128 + res.interruptedSignal;
            return res.failures == 0 && !res.items.empty() ? 0 : 1;
        } catch (const std::exception &e) {
            std::cerr << e.what() << "\n";
            return 1;
        }
    }

    // Single-shot deadline: checkpoints throughout the model layers
    // unwind to a timed-out result, which exits 124 (the coreutils
    // timeout convention) instead of leaving a zombie solve.  The
    // scope bounds the whole run, -thermal included.
    mcpat::cancel::CancelToken deadline;
    deadline.setDeadlineIn(eval_timeout_ms);
    mcpat::cancel::ScopedCurrent deadline_scope(&deadline);
    mcpat::study::EvalRequest req;
    req.configPath = infile;
    req.strict = strict;
    req.gem5StatsPath = gem5_stats;
    req.wantReportJson = false;  // written below, with the manifest
    req.wantReportCsv = !csv_out.empty();
    const mcpat::study::EvalResult result = mcpat::study::evaluate(req);
    result.diagnostics.print(std::cerr);
    int rc = 0;
    if (result.timedOut || result.interrupted) {
        std::cerr << "mcpat: " << result.error << "\n";
        rc = result.timedOut ? 124 : 130;
    } else if (result.diagnostics.hasErrors()) {
        // Per-diagnostic lines (component, key, source line) above,
        // then a one-line verdict for scripts grepping the tail.
        std::cerr << "mcpat: invalid configuration: " << infile << "\n";
        rc = 1;
    } else if (!result.ok) {
        std::cerr << result.error << "\n";
        rc = 1;
    } else {
        try {
            writeSingleShot(result, infile, print_level, json_out,
                            csv_out, thermal_rth, instrumentation);
        } catch (const mcpat::cancel::Cancelled &e) {
            std::cerr << "mcpat: " << e.what() << "\n";
            rc = e.kind() == mcpat::cancel::Kind::Timeout ? 124 : 130;
        } catch (const std::exception &e) {
            std::cerr << e.what() << "\n";
            rc = 1;
        }
    }
    if (cache_stats && rc == 0)
        mcpat::array::reportCacheStats(std::cerr);
    // All spans have closed; the exported trace and manifest see
    // every phase including "report", on failure exits too.
    instrumentation.write(infile, /*valid=*/rc == 0,
                          /*write_metrics=*/true);
    return rc;
}
