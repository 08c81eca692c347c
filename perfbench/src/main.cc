/**
 * @file
 * Benchmark entry point.
 *
 *   perfbench --workload <cold_chip|sweep_search|runtime_serve|disk_warm>
 *             --seed <n> --seconds <s> --trace <0|1>
 *
 * Run from the repository root (configs/ is read from there).  Prints
 * one human-readable line per metric, then, as the last line, one JSON
 * object: {"correct", "attempted", "failed", "metrics"}.  With
 * --trace 0 the metrics are the end-to-end ones; with --trace 1 the
 * per-layer ones, a metric that does not apply to the workload
 * reading 0.  Exits non-zero without a result line when the workload
 * cannot run at all.
 */

#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <map>
#include <stdexcept>
#include <string>

#include "workloads.hh"

namespace fs = std::filesystem;
using namespace perfbench;

namespace {

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "perfbench: %s\n"
                 "usage: perfbench --workload <cold_chip|sweep_search|"
                 "runtime_serve|disk_warm> --seed <n> --seconds <s> "
                 "--trace <0|1>\n",
                 why);
    std::exit(2);
}

std::string
jsonString(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        out += c;
    }
    return out + "\"";
}

} // namespace

int
main(int argc, char **argv)
{
    RunOptions o;
    bool have_seed = false, have_seconds = false, have_trace = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (i + 1 >= argc)
            usage(("missing value for " + arg).c_str());
        const std::string val = argv[++i];
        try {
            if (arg == "--workload") {
                o.workload = val;
            } else if (arg == "--seed") {
                o.seed = std::stoull(val);
                have_seed = true;
            } else if (arg == "--seconds") {
                o.seconds = std::stod(val);
                have_seconds = true;
            } else if (arg == "--trace") {
                if (val != "0" && val != "1")
                    usage("--trace takes 0 or 1");
                o.trace = val == "1";
                have_trace = true;
            } else {
                usage(("unknown argument " + arg).c_str());
            }
        } catch (const std::logic_error &) {
            usage(("bad value for " + arg).c_str());
        }
    }
    if (!have_seed || !have_seconds || !have_trace)
        usage("--seed, --seconds and --trace are required");
    if (!(o.seconds > 0.0 && o.seconds <= 600.0))
        usage("--seconds must be in (0, 600]");

    const std::map<std::string, RunResult (*)(const RunOptions &)> runs = {
        {"cold_chip", runColdChip},
        {"sweep_search", runSweepSearch},
        {"runtime_serve", runRuntimeServe},
        {"disk_warm", runDiskWarm},
    };
    const auto run = runs.find(o.workload);
    if (run == runs.end())
        usage("unknown workload");

    // Scratch space for sockets, journals and disk records, removed on
    // every exit path below.
    o.workDir = ".bench_run/" + o.workload + "-" + std::to_string(getpid());
    std::error_code ec;
    fs::create_directories(o.workDir, ec);
    if (ec) {
        std::fprintf(stderr, "perfbench: cannot create %s: %s\n",
                     o.workDir.c_str(), ec.message().c_str());
        return 1;
    }

    RunResult r;
    int rc = 0;
    try {
        r = run->second(o);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench: %s: %s\n", o.workload.c_str(),
                     e.what());
        rc = 1;
    }
    fs::remove_all(o.workDir, ec);
    fs::remove(".bench_run", ec);  // only when empty
    if (rc != 0)
        return rc;

    const MetricList &wanted = o.trace ? perLayerMetrics()
                                       : endToEndMetrics();
    std::string metrics;
    for (const auto &[name, unit] : wanted) {
        auto it = r.metrics.find(name);
        double v = 0.0;  // per-layer metric the workload has no layer for
        if (it != r.metrics.end()) {
            v = it->second;
        } else if (!o.trace) {
            std::fprintf(stderr, "perfbench: %s did not measure %s\n",
                         o.workload.c_str(), name.c_str());
            return 1;
        }
        if (!std::isfinite(v)) {
            std::fprintf(stderr, "perfbench: %s is not finite\n",
                         name.c_str());
            return 1;
        }
        char num[64];
        std::snprintf(num, sizeof num, "%.17g", v);
        std::printf("%-30s %22s %s\n", name.c_str(), num, unit.c_str());
        metrics += (metrics.empty() ? "" : ", ") + jsonString(name) +
                   ": {\"value\": " + num + ", \"unit\": " +
                   jsonString(unit) + "}";
    }
    for (const std::string &n : r.notes)
        std::printf("note: %s\n", n.c_str());
    for (const std::string &e : r.errors)
        std::printf("failure: %s\n", e.c_str());
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {%s}}\n",
                r.failed == 0 ? "true" : "false",
                static_cast<unsigned long long>(r.attempted),
                static_cast<unsigned long long>(r.failed),
                metrics.c_str());
    return 0;
}
