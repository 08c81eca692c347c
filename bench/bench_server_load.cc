/**
 * @file
 * Evaluation-server load bench and smoke client.
 *
 * Two jobs in one binary:
 *
 *  1. **Scoreboard** (default): measure what the server mode is for —
 *     the cost of a cold `mcpat` process per evaluation versus warm
 *     requests against one long-running server.  Spawns the real CLI
 *     a few times for the cold baseline (full process startup, tech
 *     tables, cold caches), then starts an in-process server and
 *     fires N requests at concurrency C, reporting requests/sec and
 *     p50/p99 latency plus the warm-vs-cold throughput ratio (the
 *     acceptance bar is >= 10x on repeated identical configs).
 *
 *  2. **Smoke client** (-connect): drive an externally started
 *     `mcpat -serve` daemon; with -check every response line and the
 *     embedded report document are strict-JSON-validated, and with
 *     -shutdown a clean shutdown is requested and verified.  CI uses
 *     this against a backgrounded daemon.
 *
 * Usage:
 *   bench_server_load [-config <xml>] [-n N] [-c C] [-cold K]
 *                     [-mcpat <path-to-cli>]
 *   bench_server_load -connect <endpoint> [-n N] [-c C] [-check]
 *                     [-shutdown]
 */

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "common/diagnostics.hh"
#include "common/json_value.hh"
#include "common/net.hh"
#include "study/server.hh"

namespace fs = std::filesystem;
using namespace mcpat;

namespace {

double
secondsSince(std::chrono::steady_clock::time_point t0)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - t0)
        .count();
}

std::string
findConfig(const std::string &name)
{
    if (fs::exists(name))
        return fs::absolute(name).string();
    for (const std::string prefix :
         {"configs/", "../configs/", "../../configs/"}) {
        if (fs::exists(prefix + name))
            return fs::absolute(prefix + name).string();
    }
    return "";
}

std::string
findMcpatBinary(const std::string &hint)
{
    if (!hint.empty())
        return fs::exists(hint) ? fs::absolute(hint).string() : "";
    for (const std::string cand :
         {"./src/mcpat", "src/mcpat", "./build/src/mcpat",
          "build/src/mcpat", "../src/mcpat"}) {
        if (fs::exists(cand))
            return fs::absolute(cand).string();
    }
    return "";
}

double
percentile(std::vector<double> sorted, double p)
{
    if (sorted.empty())
        return 0.0;
    std::sort(sorted.begin(), sorted.end());
    const std::size_t idx = std::min(
        sorted.size() - 1,
        static_cast<std::size_t>(p * (sorted.size() - 1) + 0.5));
    return sorted[idx];
}

struct ClientTally
{
    std::vector<double> latencies;  ///< seconds per 200 response
    int failures = 0;
    std::string firstError;
};

/**
 * One client thread: its own connection, @p requests sequential
 * evaluation requests.  Every response line must parse as strict
 * JSON; with @p check, so must the embedded report document.
 */
ClientTally
runClient(const net::Endpoint &ep, const std::string &config,
          int requests, bool check)
{
    ClientTally tally;
    std::string error;
    net::Connection conn = net::connectTo(ep, &error);
    if (!conn.valid()) {
        tally.failures = requests;
        tally.firstError = error;
        return tally;
    }
    const std::string request =
        "{\"config\": \"" + jsonEscapeString(config) + "\"}\n";
    std::string reply;
    for (int i = 0; i < requests; ++i) {
        const auto t0 = std::chrono::steady_clock::now();
        if (!conn.writeAll(request) || !conn.readLine(reply)) {
            ++tally.failures;
            if (tally.firstError.empty())
                tally.firstError = "connection dropped";
            return tally;
        }
        const double dt = secondsSince(t0);
        common::JsonValue v;
        if (!common::jsonParse(reply, v, &error)) {
            ++tally.failures;
            if (tally.firstError.empty())
                tally.firstError = "unparseable response: " + error;
            continue;
        }
        if (v.getNumber("status") != 200.0) {
            ++tally.failures;
            if (tally.firstError.empty())
                tally.firstError =
                    "status " + std::to_string(static_cast<int>(
                                    v.getNumber("status"))) +
                    ": " + v.getString("error");
            continue;
        }
        if (check) {
            const std::string report = v.getString("report");
            common::JsonValue doc;
            if (report.empty() ||
                !common::jsonParse(report, doc, &error)) {
                ++tally.failures;
                if (tally.firstError.empty())
                    tally.firstError = "embedded report: " +
                        (report.empty() ? "missing" : error);
                continue;
            }
        }
        tally.latencies.push_back(dt);
    }
    return tally;
}

/** Fan @p total requests over @p concurrency client threads. */
ClientTally
runLoad(const net::Endpoint &ep, const std::string &config, int total,
        int concurrency, bool check)
{
    concurrency = std::max(1, std::min(concurrency, total));
    const int per = total / concurrency;
    const int extra = total % concurrency;
    std::vector<ClientTally> tallies(
        static_cast<std::size_t>(concurrency));
    std::vector<std::thread> threads;
    for (int i = 0; i < concurrency; ++i) {
        const int n = per + (i < extra ? 1 : 0);
        threads.emplace_back([&, i, n] {
            tallies[static_cast<std::size_t>(i)] =
                runClient(ep, config, n, check);
        });
    }
    for (auto &t : threads)
        t.join();
    ClientTally merged;
    for (auto &t : tallies) {
        merged.latencies.insert(merged.latencies.end(),
                                t.latencies.begin(),
                                t.latencies.end());
        merged.failures += t.failures;
        if (merged.firstError.empty())
            merged.firstError = t.firstError;
    }
    return merged;
}

void
printLatencies(const char *label, const ClientTally &tally,
               double wall_s)
{
    const std::size_t n = tally.latencies.size();
    std::cout << label << ": " << n << " ok, " << tally.failures
              << " failed";
    if (n) {
        std::cout << ", " << (static_cast<double>(n) / wall_s)
                  << " req/s, p50 "
                  << 1e3 * percentile(tally.latencies, 0.50)
                  << " ms, p99 "
                  << 1e3 * percentile(tally.latencies, 0.99) << " ms";
    }
    std::cout << "\n";
    if (!tally.firstError.empty())
        std::cout << "  first error: " << tally.firstError << "\n";
}

} // namespace

int
main(int argc, char **argv)
{
    std::string config_name = "niagara.xml";
    std::string connect;
    std::string mcpat_hint;
    int total = 120;
    int concurrency = 8;
    int cold_runs = 5;
    bool check = false;
    bool shutdown = false;

    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "-config") == 0 && i + 1 < argc) {
            config_name = argv[++i];
        } else if (std::strcmp(argv[i], "-connect") == 0 &&
                   i + 1 < argc) {
            connect = argv[++i];
        } else if (std::strcmp(argv[i], "-mcpat") == 0 && i + 1 < argc) {
            mcpat_hint = argv[++i];
        } else if (std::strcmp(argv[i], "-n") == 0 && i + 1 < argc) {
            total = std::atoi(argv[++i]);
        } else if (std::strcmp(argv[i], "-c") == 0 && i + 1 < argc) {
            concurrency = std::atoi(argv[++i]);
        } else if (std::strcmp(argv[i], "-cold") == 0 && i + 1 < argc) {
            cold_runs = std::atoi(argv[++i]);
        } else if (std::strcmp(argv[i], "-check") == 0) {
            check = true;
        } else if (std::strcmp(argv[i], "-shutdown") == 0) {
            shutdown = true;
        } else {
            std::cerr << "unknown argument: " << argv[i] << "\n";
            return 2;
        }
    }

    const std::string config = findConfig(config_name);
    if (config.empty()) {
        std::cerr << "cannot find config '" << config_name << "'\n";
        return 2;
    }

    // ------------------------------------------------------------------
    // Smoke-client mode: drive an external daemon.
    // ------------------------------------------------------------------
    if (!connect.empty()) {
        const net::Endpoint ep = net::parseEndpoint(connect);
        const auto t0 = std::chrono::steady_clock::now();
        const ClientTally tally =
            runLoad(ep, config, total, concurrency, check);
        printLatencies("external server", tally, secondsSince(t0));
        if (shutdown) {
            std::string error;
            net::Connection conn = net::connectTo(ep, &error);
            std::string reply;
            common::JsonValue v;
            if (!conn.valid() ||
                !conn.writeAll("{\"cmd\": \"shutdown\"}\n") ||
                !conn.readLine(reply) ||
                !common::jsonParse(reply, v, &error) ||
                !v.getBool("shutting_down")) {
                std::cerr << "shutdown request failed: " << error
                          << "\n";
                return 1;
            }
            std::cout << "shutdown acknowledged\n";
        }
        return tally.failures == 0 ? 0 : 1;
    }

    // ------------------------------------------------------------------
    // Scoreboard mode.
    // ------------------------------------------------------------------

    // Cold baseline: every invocation is a fresh process with cold
    // caches — exactly what coupling a simulator to the batch CLI
    // costs per query.
    const std::string binary = findMcpatBinary(mcpat_hint);
    double cold_mean_s = 0.0;
    if (!binary.empty() && cold_runs > 0) {
        const std::string out =
            (fs::temp_directory_path() /
             ("mcpat_load_" + std::to_string(::getpid()) + ".json"))
                .string();
        std::vector<double> cold;
        for (int i = 0; i < cold_runs; ++i) {
            const auto t0 = std::chrono::steady_clock::now();
            const std::string cmd = "'" + binary + "' -infile '" +
                config + "' -json '" + out + "' > /dev/null 2>&1";
            if (std::system(cmd.c_str()) != 0) {
                std::cerr << "cold run failed: " << cmd << "\n";
                return 1;
            }
            cold.push_back(secondsSince(t0));
        }
        fs::remove(out);
        for (double s : cold)
            cold_mean_s += s;
        cold_mean_s /= static_cast<double>(cold.size());
        std::cout << "cold process: " << cold.size() << " runs, mean "
                  << 1e3 * cold_mean_s << " ms ("
                  << 1.0 / cold_mean_s << " req/s)\n";
    } else {
        std::cout << "cold process: skipped ("
                  << (binary.empty() ? "mcpat binary not found; pass "
                                       "-mcpat <path>"
                                     : "-cold 0")
                  << ")\n";
    }

    // Warm server: one process, shared caches, concurrent workers.
    study::ServerOptions opts;
    opts.endpoint =
        (fs::temp_directory_path() /
         ("mcpat_load_" + std::to_string(::getpid()) + ".sock"))
            .string();
    opts.workers = std::max(concurrency, 2);
    opts.maxQueue = static_cast<std::size_t>(concurrency) * 4 + 8;
    study::EvalServer server;
    std::ostringstream server_log;
    std::string error;
    if (!server.start(opts, server_log, &error)) {
        std::cerr << "cannot start server: " << error << "\n";
        return 1;
    }
    const net::Endpoint ep = net::parseEndpoint(opts.endpoint);

    // First request pays the cold in-process caches; report it
    // separately so the scoreboard shows the warmup cliff.
    const auto warm0 = std::chrono::steady_clock::now();
    const ClientTally first = runLoad(ep, config, 1, 1, check);
    if (first.failures) {
        std::cerr << "warmup request failed: " << first.firstError
                  << "\n";
        return 1;
    }
    std::cout << "server first request (cold in-process caches): "
              << 1e3 * secondsSince(warm0) << " ms\n";

    const auto t0 = std::chrono::steady_clock::now();
    const ClientTally tally =
        runLoad(ep, config, total, concurrency, check);
    const double wall_s = secondsSince(t0);
    printLatencies("warm server", tally, wall_s);
    server.stop();

    if (tally.failures)
        return 1;
    if (cold_mean_s > 0.0 && !tally.latencies.empty()) {
        const double warm_rps =
            static_cast<double>(tally.latencies.size()) / wall_s;
        const double ratio = warm_rps * cold_mean_s;
        std::cout << "warm-vs-cold-process throughput: " << ratio
                  << "x\n";
        // The ROADMAP acceptance bar for repeated identical configs.
        if (ratio < 10.0) {
            std::cerr << "FAIL: expected >= 10x warm-vs-cold "
                         "throughput, got "
                      << ratio << "x\n";
            return 1;
        }
    }
    return 0;
}
