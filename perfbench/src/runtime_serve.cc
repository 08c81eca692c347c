/**
 * @file
 * runtime_serve: coupling to a performance simulator.  An in-process
 * EvalServer on a Unix socket (2 workers, 1 model thread) answers 3
 * closed-loop clients, one connection per request, as a simulator
 * waits for each interval's power.  Every request is one of a few
 * seeded chips with its own seeded interval of <stat> counters, taken
 * in turn from a pool made in set-up that is larger than the result
 * cache, so the result cache always misses, the component memo always
 * hits, and no array is solved: XML load, report render, eval-core
 * overhead, queueing and transport dominate.
 */

#include <atomic>
#include <cmath>
#include <memory>
#include <mutex>
#include <sstream>
#include <stdexcept>

#include "common/diagnostics.hh"
#include "common/net.hh"
#include "gen.hh"
#include "study/server.hh"
#include "workloads.hh"

namespace perfbench {

namespace {

using mcpat::common::JsonValue;

constexpr int kServeWorkers = 2;
constexpr int kServeClients = 3;

/**
 * Distinct requests generated in set-up and issued in turn by all
 * clients: four times the server's result-cache capacity, so a request
 * has been evicted (FIFO) long before it comes round again.  The
 * "cached" guard checks that it was.
 */
const std::size_t kServePool =
    4 * mcpat::study::ServerOptions{}.maxCachedResults;

/** Every kSampleEvery-th request is re-evaluated in process. */
constexpr std::size_t kSampleEvery = 50;
constexpr std::size_t kMaxSamples = 30;

struct Exchange
{
    std::string line;  ///< the whole reply
    JsonValue head;    ///< the reply's fields before its report
    double ms = 0.0;
    std::string error;
};

/**
 * One request on its own connection, timed connect to reply.  Only the
 * reply's head (status, cached, figures, timing) is parsed, so the
 * client does no work per op that grows with the report; the report
 * itself is checked on sampled replies after the timed phase.
 */
Exchange
roundTrip(const mcpat::net::Endpoint &ep, const std::string &request)
{
    Exchange ex;
    std::string err;
    const double t0 = nowSeconds();
    mcpat::net::Connection conn = mcpat::net::connectTo(ep, &err);
    if (!conn.valid()) {
        ex.error = "connect: " + err;
        return ex;
    }
    if (!conn.writeAll(request) || !conn.readLine(ex.line)) {
        ex.error = "connection dropped";
        return ex;
    }
    ex.ms = (nowSeconds() - t0) * 1e3;
    conn.close();
    ex.error = parseReplyHead(ex.line, ex.head);
    if (ex.error.empty())
        ex.error = guardServeReply(ex.head);
    return ex;
}

/** A sampled reply: which pooled request it answered, and the reply. */
struct Sample
{
    std::size_t request;
    std::string line;
};

/** Empty when a sampled reply's report is valid and equals an
 *  in-process evaluation of the same XML byte for byte. */
std::string
checkSample(const std::string &request, const std::string &reply)
{
    JsonValue req, rep;
    std::string err;
    if (!mcpat::common::jsonParse(request, req, &err) ||
        !mcpat::common::jsonParse(reply, rep, &err))
        return "unparseable sampled request or reply: " + err;
    const std::string report = rep.getString("report");
    if (const std::string bad = checkReportJson(report); !bad.empty())
        return "served " + bad;
    mcpat::study::EvalRequest er;
    er.configXml = req.getString("config_xml");
    if (mcpat::study::evaluate(er).reportJson != report)
        return "served report differs from in-process evaluation";
    return "";
}

} // namespace

std::string
serveRequest(const std::string &xml)
{
    return "{\"config_xml\": \"" + mcpat::jsonEscapeString(xml) +
           "\", \"report\": true}\n";
}

std::string
parseReplyHead(const std::string &reply, JsonValue &head)
{
    // The server writes the report after every other field it sends
    // here; an unescaped `, "report": "` cannot occur inside a string.
    const std::size_t cut = reply.find(", \"report\": \"");
    if (cut == std::string::npos)
        return "reply carries no report: " + reply.substr(0, 200);
    std::string err;
    if (!mcpat::common::jsonParse(reply.substr(0, cut) + "}", head, &err))
        return "unparseable reply: " + err;
    return "";
}

std::string
guardServeReply(const JsonValue &head)
{
    const double status = head.getNumber("status");
    if (status != 200.0)
        return "status " + std::to_string(static_cast<int>(status)) + ": " +
               head.getString("error");
    if (head.getBool("cached"))
        return "reply came from the result cache (a replayed request)";
    for (const char *key : {"area_mm2", "peak_w", "runtime_w"}) {
        const double v = head.getNumber(key, -1.0);
        if (!(std::isfinite(v) && v > 0.0))
            return std::string("reply ") + key + " not finite and positive";
    }
    return "";
}

RunResult
runRuntimeServe(const RunOptions &o)
{
    RunResult r;
    setProgramState(1, "");
    std::vector<mcpat::config::XmlNode> chips;
    for (const ChipInput &c : chipSet(o.seed, 1))
        chips.push_back(mcpat::config::parseXmlString(c.xml));

    // Relative socket path: short enough for sun_path wherever the
    // checkout lives.
    const std::string endpoint = o.workDir + "/serve.sock";
    const mcpat::net::Endpoint ep = mcpat::net::parseEndpoint(endpoint);
    std::ostringstream server_log;
    std::unique_ptr<mcpat::study::EvalServer> server;
    std::vector<std::string> pool;
    Rng warm_rng(subSeed(o.seed, 500));

    // Set-up: generate the request pool (each a seeded chip with a
    // fresh seeded <stat> interval), start the server and warm the
    // memo with one request per chip (each a cold evaluation).
    const double setup_s = medianSetupSeconds(kServeSetupRounds, [&] {
        server.reset();  // stops and joins the previous repetition's
        clearInProcessTiers();
        Rng rng(subSeed(o.seed, 100));
        pool.clear();
        for (std::size_t i = 0; i < kServePool; ++i)
            pool.push_back(serveRequest(writeXml(
                withStatInterval(chips[rng.below(chips.size())], rng))));
        server = std::make_unique<mcpat::study::EvalServer>();
        mcpat::study::ServerOptions so;
        so.endpoint = endpoint;
        so.workers = kServeWorkers;
        std::string err;
        if (!server->start(so, server_log, &err))
            throw std::runtime_error("server did not start: " + err);
        for (const auto &chip : chips) {
            const Exchange ex = roundTrip(
                ep, serveRequest(writeXml(withStatInterval(chip, warm_rng))));
            ++r.attempted;
            if (!ex.error.empty())
                r.fail("warm-up: " + ex.error);
        }
    }, false);  // starts server threads
    const Counters base = readCounters();
    const mcpat::study::ServerStats base_stats = server->stats();

    std::atomic<std::size_t> next{0};
    std::vector<EvalTotals> totals(kServeClients);
    std::vector<Sample> samples;
    std::mutex samples_mutex;
    bool tracing = false;
    auto op = [&](int c, std::size_t) {
        const std::size_t k = next.fetch_add(1);
        const std::size_t idx = k % pool.size();
        Exchange ex = roundTrip(ep, pool[idx]);
        if (ex.error.empty()) {
            if (tracing) {
                const JsonValue *t = ex.head.find("timing_ms");
                if (t)
                    totals[c].add(t->getNumber("load") * 1e-3,
                                  t->getNumber("assemble") * 1e-3,
                                  t->getNumber("report") * 1e-3,
                                  t->getNumber("wall") * 1e-3);
            }
            if (k % kSampleEvery == 0) {
                std::lock_guard<std::mutex> lock(samples_mutex);
                if (samples.size() < kMaxSamples)
                    samples.push_back({idx, std::move(ex.line)});
            }
        }
        return OpOutcome{ex.ms, ex.error};
    };

    LoopResult plain, traced;
    SpanStats spans;
    Counters traced_counters;
    if (!o.trace) {
        plain = closedLoop(kServeClients, o.seconds, op, false);
    } else {
        plain = closedLoop(kServeClients, o.seconds / 2, op, false);
        const Counters before = readCounters();
        beginTrace();
        tracing = true;
        traced = closedLoop(kServeClients, o.seconds / 2, op, false);
        tracing = false;
        spans = endTrace();
        traced_counters = readCounters() - before;
    }
    absorb(r, plain);
    absorb(r, traced);

    // Guards over the whole timed phase: nothing solved, nothing
    // served from the result cache.
    const Counters after_setup = readCounters() - base;
    const mcpat::study::ServerStats stats = server->stats();
    if (after_setup.candidates != 0)
        r.fail(std::to_string(after_setup.candidates) +
               " optimizer candidates evaluated after set-up");
    if (stats.resultHits != base_stats.resultHits)
        r.fail("result cache served replies after set-up");
    const auto queue_wait = mcpat::instr::Registry::instance()
                                .histogram("server.queue_wait_ms")
                                .snapshot();
    const auto request_ms = mcpat::instr::Registry::instance()
                                 .histogram("server.request_ms")
                                 .snapshot();
    server.reset();

    // Sampled replies must carry a valid report equal to an in-process
    // evaluation byte for byte.
    for (const Sample &s : samples)
        if (const std::string bad = checkSample(pool[s.request], s.line);
            !bad.empty())
            r.fail(bad);

    if (!o.trace) {
        addEndToEnd(r, setup_s, plain);
        r.notes.push_back(
            "client threads: " +
            std::to_string(100.0 * plain.clientCpuSeconds /
                           plain.cpuSeconds) +
            "% of the process CPU time in the timed loop");
        return r;
    }

    EvalTotals all;
    for (const EvalTotals &t : totals)
        all += t;
    double client_ms = 0.0;
    for (double ms : traced.latencyMs)
        client_ms += ms;
    addEvalLayerMetrics(r, traced.attempted, client_ms, all,
                        traced_counters, spans, queue_wait.sum);
    auto &m = r.metrics;
    const double server_p50 = request_ms.count ? request_ms.quantile(0.5) : 0.0;
    m["server.request_ms_p50"] = server_p50;
    m["server.queue_wait_ms_p50"] =
        queue_wait.count ? queue_wait.quantile(0.5) : 0.0;
    m["server.transport_ms"] = quantile(traced.latencyMs, 0.5) - server_p50;
    m["server.result_hits"] =
        static_cast<double>(stats.resultHits - base_stats.resultHits);
    m["server.rejected"] =
        static_cast<double>(stats.rejected - base_stats.rejected);
    m["trace.overhead_pct"] = traceOverheadPct(plain, traced);
    std::vector<mcpat::chip::SystemParams> systems;
    for (const auto &chip : chips)
        systems.push_back(systemOf(writeXml(chip)));
    m["tech.construct_us"] = techConstructUs(systems);
    return r;
}

} // namespace perfbench
