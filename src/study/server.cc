/**
 * @file
 * Evaluation-server implementation: accept thread, bounded connection
 * queue, worker pool, and the newline-delimited JSON protocol.
 */

#include "study/server.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <csignal>
#include <deque>
#include <fstream>
#include <memory>
#include <mutex>
#include <ostream>
#include <sstream>
#include <thread>
#include <vector>

#include "array/array_cache.hh"
#include "common/cancel.hh"
#include "common/diagnostics.hh"
#include "common/event_log.hh"
#include "common/instrument.hh"
#include "common/json_value.hh"
#include "common/keyed_memo.hh"
#include "common/net.hh"
#include "common/parallel.hh"
#include "common/serialize.hh"
#include "study/eval_core.hh"

namespace mcpat {
namespace study {

namespace {

/** One located diagnostic as a compact array (malformed requests). */
std::string
requestDiagnostic(const std::string &message)
{
    DiagnosticList diags;
    diags.add(Severity::Error, "server", "request", message);
    return diagnosticsJsonLine(diags);
}

/** Milliseconds on the steady clock (inflight-age bookkeeping). */
std::int64_t
steadyNowMs()
{
    return std::chrono::duration_cast<std::chrono::milliseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/**
 * Result-cache key for an evaluation request: the config *bytes*
 * (re-read per request so edits to a config file invalidate its
 * entries), the source name (diagnostics and manifests embed it), and
 * the flags that change what gets rendered.  Empty when the config
 * cannot be read — such requests bypass the cache so their error
 * diagnostics reflect the current filesystem state.
 */
std::string
resultCacheKey(const EvalRequest &er)
{
    std::string content;
    if (!er.configXml.empty()) {
        content = er.configXml;
    } else {
        std::ifstream in(er.configPath, std::ios::binary);
        if (!in)
            return "";
        std::ostringstream buf;
        buf << in.rdbuf();
        if (!in.good() && !in.eof())
            return "";
        content = buf.str();
    }
    std::ostringstream key;
    key << std::hex
        << common::fnv1a64(
               reinterpret_cast<const std::uint8_t *>(content.data()),
               content.size())
        << '|' << er.configPath << '|'
        << er.strict << er.wantReportJson << er.wantReportCsv
        << er.wantManifest;
    return key.str();
}

} // namespace

struct EvalServer::Impl
{
    ServerOptions opts;
    std::ostream *log = nullptr;
    net::ServerSocket listener;

    std::thread acceptThread;
    std::thread watchdogThread;
    std::vector<std::thread> workers;

    /** An accepted connection waiting for a worker, stamped at accept
     *  time so dequeue can attribute queue wait to the first request. */
    struct PendingConn
    {
        int fd = -1;
        std::int64_t enqueuedMs = 0;
    };

    std::mutex mutex;
    std::condition_variable queueCv;
    std::condition_variable stoppedCv;
    std::deque<PendingConn> pending;  ///< awaiting a worker
    bool stopping = false;
    bool stopped = false;
    bool joined = false;

    std::atomic<std::uint64_t> accepted{0};
    std::atomic<std::uint64_t> rejected{0};
    std::atomic<std::uint64_t> served{0};
    std::atomic<std::uint64_t> failed{0};
    std::atomic<std::uint64_t> malformed{0};
    std::atomic<std::uint64_t> resultHits{0};
    std::atomic<std::uint64_t> timeouts{0};

    /** Server start time (steady ms) for the health report's uptime. */
    std::int64_t startMs = 0;

    /** Latency distributions, cached once at start() so the per-
     *  request path never touches the registry's name map.  Null until
     *  start(); only recorded into when instr::enabled(). */
    instr::Histogram *requestMsHist = nullptr;
    instr::Histogram *queueWaitMsHist = nullptr;

    /**
     * Per-worker in-flight request start times (steady ms; 0 = idle),
     * written by the worker around each request and read lock-free by
     * the watchdog and the health command.
     */
    std::unique_ptr<std::atomic<std::int64_t>[]> inflightStartMs;
    std::size_t workerCount = 0;

    /** Count of busy workers and the oldest in-flight age (ms). */
    void
    inflightSnapshot(std::size_t &inflight, std::int64_t &oldest_ms)
    {
        inflight = 0;
        oldest_ms = 0;
        const std::int64_t now = steadyNowMs();
        for (std::size_t i = 0; i < workerCount; ++i) {
            const std::int64_t t0 =
                inflightStartMs[i].load(std::memory_order_relaxed);
            if (t0 > 0) {
                ++inflight;
                oldest_ms = std::max(oldest_ms, now - t0);
            }
        }
    }

    // Warmest tier: identical request -> previously rendered result.
    // Shared across all connections; created by start() with
    // opts.maxCachedResults as its capacity.
    using ResultCache =
        common::KeyedMemo<std::string, std::shared_ptr<const EvalResult>>;
    std::unique_ptr<ResultCache> resultCache;

    void
    logLine(const std::string &line)
    {
        std::lock_guard<std::mutex> lock(logMutex);
        if (log)
            *log << "serve: " << line << "\n";
    }
    std::mutex logMutex;

    // -----------------------------------------------------------------
    // Accept loop: admission control happens here, before any worker
    // is involved, so an overloaded server's memory stays bounded by
    // maxQueue idle fds rather than growing with demand.
    // -----------------------------------------------------------------
    void
    acceptLoop()
    {
        instr::setThreadName("accept");
        for (;;) {
            {
                std::lock_guard<std::mutex> lock(mutex);
                if (stopping)
                    break;
            }
            const int fd = listener.acceptClient(100);
            if (fd < 0)
                continue;
            bool overloaded = false;
            {
                std::lock_guard<std::mutex> lock(mutex);
                if (!stopping && pending.size() < opts.maxQueue) {
                    pending.push_back({fd, steadyNowMs()});
                } else {
                    overloaded = true;
                }
            }
            if (overloaded) {
                rejected.fetch_add(1, std::memory_order_relaxed);
                net::Connection conn(fd);
                std::ostringstream os;
                os << "{\"status\": 503, \"ok\": false, \"error\": "
                      "\"server overloaded: "
                   << opts.maxQueue
                   << " connections already queued; retry later\", "
                      "\"retry\": true}\n";
                conn.writeAll(os.str());
                logLine("rejected connection (queue full)");
                if (elog::enabled(elog::Level::Warn))
                    elog::emit(elog::Level::Warn, "study.server",
                               "connection_rejected",
                               "rejected connection (queue full)",
                               {elog::Field::num(
                                   "max_queue",
                                   static_cast<double>(
                                       opts.maxQueue))});
            } else {
                accepted.fetch_add(1, std::memory_order_relaxed);
                queueCv.notify_one();
            }
        }
        // Drain: refuse connections queued after stop with a 503 so
        // no accepted client hangs on a never-coming reply.
        std::deque<PendingConn> leftovers;
        {
            std::lock_guard<std::mutex> lock(mutex);
            leftovers.swap(pending);
        }
        for (const PendingConn &pc : leftovers) {
            net::Connection conn(pc.fd);
            conn.writeAll("{\"status\": 503, \"ok\": false, \"error\": "
                          "\"server shutting down\"}\n");
        }
        queueCv.notify_all();
    }

    // -----------------------------------------------------------------
    // Worker: serve one connection at a time, one request per line.
    // -----------------------------------------------------------------
    void
    workerLoop(std::size_t worker_index)
    {
        instr::setThreadName("serve-" + std::to_string(worker_index));
        for (;;) {
            PendingConn pc;
            {
                std::unique_lock<std::mutex> lock(mutex);
                queueCv.wait(lock, [&] {
                    return stopping || !pending.empty();
                });
                if (pending.empty())
                    return;  // stopping and drained
                pc = pending.front();
                pending.pop_front();
            }
            const std::int64_t wait_ms = steadyNowMs() - pc.enqueuedMs;
            if (instr::enabled() && queueWaitMsHist)
                queueWaitMsHist->record(
                    static_cast<double>(wait_ms));
            serveConnection(pc.fd, worker_index, wait_ms);
        }
    }

    void
    serveConnection(int fd, std::size_t worker_index,
                    std::int64_t queue_wait_ms)
    {
        net::Connection conn(fd);
        std::string line;
        bool first_request = true;
        for (;;) {
            {
                std::lock_guard<std::mutex> lock(mutex);
                if (stopping)
                    return;
            }
            const net::ReadStatus st = conn.readLineWait(line, 200);
            if (st == net::ReadStatus::Eof)
                return;
            if (st == net::ReadStatus::Timeout)
                continue;
            if (line.find_first_not_of(" \t\r") == std::string::npos)
                continue;  // blank keep-alive line
            inflightStartMs[worker_index].store(
                steadyNowMs(), std::memory_order_relaxed);
            const std::uint64_t t0_ns = instr::nowNanos();
            const std::string reply = handleRequest(line);
            inflightStartMs[worker_index].store(
                0, std::memory_order_relaxed);
            if (instr::enabled() && requestMsHist) {
                // End-to-end request latency as the client perceives
                // it: only the first request on a connection waited in
                // the accept queue; later ones start at their read.
                // Nanosecond timing keeps sub-millisecond commands in
                // a real bucket instead of the underflow.
                const double total_ms =
                    (instr::nowNanos() - t0_ns) * 1e-6 +
                    (first_request ? static_cast<double>(queue_wait_ms)
                                   : 0.0);
                requestMsHist->record(total_ms);
            }
            first_request = false;
            if (!conn.writeAll(reply))
                return;  // peer went away mid-reply
        }
    }

    // -----------------------------------------------------------------
    // Watchdog: cooperative deadlines do the actual unwinding; this
    // thread only *observes*, logging when a request has been in
    // flight suspiciously long (a config that dodges every checkpoint,
    // or a stuck filesystem) so operators see the hang instead of a
    // silently absent reply.
    // -----------------------------------------------------------------
    void
    watchdogLoop()
    {
        instr::setThreadName("watchdog");
        // Flag requests outliving 3x the configured deadline (or 30 s
        // when unbounded); re-warn at most every 5 s per incident.
        const std::int64_t limit_ms = opts.evalTimeoutMs > 0.0
            ? static_cast<std::int64_t>(3.0 * opts.evalTimeoutMs)
            : 30000;
        std::int64_t last_warn_ms = 0;
        for (;;) {
            {
                std::unique_lock<std::mutex> lock(mutex);
                if (stoppedCv.wait_for(lock,
                                       std::chrono::milliseconds(500),
                                       [&] { return stopping; }))
                    return;
            }
            std::size_t inflight;
            std::int64_t oldest;
            inflightSnapshot(inflight, oldest);
            const std::int64_t now = steadyNowMs();
            if (oldest > limit_ms && now - last_warn_ms > 5000) {
                last_warn_ms = now;
                logLine("watchdog: a request has been in flight for " +
                        std::to_string(oldest) + " ms (limit " +
                        std::to_string(limit_ms) + " ms); " +
                        std::to_string(inflight) + " worker(s) busy");
                if (elog::enabled(elog::Level::Warn))
                    elog::emit(
                        elog::Level::Warn, "study.server",
                        "request_overdue",
                        "a request has been in flight past the "
                        "watchdog limit",
                        {elog::Field::num(
                             "inflight_ms",
                             static_cast<double>(oldest)),
                         elog::Field::num(
                             "limit_ms",
                             static_cast<double>(limit_ms)),
                         elog::Field::num(
                             "busy_workers",
                             static_cast<double>(inflight))});
            }
        }
    }

    /** Parse and dispatch one request line; returns the reply line. */
    std::string
    handleRequest(const std::string &line)
    {
        common::JsonValue req;
        std::string parse_error;
        if (!common::jsonParse(line, req, &parse_error)) {
            malformed.fetch_add(1, std::memory_order_relaxed);
            return "{\"status\": 400, \"ok\": false, \"error\": "
                   "\"malformed request: " +
                   jsonEscapeString(parse_error) +
                   "\", \"diagnostics\": " +
                   requestDiagnostic("request is not valid JSON: " +
                                     parse_error) +
                   "}\n";
        }
        if (!req.isObject()) {
            malformed.fetch_add(1, std::memory_order_relaxed);
            return "{\"status\": 400, \"ok\": false, \"error\": "
                   "\"request must be a JSON object\", "
                   "\"diagnostics\": " +
                   requestDiagnostic("request must be a JSON object") +
                   "}\n";
        }

        // Bind the client's "id" to this thread so every event-log
        // record this request produces — including warnings from deep
        // inside the model layers — carries it.
        elog::ScopedRequestId rid(req.getString("id"));

        const std::string cmd = req.getString("cmd");
        if (!cmd.empty())
            return handleCommand(cmd, req);
        return handleEval(req);
    }

    /**
     * Request-latency percentiles from the registry histogram, as a
     * JSON fragment for health/stats replies.  Empty string when
     * instrumentation is off (replies must stay byte-identical) or
     * nothing has been recorded yet.
     */
    std::string
    latencyBlock()
    {
        if (!instr::enabled() || !requestMsHist)
            return "";
        const instr::HistogramSnapshot snap = requestMsHist->snapshot();
        if (snap.count == 0)
            return "";
        std::ostringstream os;
        os << ", \"latency_ms\": {\"count\": " << snap.count
           << ", \"p50\": ";
        writeJsonNumber(os, snap.quantile(0.50));
        os << ", \"p95\": ";
        writeJsonNumber(os, snap.quantile(0.95));
        os << ", \"p99\": ";
        writeJsonNumber(os, snap.quantile(0.99));
        os << "}";
        return os.str();
    }

    std::string
    handleCommand(const std::string &cmd, const common::JsonValue &req)
    {
        if (cmd == "ping") {
            served.fetch_add(1, std::memory_order_relaxed);
            return "{\"status\": 200, \"ok\": true, \"pong\": true}\n";
        }
        if (cmd == "stats") {
            served.fetch_add(1, std::memory_order_relaxed);
            const array::ArrayCacheStats cache =
                array::ArrayResultCache::instance().stats();
            std::size_t depth;
            {
                std::lock_guard<std::mutex> lock(mutex);
                depth = pending.size();
            }
            std::ostringstream os;
            os << "{\"status\": 200, \"ok\": true, \"stats\": {"
               << "\"accepted\": " << accepted.load()
               << ", \"rejected\": " << rejected.load()
               << ", \"served\": " << served.load()
               << ", \"failed\": " << failed.load()
               << ", \"malformed\": " << malformed.load()
               << ", \"timeouts\": " << timeouts.load()
               << ", \"queue_depth\": " << depth
               << ", \"workers\": " << workers.size()
               << ", \"result_cache_hits\": " << resultHits.load()
               << ", \"result_cache_size\": "
               << resultCache->stats().entries
               << ", \"cache_memory_hits\": " << cache.hits
               << ", \"cache_memory_misses\": " << cache.misses
               << ", \"cache_disk_hits\": " << cache.diskHits
               << ", \"cache_disk_misses\": " << cache.diskMisses
               << latencyBlock() << "}}\n";
            return os.str();
        }
        if (cmd == "health") {
            served.fetch_add(1, std::memory_order_relaxed);
            std::size_t depth;
            {
                std::lock_guard<std::mutex> lock(mutex);
                depth = pending.size();
            }
            std::size_t inflight;
            std::int64_t oldest;
            inflightSnapshot(inflight, oldest);
            std::ostringstream os;
            os << "{\"status\": 200, \"ok\": true, \"health\": {"
               << "\"queue_depth\": " << depth
               << ", \"inflight\": " << inflight
               << ", \"workers\": " << workerCount
               << ", \"oldest_request_ms\": " << oldest
               << ", \"uptime_ms\": " << (steadyNowMs() - startMs)
               << ", \"timeouts\": " << timeouts.load()
               << ", \"eval_timeout_ms\": ";
            writeJsonNumber(os, opts.evalTimeoutMs);
            os << latencyBlock() << "}}\n";
            return os.str();
        }
        if (cmd == "sleep") {
            // Testing aid: hold this worker for N ms (bounded), so
            // overload behavior can be exercised deterministically.
            const int ms = std::min(10000, std::max(0,
                static_cast<int>(req.getNumber("ms", 100.0))));
            const auto deadline = std::chrono::steady_clock::now() +
                std::chrono::milliseconds(ms);
            while (std::chrono::steady_clock::now() < deadline) {
                {
                    std::lock_guard<std::mutex> lock(mutex);
                    if (stopping)
                        break;
                }
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(5));
            }
            served.fetch_add(1, std::memory_order_relaxed);
            return "{\"status\": 200, \"ok\": true, \"slept_ms\": " +
                   std::to_string(ms) + "}\n";
        }
        if (cmd == "shutdown") {
            served.fetch_add(1, std::memory_order_relaxed);
            logLine("shutdown requested");
            if (elog::enabled(elog::Level::Info))
                elog::emit(elog::Level::Info, "study.server",
                           "shutdown_requested",
                           "shutdown requested by client");
            requestStopLocked();
            return "{\"status\": 200, \"ok\": true, "
                   "\"shutting_down\": true}\n";
        }
        malformed.fetch_add(1, std::memory_order_relaxed);
        return "{\"status\": 400, \"ok\": false, \"error\": "
               "\"unknown cmd '" +
               jsonEscapeString(cmd) + "'\", \"diagnostics\": " +
               requestDiagnostic("unknown cmd '" + cmd + "'") + "}\n";
    }

    std::string
    handleEval(const common::JsonValue &req)
    {
        EvalRequest er;
        er.configPath = req.getString("config");
        er.configXml = req.getString("config_xml");
        er.strict = req.getBool("strict", opts.strictDefault);
        er.wantReportJson = req.getBool("report", true);
        er.wantReportCsv = req.getBool("csv", false);
        er.wantManifest = req.getBool("manifest", false);
        // The server's deadline is policy; a request can only tighten
        // it, never buy itself more time than the operator allowed.
        const double req_timeout = req.getNumber("timeout_ms", 0.0);
        er.timeoutMs = opts.evalTimeoutMs;
        if (req_timeout > 0.0) {
            er.timeoutMs = er.timeoutMs > 0.0
                ? std::min(er.timeoutMs, req_timeout)
                : req_timeout;
        }
        const std::string id = req.getString("id");

        if (er.configPath.empty() && er.configXml.empty()) {
            malformed.fetch_add(1, std::memory_order_relaxed);
            return "{\"status\": 400, \"ok\": false, \"error\": "
                   "\"request needs a 'config' path or 'config_xml' "
                   "text\", \"diagnostics\": " +
                   requestDiagnostic(
                       "request needs a 'config' path or "
                       "'config_xml' text") +
                   "}\n";
        }

        const std::string key = resultCacheKey(er);
        std::shared_ptr<const EvalResult> entry;
        if (!key.empty())
            entry = resultCache->find(key).value_or(nullptr);
        const bool hit = entry != nullptr;
        if (hit) {
            resultHits.fetch_add(1, std::memory_order_relaxed);
        } else {
            entry = std::make_shared<EvalResult>(evaluate(er));
            // Only successes are worth keeping: failures are cheap to
            // reproduce and their diagnostics may reflect transient
            // filesystem state.
            if (entry->ok && !key.empty())
                resultCache->insert(key, entry);
        }
        const EvalResult &result = *entry;

        // Status: 200 ok, 504 deadline exceeded, 503 unwound by server
        // shutdown, 422 invalid configuration.
        int status = 200;
        if (!result.ok)
            status = result.timedOut ? 504
                   : result.interrupted ? 503
                                        : 422;

        // One reserved string: the report, CSV and manifest are escaped
        // straight into the reply (their quotes and newlines grow them
        // by a few percent).
        const std::size_t embedded = result.reportJson.size() +
            result.reportCsv.size() + result.manifestJson.size();
        std::string out;
        out.reserve(512 + id.size() + result.error.size() + embedded +
                    embedded / 8);
        out += "{";
        if (!id.empty()) {
            out += "\"id\": \"";
            appendJsonEscaped(out, id);
            out += "\", ";
        }
        out += "\"status\": ";
        out += std::to_string(status);
        out += result.ok ? ", \"ok\": true" : ", \"ok\": false";
        out += hit ? ", \"cached\": true" : ", \"cached\": false";
        if (!result.ok) {
            if (result.timedOut)
                timeouts.fetch_add(1, std::memory_order_relaxed);
            else
                failed.fetch_add(1, std::memory_order_relaxed);
            out += ", \"error\": \"";
            appendJsonEscaped(out, result.error);
            out += "\"";
            if (result.timedOut) {
                out += ", \"timed_out\": true, \"timeout_ms\": ";
                appendJsonNumber(out, er.timeoutMs, kStreamPrecision);
            }
        } else {
            served.fetch_add(1, std::memory_order_relaxed);
            out += ", \"area_mm2\": ";
            appendJsonNumber(out, result.area * 1e6, kStreamPrecision);
            out += ", \"peak_w\": ";
            appendJsonNumber(out, result.peakPower, kStreamPrecision);
            out += ", \"runtime_w\": ";
            appendJsonNumber(out, result.runtimePower, kStreamPrecision);
        }
        if (!result.diagnostics.empty()) {
            out += ", \"diagnostics\": ";
            out += diagnosticsJsonLine(result.diagnostics);
        }
        out += ", \"timing_ms\": {\"load\": ";
        appendNumber(out, 1e3 * result.loadSeconds, kStreamPrecision);
        out += ", \"assemble\": ";
        appendNumber(out, 1e3 * result.assembleSeconds, kStreamPrecision);
        out += ", \"report\": ";
        appendNumber(out, 1e3 * result.reportSeconds, kStreamPrecision);
        out += ", \"wall\": ";
        appendNumber(out, 1e3 * result.wallSeconds, kStreamPrecision);
        out += "}";
        if (result.ok && !result.reportJson.empty()) {
            out += ", \"report\": \"";
            appendJsonEscaped(out, result.reportJson);
            out += "\"";
        }
        if (result.ok && !result.reportCsv.empty()) {
            out += ", \"csv\": \"";
            appendJsonEscaped(out, result.reportCsv);
            out += "\"";
        }
        if (!result.manifestJson.empty()) {
            out += ", \"manifest\": \"";
            appendJsonEscaped(out, result.manifestJson);
            out += "\"";
        }
        out += "}\n";
        return out;
    }

    void
    requestStopLocked()
    {
        {
            std::lock_guard<std::mutex> lock(mutex);
            if (stopping)
                return;
            stopping = true;
        }
        queueCv.notify_all();
        stoppedCv.notify_all();
    }

    /**
     * The running server, published for the queue-depth/in-flight
     * registry collector.  A mutex (not an atomic) guards it because
     * the collector dereferences the pointer: clearing it in stop()
     * must wait out a collector mid-snapshot, or the flight recorder
     * could sample a dying Impl.
     */
    static std::mutex s_activeMutex;
    static Impl *s_active;
    static void registerCollector();
};

std::mutex EvalServer::Impl::s_activeMutex;
EvalServer::Impl *EvalServer::Impl::s_active = nullptr;

void
EvalServer::Impl::registerCollector()
{
    // Registered once per process; the collector looks through
    // s_active so it follows whichever server instance is running
    // (tests start and stop many) and goes quiet between them.
    static const bool registered = [] {
        instr::Registry::instance().addCollector(
            [](instr::Registry &reg) {
                std::lock_guard<std::mutex> lock(s_activeMutex);
                Impl *im = s_active;
                if (!im)
                    return;
                std::size_t depth;
                {
                    std::lock_guard<std::mutex> qlock(im->mutex);
                    depth = im->pending.size();
                }
                std::size_t inflight;
                std::int64_t oldest;
                im->inflightSnapshot(inflight, oldest);
                reg.gauge("server.queue_depth")
                    .set(static_cast<double>(depth));
                reg.gauge("server.inflight")
                    .set(static_cast<double>(inflight));
            });
        return true;
    }();
    (void)registered;
}

EvalServer::EvalServer() : _impl(std::make_unique<Impl>()) {}

EvalServer::~EvalServer()
{
    stop();
}

bool
EvalServer::start(const ServerOptions &opts, std::ostream &log,
                  std::string *error)
{
    Impl &im = *_impl;
    im.opts = opts;
    im.log = &log;
    im.resultCache =
        std::make_unique<Impl::ResultCache>(opts.maxCachedResults);
    const net::Endpoint ep = net::parseEndpoint(opts.endpoint);
    if (!im.listener.listen(ep, error))
        return false;

    int workers = opts.workers > 0 ? opts.workers
                                   : parallel::threadCount();
    if (workers < 1)
        workers = 1;
    im.logLine("listening on " + im.listener.endpointName() + " (" +
               std::to_string(workers) + " workers, queue " +
               std::to_string(opts.maxQueue) + ")");
    if (elog::enabled(elog::Level::Info))
        elog::emit(elog::Level::Info, "study.server", "listening",
                   "evaluation server listening",
                   {elog::Field::str("endpoint",
                                     im.listener.endpointName()),
                    elog::Field::num("workers",
                                     static_cast<double>(workers)),
                    elog::Field::num(
                        "max_queue",
                        static_cast<double>(opts.maxQueue))});
    auto &registry = instr::Registry::instance();
    im.requestMsHist = &registry.histogram("server.request_ms");
    im.queueWaitMsHist = &registry.histogram("server.queue_wait_ms");
    Impl::registerCollector();
    {
        std::lock_guard<std::mutex> lock(Impl::s_activeMutex);
        Impl::s_active = &im;
    }
    im.startMs = steadyNowMs();
    im.workerCount = static_cast<std::size_t>(workers);
    im.inflightStartMs =
        std::make_unique<std::atomic<std::int64_t>[]>(im.workerCount);
    for (std::size_t i = 0; i < im.workerCount; ++i)
        im.inflightStartMs[i].store(0, std::memory_order_relaxed);
    im.acceptThread = std::thread([&im] { im.acceptLoop(); });
    im.watchdogThread = std::thread([&im] { im.watchdogLoop(); });
    im.workers.reserve(im.workerCount);
    for (std::size_t i = 0; i < im.workerCount; ++i)
        im.workers.emplace_back([&im, i] { im.workerLoop(i); });
    return true;
}

void
EvalServer::requestStop()
{
    _impl->requestStopLocked();
}

void
EvalServer::wait()
{
    Impl &im = *_impl;
    std::unique_lock<std::mutex> lock(im.mutex);
    im.stoppedCv.wait(lock, [&] { return im.stopping; });
}

bool
EvalServer::waitFor(int timeout_ms)
{
    Impl &im = *_impl;
    std::unique_lock<std::mutex> lock(im.mutex);
    return im.stoppedCv.wait_for(lock,
                                 std::chrono::milliseconds(timeout_ms),
                                 [&] { return im.stopping; });
}

void
EvalServer::stop()
{
    Impl &im = *_impl;
    im.requestStopLocked();
    bool join_here = false;
    {
        std::lock_guard<std::mutex> lock(im.mutex);
        if (!im.joined) {
            im.joined = true;
            join_here = true;
        }
    }
    if (!join_here)
        return;
    {
        // Unpublish before teardown so the registry collector can no
        // longer reach this Impl.
        std::lock_guard<std::mutex> lock(Impl::s_activeMutex);
        if (Impl::s_active == &im)
            Impl::s_active = nullptr;
    }
    if (im.acceptThread.joinable())
        im.acceptThread.join();
    if (im.watchdogThread.joinable())
        im.watchdogThread.join();
    for (auto &w : im.workers)
        if (w.joinable())
            w.join();
    im.workers.clear();
    im.listener.close();
    {
        std::lock_guard<std::mutex> lock(im.mutex);
        im.stopped = true;
    }
    im.logLine("stopped");
}

bool
EvalServer::running() const
{
    std::lock_guard<std::mutex> lock(_impl->mutex);
    return _impl->listener.listening() && !_impl->stopping;
}

std::string
EvalServer::endpointName() const
{
    return _impl->listener.endpointName();
}

std::uint16_t
EvalServer::boundPort() const
{
    return _impl->listener.boundPort();
}

ServerStats
EvalServer::stats() const
{
    ServerStats s;
    s.accepted = _impl->accepted.load(std::memory_order_relaxed);
    s.rejected = _impl->rejected.load(std::memory_order_relaxed);
    s.served = _impl->served.load(std::memory_order_relaxed);
    s.failed = _impl->failed.load(std::memory_order_relaxed);
    s.malformed = _impl->malformed.load(std::memory_order_relaxed);
    s.resultHits = _impl->resultHits.load(std::memory_order_relaxed);
    s.timeouts = _impl->timeouts.load(std::memory_order_relaxed);
    return s;
}

namespace {

/** Set by the signal handler; polled by runServer's wait loop.  A
 *  handler must not take locks or notify condition variables, so the
 *  flag is the only thing it touches. */
std::atomic<bool> g_signalStop{false};

extern "C" void
serveSignalHandler(int sig)
{
    g_signalStop.store(true, std::memory_order_relaxed);
    // Also trip the process-wide cooperative-cancel flag (one atomic
    // store, async-signal-safe) so in-flight evaluations unwind at
    // their next checkpoint instead of delaying shutdown.
    cancel::requestStop(sig);
}

} // namespace

int
runServer(const ServerOptions &opts, std::ostream &log)
{
    EvalServer server;
    std::string error;
    if (!server.start(opts, log, &error)) {
        log << "serve: cannot start: " << error << "\n";
        return 1;
    }
    g_signalStop.store(false, std::memory_order_relaxed);
    std::signal(SIGINT, serveSignalHandler);
    std::signal(SIGTERM, serveSignalHandler);
    while (!server.waitFor(100)) {
        if (g_signalStop.load(std::memory_order_relaxed))
            server.requestStop();
    }
    server.stop();
    const ServerStats s = server.stats();
    log << "serve: " << s.served << " served (" << s.resultHits
        << " from result cache), " << s.failed << " failed, "
        << s.malformed << " malformed, " << s.rejected
        << " rejected\n";
    return 0;
}

} // namespace study
} // namespace mcpat
