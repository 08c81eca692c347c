/**
 * @file
 * Evaluation-server tests: the JSON request parser, the shared eval
 * core, and the `-serve` daemon — concurrent requests byte-identical
 * to single-shot output, structured overload rejection, and malformed
 * or invalid requests failing their own reply while the server keeps
 * serving.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <unistd.h>
#include <vector>

#include "common/diagnostics.hh"
#include "common/instrument.hh"
#include "common/json_value.hh"
#include "common/logging.hh"
#include "common/net.hh"
#include "study/eval_core.hh"
#include "study/server.hh"

#include "test_inputs.hh"

using namespace mcpat;
namespace fs = std::filesystem;

namespace {

/** Short unique Unix socket path (sun_path caps at ~107 chars). */
std::string
scratchSocket(const std::string &tag)
{
    static int counter = 0;
    return (fs::temp_directory_path() /
            ("mcpat_srv_" + tag + "_" + std::to_string(::getpid()) +
             "_" + std::to_string(counter++) + ".sock"))
        .string();
}

/** Connect, send one line, read one line, parse it. */
common::JsonValue
rpc(const net::Endpoint &ep, const std::string &request_line)
{
    std::string error;
    net::Connection conn = net::connectTo(ep, &error);
    EXPECT_TRUE(conn.valid()) << error;
    EXPECT_TRUE(conn.writeAll(request_line + "\n"));
    std::string reply;
    EXPECT_TRUE(conn.readLine(reply));
    common::JsonValue v;
    EXPECT_TRUE(common::jsonParse(reply, v, &error))
        << error << " in: " << reply;
    return v;
}

/** A started server on a fresh Unix socket, stopped on destruction. */
struct TestServer
{
    study::EvalServer server;
    net::Endpoint ep;
    std::ostringstream log;

    explicit TestServer(int workers, std::size_t max_queue = 32,
                        bool strict_default = false,
                        double eval_timeout_ms = 0.0)
    {
        study::ServerOptions opts;
        opts.endpoint = scratchSocket("t");
        opts.workers = workers;
        opts.maxQueue = max_queue;
        opts.strictDefault = strict_default;
        opts.evalTimeoutMs = eval_timeout_ms;
        std::string error;
        EXPECT_TRUE(server.start(opts, log, &error)) << error;
        ep = net::parseEndpoint(opts.endpoint);
    }

    ~TestServer() { server.stop(); }
};

} // namespace

// ---------------------------------------------------------------------
// JSON request parser.
// ---------------------------------------------------------------------

TEST(JsonValue, ParsesScalarsContainersAndEscapes)
{
    common::JsonValue v;
    std::string err;
    ASSERT_TRUE(common::jsonParse(
        "{\"a\": 1.5e2, \"b\": [true, null, \"x\\n\\u0041\"], "
        "\"c\": {\"d\": -3}}",
        v, &err)) << err;
    EXPECT_DOUBLE_EQ(v.getNumber("a"), 150.0);
    const common::JsonValue *b = v.find("b");
    ASSERT_NE(b, nullptr);
    ASSERT_EQ(b->array.size(), 3u);
    EXPECT_TRUE(b->array[0].boolean);
    EXPECT_TRUE(b->array[1].isNull());
    EXPECT_EQ(b->array[2].str, "x\nA");
    ASSERT_NE(v.find("c"), nullptr);
    EXPECT_DOUBLE_EQ(v.find("c")->getNumber("d"), -3.0);
}

TEST(JsonValue, RejectsMalformedDocuments)
{
    common::JsonValue v;
    std::string err;
    for (const char *bad :
         {"", "{", "[1,]", "{\"a\" 1}", "nul", "1 2", "{\"a\": 01}",
          "\"unterminated", "{\"a\": NaN}"}) {
        EXPECT_FALSE(common::jsonParse(bad, v, &err)) << bad;
        EXPECT_FALSE(err.empty());
    }
}

TEST(JsonValue, RoundTripsEscapedReportDocuments)
{
    // The server embeds multi-line report documents as JSON strings;
    // escaping then parsing must reproduce the bytes exactly.
    const std::string doc =
        "{\n  \"name\": \"x\",\n  \"t\": \"a\\tb\"\n}\n";
    const std::string wrapped =
        "{\"report\": \"" + jsonEscapeString(doc) + "\"}";
    common::JsonValue v;
    std::string err;
    ASSERT_TRUE(common::jsonParse(wrapped, v, &err)) << err;
    EXPECT_EQ(v.getString("report"), doc);
}

// ---------------------------------------------------------------------
// Eval core.
// ---------------------------------------------------------------------

TEST(EvalCore, EvaluatesShippedConfigWithRenderedArtifacts)
{
    study::EvalRequest req;
    req.configPath = fs::absolute(findConfig("niagara.xml")).string();
    req.wantReportCsv = true;
    req.wantManifest = true;
    const study::EvalResult res = study::evaluate(req);
    ASSERT_TRUE(res.ok) << res.error;
    EXPECT_GT(res.area, 0.0);
    EXPECT_GT(res.peakPower, 0.0);
    std::string err;
    common::JsonValue doc;
    EXPECT_TRUE(common::jsonParse(res.reportJson, doc, &err)) << err;
    EXPECT_TRUE(common::jsonParse(res.manifestJson, doc, &err)) << err;
    EXPECT_NE(res.reportCsv.find("path,area_mm2"), std::string::npos);
    EXPECT_GT(res.wallSeconds, 0.0);
}

TEST(EvalCore, InlineXmlMatchesFileEvaluation)
{
    const std::string path = fs::absolute(findConfig("niagara.xml")).string();
    std::ifstream in(path);
    std::stringstream ss;
    ss << in.rdbuf();

    study::EvalRequest by_file;
    by_file.configPath = path;
    study::EvalRequest by_text;
    by_text.configXml = ss.str();
    const study::EvalResult a = study::evaluate(by_file);
    const study::EvalResult b = study::evaluate(by_text);
    ASSERT_TRUE(a.ok) << a.error;
    ASSERT_TRUE(b.ok) << b.error;
    EXPECT_EQ(a.reportJson, b.reportJson);
}

TEST(EvalCore, RequestShapeErrorsDoNotThrow)
{
    const study::EvalResult neither = study::evaluate({});
    EXPECT_FALSE(neither.ok);
    EXPECT_NE(neither.error.find("neither"), std::string::npos);

    study::EvalRequest both;
    both.configPath = "x.xml";
    both.configXml = "<x/>";
    const study::EvalResult b = study::evaluate(both);
    EXPECT_FALSE(b.ok);
    EXPECT_NE(b.error.find("both"), std::string::npos);
}

TEST(EvalCore, InvalidConfigYieldsLocatedDiagnostics)
{
    study::EvalRequest req;
    req.configXml = "<component id=\"sys\" type=\"System\">"
                    "<param name=\"technology_node\" value=\"banana\"/>"
                    "</component>";
    const study::EvalResult res = study::evaluate(req);
    EXPECT_FALSE(res.ok);
    EXPECT_FALSE(res.diagnostics.empty());
    EXPECT_TRUE(res.diagnostics.hasErrors());
}

TEST(EvalCore, RuntimeStatErrorsFollowLoadWarnings)
{
    std::ifstream in(fs::absolute(findConfig("niagara_runtime.xml")).string());
    std::stringstream ss;
    ss << in.rdbuf();
    std::string xml = ss.str();
    // A load warning (commit wider than issue) and a malformed stat.
    for (const auto &[from, to] :
         {std::pair<std::string, std::string>{
              "name=\"commit_width\" value=\"1\"",
              "name=\"commit_width\" value=\"8\""},
          {"name=\"total_cycles\" value=\"10000000\"",
           "name=\"total_cycles\" value=\"lots\""}}) {
        const std::size_t at = xml.find(from);
        ASSERT_NE(at, std::string::npos) << from;
        xml.replace(at, from.size(), to);
    }
    study::EvalRequest req;
    req.configXml = xml;
    const study::EvalResult res = study::evaluate(req);
    EXPECT_FALSE(res.ok);
    // The stat error joins the warning instead of being dropped.
    bool warned = false, stat_error = false;
    for (const auto &d : res.diagnostics) {
        warned |= d.key == "commit_width";
        stat_error |= d.severity == Severity::Error &&
                      d.key == "total_cycles";
    }
    EXPECT_TRUE(warned) << res.error;
    EXPECT_TRUE(stat_error) << res.error;
}

TEST(EvalCore, Gem5StatsReplaceTheConfigActivity)
{
    const std::string stats_path =
        (std::filesystem::temp_directory_path() /
         ("mcpat_eval_gem5_" + std::to_string(::getpid()) + ".txt"))
            .string();
    {
        std::ofstream out(stats_path);
        out << "---------- Begin Simulation Statistics ----------\n"
               "system.cpu0.numCycles 2000000\n"
               "system.cpu0.committedInsts 600000\n"
               "system.cpu0.num_int_insts 400000\n"
               "system.cpu0.num_loads 100000\n"
               "system.cpu0.num_stores 50000\n"
               "---------- End Simulation Statistics   ----------\n";
    }
    study::EvalRequest req;
    req.configPath = fs::absolute(findConfig("niagara.xml")).string();
    const study::EvalResult plain = study::evaluate(req);
    req.gem5StatsPath = stats_path;
    const study::EvalResult gem5 = study::evaluate(req);
    std::filesystem::remove(stats_path);
    ASSERT_TRUE(plain.ok) << plain.error;
    ASSERT_TRUE(gem5.ok) << gem5.error;
    EXPECT_TRUE(gem5.meetsTiming);
    // Activity moves only the runtime figures.
    EXPECT_EQ(gem5.area, plain.area);
    EXPECT_EQ(gem5.peakPower, plain.peakPower);
    EXPECT_NE(gem5.runtimePower, plain.runtimePower);

    req.gem5StatsPath = stats_path;  // now removed
    const study::EvalResult missing = study::evaluate(req);
    EXPECT_FALSE(missing.ok);
    EXPECT_NE(missing.error.find(stats_path), std::string::npos)
        << missing.error;
}

// ---------------------------------------------------------------------
// Server.
// ---------------------------------------------------------------------

TEST(Server, PingStatsAndShutdown)
{
    TestServer ts(2);
    EXPECT_TRUE(ts.server.running());

    common::JsonValue pong = rpc(ts.ep, "{\"cmd\": \"ping\"}");
    EXPECT_EQ(pong.getNumber("status"), 200.0);
    EXPECT_TRUE(pong.getBool("pong"));

    common::JsonValue stats = rpc(ts.ep, "{\"cmd\": \"stats\"}");
    EXPECT_EQ(stats.getNumber("status"), 200.0);
    ASSERT_NE(stats.find("stats"), nullptr);

    common::JsonValue bye = rpc(ts.ep, "{\"cmd\": \"shutdown\"}");
    EXPECT_TRUE(bye.getBool("shutting_down"));
    ts.server.stop();
    EXPECT_FALSE(ts.server.running());
}

TEST(Server, ConcurrentRequestsByteIdenticalToSingleShot)
{
    const std::string config = fs::absolute(findConfig("niagara.xml")).string();

    // The reference: what the single-shot CLI's -json writes.
    study::EvalRequest ref_req;
    ref_req.configPath = config;
    const study::EvalResult ref = study::evaluate(ref_req);
    ASSERT_TRUE(ref.ok) << ref.error;
    ASSERT_FALSE(ref.reportJson.empty());

    TestServer ts(8);
    constexpr int kClients = 8;
    std::vector<std::string> reports(kClients);
    std::vector<std::string> errors(kClients);
    std::vector<std::thread> clients;
    for (int i = 0; i < kClients; ++i) {
        clients.emplace_back([&, i] {
            std::string error;
            net::Connection conn = net::connectTo(ts.ep, &error);
            if (!conn.valid()) {
                errors[i] = error;
                return;
            }
            conn.writeAll("{\"id\": \"c" + std::to_string(i) +
                          "\", \"config\": \"" + config + "\"}\n");
            std::string reply;
            if (!conn.readLine(reply)) {
                errors[i] = "no reply";
                return;
            }
            common::JsonValue v;
            if (!common::jsonParse(reply, v, &error)) {
                errors[i] = error;
                return;
            }
            if (v.getNumber("status") != 200.0) {
                errors[i] = "status " +
                    std::to_string(v.getNumber("status"));
                return;
            }
            if (v.getString("id") != "c" + std::to_string(i)) {
                errors[i] = "wrong id echo";
                return;
            }
            reports[i] = v.getString("report");
        });
    }
    for (auto &t : clients)
        t.join();
    for (int i = 0; i < kClients; ++i) {
        EXPECT_TRUE(errors[i].empty()) << "client " << i << ": "
                                       << errors[i];
        EXPECT_EQ(reports[i], ref.reportJson) << "client " << i;
    }
    const study::ServerStats stats = ts.server.stats();
    EXPECT_EQ(stats.accepted, static_cast<std::uint64_t>(kClients));
    EXPECT_EQ(stats.failed, 0u);
}

TEST(Server, OverloadReturnsStructuredRejection)
{
    // One worker, one queue slot: occupy the worker with a sleep,
    // park a second connection in the queue, and the third accept
    // must be refused with a one-line 503.
    TestServer ts(1, /*max_queue=*/1);

    std::string error;
    net::Connection busy = net::connectTo(ts.ep, &error);
    ASSERT_TRUE(busy.valid()) << error;
    ASSERT_TRUE(busy.writeAll("{\"cmd\": \"sleep\", \"ms\": 1500}\n"));
    // Let the worker pick the sleeper up before parking the next one.
    std::this_thread::sleep_for(std::chrono::milliseconds(200));

    net::Connection parked = net::connectTo(ts.ep, &error);
    ASSERT_TRUE(parked.valid()) << error;
    std::this_thread::sleep_for(std::chrono::milliseconds(200));

    net::Connection refused = net::connectTo(ts.ep, &error);
    ASSERT_TRUE(refused.valid()) << error;
    std::string reply;
    ASSERT_TRUE(refused.readLine(reply));
    common::JsonValue v;
    ASSERT_TRUE(common::jsonParse(reply, v, &error)) << error;
    EXPECT_EQ(v.getNumber("status"), 503.0);
    EXPECT_FALSE(v.getBool("ok", true));
    EXPECT_NE(v.getString("error").find("overloaded"),
              std::string::npos);
    EXPECT_GE(ts.server.stats().rejected, 1u);

    // The sleeper still gets its answer: overload never kills
    // admitted work.
    ASSERT_TRUE(busy.readLine(reply));
    ASSERT_TRUE(common::jsonParse(reply, v, &error)) << error;
    EXPECT_EQ(v.getNumber("status"), 200.0);
}

TEST(Server, MalformedRequestYieldsDiagnosticAndServerKeepsServing)
{
    TestServer ts(2);
    std::string error;
    net::Connection conn = net::connectTo(ts.ep, &error);
    ASSERT_TRUE(conn.valid()) << error;

    // Malformed line: structured 400 with a located diagnostic.
    ASSERT_TRUE(conn.writeAll("this is not json\n"));
    std::string reply;
    ASSERT_TRUE(conn.readLine(reply));
    common::JsonValue v;
    ASSERT_TRUE(common::jsonParse(reply, v, &error)) << error;
    EXPECT_EQ(v.getNumber("status"), 400.0);
    const common::JsonValue *diags = v.find("diagnostics");
    ASSERT_NE(diags, nullptr);
    ASSERT_FALSE(diags->array.empty());
    EXPECT_EQ(diags->array[0].getString("component"), "server");
    EXPECT_EQ(diags->array[0].getString("key"), "request");

    // An invalid configuration fails its own request (422)...
    ASSERT_TRUE(conn.writeAll(
        "{\"config\": \"/nonexistent/mcpat.xml\"}\n"));
    ASSERT_TRUE(conn.readLine(reply));
    ASSERT_TRUE(common::jsonParse(reply, v, &error)) << error;
    EXPECT_EQ(v.getNumber("status"), 422.0);
    EXPECT_FALSE(v.getBool("ok", true));

    // ...and the same connection still serves good requests after.
    ASSERT_TRUE(conn.writeAll("{\"cmd\": \"ping\"}\n"));
    ASSERT_TRUE(conn.readLine(reply));
    ASSERT_TRUE(common::jsonParse(reply, v, &error)) << error;
    EXPECT_EQ(v.getNumber("status"), 200.0);
    EXPECT_GE(ts.server.stats().malformed, 1u);
}

TEST(Server, InlineXmlRequestAndManifest)
{
    const std::string path = fs::absolute(findConfig("niagara.xml")).string();
    std::ifstream in(path);
    std::stringstream ss;
    ss << in.rdbuf();

    TestServer ts(2);
    const std::string request = "{\"config_xml\": \"" +
        jsonEscapeString(ss.str()) + "\", \"manifest\": true}";
    common::JsonValue v = rpc(ts.ep, request);
    EXPECT_EQ(v.getNumber("status"), 200.0);
    const std::string manifest = v.getString("manifest");
    ASSERT_FALSE(manifest.empty());
    std::string error;
    common::JsonValue m;
    ASSERT_TRUE(common::jsonParse(manifest, m, &error)) << error;
    EXPECT_EQ(m.getString("schema"), "mcpat-eval-manifest-v1");
    EXPECT_EQ(m.getString("config"), "<inline>");
}

TEST(Server, RequestWithoutConfigIsA400)
{
    TestServer ts(1);
    common::JsonValue v = rpc(ts.ep, "{\"strict\": true}");
    EXPECT_EQ(v.getNumber("status"), 400.0);
    EXPECT_NE(v.getString("error").find("config"), std::string::npos);
}

TEST(Server, ResultCacheRepeatsVerbatimAndInvalidatesOnEdit)
{
    // Work on a copy of a shipped config so the file can be edited
    // mid-test to prove content-checksum invalidation.
    const std::string copy =
        (fs::temp_directory_path() /
         ("mcpat_rc_" + std::to_string(::getpid()) + ".xml"))
            .string();
    fs::copy_file(fs::absolute(findConfig("niagara.xml")).string(), copy,
                  fs::copy_options::overwrite_existing);

    TestServer ts(2);
    const std::string req =
        "{\"config\": \"" + jsonEscapeString(copy) + "\"}";

    common::JsonValue first = rpc(ts.ep, req);
    ASSERT_EQ(first.getNumber("status"), 200.0);
    EXPECT_FALSE(first.getBool("cached"));

    common::JsonValue second = rpc(ts.ep, req);
    ASSERT_EQ(second.getNumber("status"), 200.0);
    EXPECT_TRUE(second.getBool("cached"));
    // Verbatim: the cached artifact is byte-identical.
    EXPECT_EQ(second.getString("report"), first.getString("report"));
    EXPECT_GE(ts.server.stats().resultHits, 1u);

    // Any byte change to the file invalidates its entries, even one
    // that does not change the model.
    {
        std::ofstream out(copy, std::ios::app);
        out << "\n";
    }
    common::JsonValue third = rpc(ts.ep, req);
    ASSERT_EQ(third.getNumber("status"), 200.0);
    EXPECT_FALSE(third.getBool("cached"));
    EXPECT_EQ(third.getString("report"), first.getString("report"));

    fs::remove(copy);
}

TEST(Server, BlownDeadlineIsA504AndTheServerKeepsServing)
{
    const std::string config = fs::absolute(findConfig("niagara.xml")).string();
    TestServer ts(2);

    // A request-side budget that has already elapsed by the first
    // cancellation checkpoint: the reply must be a structured 504 —
    // not a dropped connection, not a dead worker.
    const std::string request = "{\"config\": \"" +
        jsonEscapeString(config) + "\", \"timeout_ms\": 0.000001}";
    common::JsonValue v = rpc(ts.ep, request);
    EXPECT_EQ(v.getNumber("status"), 504.0);
    EXPECT_FALSE(v.getBool("ok", true));
    EXPECT_TRUE(v.getBool("timed_out"));
    EXPECT_NE(v.getString("error").find("deadline"), std::string::npos);

    // The same server still answers full evaluations afterwards.
    common::JsonValue good = rpc(ts.ep,
        "{\"config\": \"" + jsonEscapeString(config) + "\"}");
    EXPECT_EQ(good.getNumber("status"), 200.0);

    const study::ServerStats stats = ts.server.stats();
    EXPECT_GE(stats.timeouts, 1u);
    EXPECT_EQ(stats.failed, 0u);  // timeouts are counted separately
}

TEST(Server, ServerDefaultTimeoutTightenedByRequest)
{
    // Server-wide budget small: an untagged request times out; a
    // request cannot *loosen* the server's policy with a larger value.
    const std::string config = fs::absolute(findConfig("niagara.xml")).string();
    TestServer ts(1, 32, false, /*eval_timeout_ms=*/0.000001);

    common::JsonValue v = rpc(ts.ep,
        "{\"config\": \"" + jsonEscapeString(config) + "\"}");
    EXPECT_EQ(v.getNumber("status"), 504.0);

    common::JsonValue loosened = rpc(ts.ep,
        "{\"config\": \"" + jsonEscapeString(config) +
        "\", \"timeout_ms\": 600000}");
    EXPECT_EQ(loosened.getNumber("status"), 504.0);
}

TEST(Server, HealthReportsLivenessCounters)
{
    TestServer ts(2);
    common::JsonValue v = rpc(ts.ep, "{\"cmd\": \"health\"}");
    EXPECT_EQ(v.getNumber("status"), 200.0);
    EXPECT_TRUE(v.getBool("ok"));
    const common::JsonValue *h = v.find("health");
    ASSERT_NE(h, nullptr);
    EXPECT_EQ(h->getNumber("workers"), 2.0);
    EXPECT_EQ(h->getNumber("queue_depth"), 0.0);
    // The health request itself is in flight while being answered.
    EXPECT_GE(h->getNumber("inflight"), 1.0);
    EXPECT_GE(h->getNumber("oldest_request_ms"), 0.0);
    EXPECT_GE(h->getNumber("uptime_ms"), 0.0);
    ASSERT_NE(h->find("timeouts"), nullptr);
    ASSERT_NE(h->find("eval_timeout_ms"), nullptr);
}

TEST(Server, LatencyBlockAbsentWhenInstrumentationDisabled)
{
    // Replies must stay byte-compatible with the pre-histogram server
    // when the master switch is off, even after requests were served.
    instr::setEnabled(false);
    TestServer ts(1);
    rpc(ts.ep, "{\"cmd\": \"ping\"}");
    common::JsonValue health = rpc(ts.ep, "{\"cmd\": \"health\"}");
    const common::JsonValue *h = health.find("health");
    ASSERT_NE(h, nullptr);
    EXPECT_EQ(h->find("latency_ms"), nullptr);
    common::JsonValue stats = rpc(ts.ep, "{\"cmd\": \"stats\"}");
    const common::JsonValue *s = stats.find("stats");
    ASSERT_NE(s, nullptr);
    EXPECT_EQ(s->find("latency_ms"), nullptr);
}

TEST(Server, LatencyPercentilesAppearWhenEnabled)
{
    instr::setEnabled(true);
    instr::Registry::instance().reset();
    {
        TestServer ts(2);
        // Warm the histogram with a few served requests.
        for (int i = 0; i < 4; ++i)
            rpc(ts.ep, "{\"cmd\": \"ping\"}");

        common::JsonValue health = rpc(ts.ep, "{\"cmd\": \"health\"}");
        const common::JsonValue *h = health.find("health");
        ASSERT_NE(h, nullptr);
        const common::JsonValue *lat = h->find("latency_ms");
        ASSERT_NE(lat, nullptr);
        EXPECT_GE(lat->getNumber("count"), 4.0);
        for (const char *q : {"p50", "p95", "p99"}) {
            const double v = lat->getNumber(q, -1.0);
            EXPECT_GE(v, 0.0) << q;
            EXPECT_TRUE(std::isfinite(v)) << q;
        }
        // Percentiles are ordered.
        EXPECT_LE(lat->getNumber("p50"), lat->getNumber("p95"));
        EXPECT_LE(lat->getNumber("p95"), lat->getNumber("p99"));

        common::JsonValue stats = rpc(ts.ep, "{\"cmd\": \"stats\"}");
        const common::JsonValue *s = stats.find("stats");
        ASSERT_NE(s, nullptr);
        EXPECT_NE(s->find("latency_ms"), nullptr);
    }
    instr::setEnabled(false);
    instr::Registry::instance().reset();
}

TEST(Server, TcpPortZeroAutoAssigns)
{
    study::ServerOptions opts;
    opts.endpoint = "0";  // any free loopback port
    opts.workers = 1;
    std::ostringstream log;
    study::EvalServer server;
    std::string error;
    ASSERT_TRUE(server.start(opts, log, &error)) << error;
    ASSERT_GT(server.boundPort(), 0);

    net::Endpoint ep;
    ep.isUnix = false;
    ep.port = server.boundPort();
    common::JsonValue v = rpc(ep, "{\"cmd\": \"ping\"}");
    EXPECT_EQ(v.getNumber("status"), 200.0);
    server.stop();
}
