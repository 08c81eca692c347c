/**
 * @file
 * The benchmark's own tests: the generator is a pure function of the
 * seed, every vacuity guard trips on the wrong program state, and the
 * metric catalogue matches BENCHMARK.json.  Run from the repository
 * root (ctest sets the working directory), e.g.
 *
 *   python3 perfbench/run.py --test
 */

#include <unistd.h>

#include <filesystem>
#include <set>
#include <sstream>

#include <gtest/gtest.h>

#include "common/json_value.hh"
#include "common/net.hh"
#include "gen.hh"
#include "study/server.hh"
#include "workloads.hh"

namespace fs = std::filesystem;
using namespace perfbench;
using mcpat::common::JsonValue;

namespace {

/** A scratch directory under the working directory, removed on exit. */
class ScratchDir
{
  public:
    explicit ScratchDir(const std::string &tag)
        : _path(".bench_run/test-" + tag + "-" + std::to_string(getpid()))
    {
        fs::remove_all(_path);
        fs::create_directories(_path);
    }
    ~ScratchDir()
    {
        std::error_code ec;
        fs::remove_all(_path, ec);
        fs::remove(".bench_run", ec);
    }
    ScratchDir(const ScratchDir &) = delete;
    ScratchDir &operator=(const ScratchDir &) = delete;
    const std::string &path() const { return _path; }

  private:
    std::string _path;
};

Counters
evalDelta(const std::string &xml)
{
    const Counters before = readCounters();
    mcpat::study::EvalRequest req;
    req.configXml = xml;
    const auto result = mcpat::study::evaluate(req);
    EXPECT_TRUE(result.ok) << result.error;
    return readCounters() - before;
}

std::string
firstChip()
{
    return chipSet(3, 1).front().xml;
}

} // namespace

TEST(Generator, ChipSetIsAPureFunctionOfTheSeed)
{
    const auto a = chipSet(11, 2);
    const auto b = chipSet(11, 2);
    ASSERT_EQ(a.size(), 2 * baseConfigNames().size());
    ASSERT_EQ(a.size(), b.size());
    std::set<std::string> distinct;
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].xml, b[i].xml);
        EXPECT_EQ(validationError(a[i].xml), "") << a[i].name;
        distinct.insert(a[i].xml);
    }
    EXPECT_EQ(distinct.size(), a.size());

    bool differs = false;
    const auto c = chipSet(12, 2);
    for (std::size_t i = 0; i < a.size(); ++i)
        differs |= a[i].xml != c[i].xml;
    EXPECT_TRUE(differs);
}

TEST(Generator, StatIntervalsSweepSpacesAndOrdersRepeat)
{
    const auto chip = mcpat::config::parseXmlString(firstChip());
    Rng r1(5), r2(5);
    const std::string x1 = writeXml(withStatInterval(chip, r1));
    EXPECT_EQ(x1, writeXml(withStatInterval(chip, r2)));
    EXPECT_NE(x1, writeXml(withStatInterval(chip, r1)));  // next interval
    EXPECT_EQ(validationError(x1), "");
    EXPECT_NE(x1.find("total_cycles"), std::string::npos);

    const auto s1 = sweepSpace(9), s2 = sweepSpace(9);
    EXPECT_EQ(s1.clockRates, s2.clockRates);
    EXPECT_EQ(s1.size(), mcpat::study::SweepSpace::reference().size());
    EXPECT_NE(s1.clockRates, sweepSpace(10).clockRates);

    const auto o = seededOrder(4, 24);
    EXPECT_EQ(o, seededOrder(4, 24));
    EXPECT_EQ(std::set<std::size_t>(o.begin(), o.end()).size(), 24u);
}

TEST(Generator, SweepSpacesKeepTheReferenceSearchPath)
{
    setProgramState(1, "");
    clearInProcessTiers();
    const auto ref = mcpat::study::runSweepSearch(
        mcpat::study::SweepSpace::reference(), {});
    for (std::uint64_t seed : {1, 2, 3}) {
        clearInProcessTiers();
        const auto r = mcpat::study::runSweepSearch(sweepSpace(seed), {});
        EXPECT_EQ(r.fullEvaluations, ref.fullEvaluations) << seed;
        EXPECT_EQ(r.rounds, ref.rounds) << seed;
    }
}

TEST(Generator, RejectsInvalidConfigs)
{
    EXPECT_NE(validationError("<component id=\"x\" type=\"System\"/>"), "");
    EXPECT_NE(validationError("not xml"), "");
}

TEST(Checks, ReportsMustBeValidFiniteAndRepeatable)
{
    EXPECT_NE(checkReportJson(""), "");
    EXPECT_NE(checkReportJson("{\"valid\": false, \"area_mm2\": 1, "
                              "\"peak_dynamic_w\": 1}"),
              "");
    EXPECT_NE(checkReportJson("{\"valid\": true, \"area_mm2\": null, "
                              "\"peak_dynamic_w\": 1}"),
              "");
    EXPECT_EQ(checkReportJson("{\"valid\": true, \"area_mm2\": 2, "
                              "\"peak_dynamic_w\": 3}"),
              "");

    setProgramState(1, "");
    mcpat::study::EvalRequest req;
    req.configXml = firstChip();
    mcpat::study::EvalResult e = mcpat::study::evaluate(req);
    ReportBook book;
    EXPECT_EQ(book.check(0, e), "");
    EXPECT_EQ(book.check(0, e), "");
    e.reportJson += " ";
    EXPECT_NE(book.check(0, e), "");  // not byte-identical
}

TEST(Checks, ReplyHeadEndsBeforeTheReport)
{
    JsonValue head;
    EXPECT_EQ(parseReplyHead(
                  "{\"status\": 200, \"cached\": false, \"area_mm2\": 1, "
                  "\"peak_w\": 2, \"runtime_w\": 3, \"timing_ms\": "
                  "{\"wall\": 4}, \"report\": \"{\\\"report\\\": 1}\"}",
                  head),
              "");
    EXPECT_EQ(head.find("report"), nullptr);
    EXPECT_EQ(head.find("timing_ms")->getNumber("wall"), 4.0);
    EXPECT_EQ(guardServeReply(head), "");
    EXPECT_NE(parseReplyHead("{\"status\": 422, \"ok\": false}", head), "");
    ASSERT_EQ(parseReplyHead("{\"status\": 200, \"cached\": false, "
                             "\"area_mm2\": 1, \"peak_w\": null, "
                             "\"report\": \"{}\"}",
                             head),
              "");
    EXPECT_NE(guardServeReply(head), "");  // peak power not finite
}

TEST(Guards, ColdChipTripsOnAnUnclearedMemo)
{
    setProgramState(1, "");
    const std::string xml = firstChip();
    clearInProcessTiers();
    EXPECT_EQ(guardColdOp(evalDelta(xml)), "");
    // Same chip again without clearing: every component is a memo hit.
    EXPECT_NE(guardColdOp(evalDelta(xml)), "");
}

TEST(Guards, RuntimeServeTripsOnAReplayedRequest)
{
    setProgramState(1, "");
    ScratchDir dir("serve");
    const std::string endpoint = dir.path() + "/s.sock";
    std::ostringstream log;
    mcpat::study::EvalServer server;
    mcpat::study::ServerOptions so;
    so.endpoint = endpoint;
    so.workers = 1;
    std::string err;
    ASSERT_TRUE(server.start(so, log, &err)) << err;

    Rng rng(1);
    const std::string request = serveRequest(writeXml(withStatInterval(
        mcpat::config::parseXmlString(firstChip()), rng)));
    auto send = [&] {
        auto conn = mcpat::net::connectTo(
            mcpat::net::parseEndpoint(endpoint), &err);
        std::string line;
        EXPECT_TRUE(conn.valid() && conn.writeAll(request) &&
                    conn.readLine(line)) << err;
        JsonValue head;
        EXPECT_EQ(parseReplyHead(line, head), "");
        return head;
    };
    EXPECT_EQ(guardServeReply(send()), "");
    EXPECT_NE(guardServeReply(send()), "");  // identical request replayed
    server.stop();
}

TEST(Guards, DiskWarmTripsOnAnEmptyDiskDirectory)
{
    ScratchDir dir("disk");
    setProgramState(1, dir.path());
    const std::string xml = firstChip();
    clearInProcessTiers();
    EXPECT_NE(guardDiskOp(evalDelta(xml)), "");  // nothing on disk yet
    clearInProcessTiers();
    EXPECT_EQ(guardDiskOp(evalDelta(xml)), "");  // records written above
    setProgramState(1, "");
}

TEST(Spans, SelfTimeSubtractsDirectChildrenOnTheSameThread)
{
    using mcpat::instr::TraceEvent;
    const std::vector<TraceEvent> ev = {
        {"build.core", "", 1, 0, 100},
        {"array.optimize", "", 1, 10, 30},
        {"array.optimize", "", 1, 50, 20},
        {"build.l2", "", 2, 0, 40},  // another thread: not a child
    };
    const SpanStats s = analyzeSpans(ev);
    EXPECT_DOUBLE_EQ(s.self("build.core"), 50e-6);
    EXPECT_DOUBLE_EQ(s.total("array.optimize"), 50e-6);
    EXPECT_EQ(s.n("array.optimize"), 2u);
    EXPECT_DOUBLE_EQ(s.self("build.l2"), 40e-6);
}

TEST(Catalogue, MatchesBenchmarkJson)
{
    JsonValue doc;
    std::string err;
    ASSERT_TRUE(mcpat::common::jsonParse(readFile("BENCHMARK.json"), doc,
                                         &err)) << err;
    auto names = [&](const char *key) {
        std::vector<std::pair<std::string, std::string>> out;
        for (const JsonValue &m : doc.find(key)->array)
            out.emplace_back(m.getString("name"), m.getString("unit"));
        return out;
    };
    EXPECT_EQ(names("end_to_end"), endToEndMetrics());
    EXPECT_EQ(names("per_layer"), perLayerMetrics());
    std::set<std::string> workloads;
    for (const JsonValue &w : doc.find("workloads")->array)
        workloads.insert(w.getString("name"));
    EXPECT_EQ(workloads, (std::set<std::string>{"cold_chip", "sweep_search",
                                                "runtime_serve",
                                                "disk_warm"}));
}
