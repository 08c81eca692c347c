/**
 * @file
 * Remaining-path tests: the human-readable report printer, the torus
 * fabric, end-to-end chips at interpolated technology nodes, the
 * case-study work parameter, and the shared JSON/CSV output rules.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cfloat>
#include <cstring>
#include <iomanip>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "chip/processor.hh"
#include "chip/report_printer.hh"
#include "chip/report_writer.hh"
#include "common/diagnostics.hh"
#include "common/json_value.hh"
#include "study/sweep.hh"
#include "uncore/noc.hh"

using namespace mcpat;

TEST(ReportPrinter, FormatsHierarchy)
{
    Report r;
    r.name = "Chip";
    r.area = 100.0 * mm2;
    r.peakDynamic = 50.0;
    Report child;
    child.name = "Core";
    child.area = 10.0 * mm2;
    child.criticalPath = 0.5 * ns;
    r.addChild(std::move(child));

    std::ostringstream os;
    chip::printReport(os, r, 3);
    const std::string s = os.str();
    EXPECT_NE(s.find("Chip:"), std::string::npos);
    EXPECT_NE(s.find("  Core:"), std::string::npos);
    EXPECT_NE(s.find("Area = 110.0000 mm^2"), std::string::npos);
    EXPECT_NE(s.find("Peak Dynamic = 50.0000 W"), std::string::npos);
    EXPECT_NE(s.find("Critical Path = 0.5000 ns"), std::string::npos);
}

TEST(ReportPrinter, DepthLimitsChildren)
{
    Report r;
    r.name = "Top";
    Report mid;
    mid.name = "Mid";
    Report leaf;
    leaf.name = "Leaf";
    mid.addChild(std::move(leaf));
    r.addChild(std::move(mid));

    std::ostringstream shallow;
    chip::printReport(shallow, r, 0);
    EXPECT_EQ(shallow.str().find("Mid:"), std::string::npos);

    std::ostringstream deep;
    chip::printReport(deep, r, 2);
    EXPECT_NE(deep.str().find("Leaf:"), std::string::npos);
}

TEST(ReportPrinter, RestoresStreamState)
{
    std::ostringstream os;
    os << std::setprecision(3);
    Report r;
    r.name = "x";
    chip::printReport(os, r, 0);
    os << 1.23456789;
    EXPECT_NE(os.str().find("1.23"), std::string::npos);
    EXPECT_EQ(os.str().find("1.234567"), std::string::npos);
}

TEST(Torus, FewerHopsMoreLinksThanMesh)
{
    const tech::Technology t(45);
    uncore::NocParams mesh;
    mesh.nodesX = mesh.nodesY = 4;
    uncore::NocParams torus = mesh;
    torus.topology = uncore::NocTopology::Torus2D;
    const uncore::Noc nm(mesh, t);
    const uncore::Noc nt(torus, t);
    EXPECT_LT(nt.averageHops(), nm.averageHops());
    // Wraparound channels cost area.
    EXPECT_GT(nt.area(), nm.area());
}

TEST(Torus, ReportPhysical)
{
    const tech::Technology t(45);
    uncore::NocParams p;
    p.topology = uncore::NocTopology::Torus2D;
    p.nodesX = p.nodesY = 4;
    const uncore::Noc n(p, t);
    const Report r = n.makeReport(2.0, 1.0);
    EXPECT_GT(r.peakDynamic, 0.0);
    EXPECT_GT(r.subthresholdLeakage, 0.0);
}

TEST(InterpolatedNode, FullChipAt28nm)
{
    chip::SystemParams sys;
    sys.nodeNm = 28;
    sys.numCores = 4;
    sys.numL2 = 1;
    sys.l2.capacityBytes = 2.0 * 1024 * 1024;
    const chip::Processor p(sys);
    EXPECT_GT(p.tdp(), 0.0);

    // A 28 nm chip must land between its 32 and 22 nm brackets.
    chip::SystemParams sys32 = sys;
    sys32.nodeNm = 32;
    chip::SystemParams sys22 = sys;
    sys22.nodeNm = 22;
    const chip::Processor p32(sys32);
    const chip::Processor p22(sys22);
    EXPECT_LT(p.area(), p32.area());
    EXPECT_GT(p.area(), p22.area());
}

TEST(CaseStudy, WorkParameterScalesDelayNotPower)
{
    study::CaseStudyConfig cfg;
    cfg.totalCores = 16;
    const auto r1 = study::evaluateDesignPoint(cfg, 1.0e12);
    const auto r2 = study::evaluateDesignPoint(cfg, 2.0e12);
    // Twice the work: twice the delay and energy, 4x ED, same power.
    EXPECT_NEAR(r2.workloads[0].figures.delay,
                2.0 * r1.workloads[0].figures.delay,
                r1.workloads[0].figures.delay * 1e-9);
    EXPECT_NEAR(r2.meanMetrics.ed / r1.meanMetrics.ed, 4.0, 1e-6);
    EXPECT_NEAR(r2.meanPower, r1.meanPower, r1.meanPower * 1e-9);
}

// ---------------------------------------------------------------------
// Non-finite metric serialization: the JSON writer and the CSV writer
// must agree on the same degenerate model — JSON emits null (and flips
// the root "valid" flag), CSV emits an empty field.  Raw "nan"/"inf"
// text (what operator<< produces) must appear in neither.
// ---------------------------------------------------------------------

namespace {

Report
degenerateReport()
{
    Report chip;
    chip.name = "degenerate";
    chip.area = 1e-6;
    chip.peakDynamic = std::numeric_limits<double>::quiet_NaN();
    chip.runtimeDynamic = std::numeric_limits<double>::infinity();
    chip.subthresholdLeakage = 0.5;
    chip.gateLeakage = 0.1;
    chip.criticalPath = 1e-9;
    Report child;
    child.name = "unit";
    child.area = -std::numeric_limits<double>::infinity();
    child.peakDynamic = 2.0;
    chip.children.push_back(child);
    return chip;
}

} // namespace

TEST(NonFiniteSerialization, JsonWritesNullAndInvalidFlag)
{
    const Report r = degenerateReport();
    std::ostringstream os;
    chip::writeReportJson(os, r);
    const std::string json = os.str();
    EXPECT_NE(json.find("\"peak_dynamic_w\": null"), std::string::npos)
        << json;
    EXPECT_NE(json.find("\"valid\": false"), std::string::npos);
    EXPECT_EQ(json.find("nan"), std::string::npos);
    EXPECT_EQ(json.find("inf"), std::string::npos);
}

TEST(NonFiniteSerialization, CsvWritesEmptyFieldsOnSameModel)
{
    const Report r = degenerateReport();
    std::ostringstream os;
    chip::writeReportCsv(os, r);
    const std::string csv = os.str();
    // No raw non-finite text anywhere in the document.
    EXPECT_EQ(csv.find("nan"), std::string::npos) << csv;
    EXPECT_EQ(csv.find("inf"), std::string::npos) << csv;
    // The degenerate chip row: peak (NaN) and runtime (inf) fields are
    // empty but the row keeps its shape (same column count).
    std::istringstream lines(csv);
    std::string header, chip_row;
    std::getline(lines, header);
    std::getline(lines, chip_row);
    EXPECT_EQ(std::count(chip_row.begin(), chip_row.end(), ','),
              std::count(header.begin(), header.end(), ','));
    EXPECT_NE(chip_row.find(",,"), std::string::npos) << chip_row;
}

TEST(NonFiniteSerialization, CsvNumberHelper)
{
    std::ostringstream os;
    chip::writeCsvNumber(os, 1.5);
    os << '|';
    chip::writeCsvNumber(os, std::numeric_limits<double>::quiet_NaN());
    os << '|';
    chip::writeCsvNumber(os, std::numeric_limits<double>::infinity());
    os << '|';
    chip::writeCsvNumber(os, -std::numeric_limits<double>::infinity());
    EXPECT_EQ(os.str(), "1.5|||");
}

// ---------------------------------------------------------------------
// Output rules (common/diagnostics.hh): the JSON escaper and the two
// JSON number forms.
// ---------------------------------------------------------------------

TEST(OutputRules, WriterCorpusRoundTrips)
{
    common::JsonValue v;
    std::string error;

    // Every byte value, alone and inside text, plus multi-byte UTF-8,
    // escapes to a string jsonParse reads back as the original bytes.
    std::vector<std::string> strings = {
        "", "caf\xc3\xa9 \xe2\x82\xac \xf0\x9f\x98\x80"};
    for (int b = 0; b < 256; ++b) {
        const std::string byte(1, static_cast<char>(b));
        strings.push_back(byte);
        strings.push_back("a" + byte + "z");
    }
    for (const std::string &s : strings) {
        const std::string doc = "\"" + jsonEscapeString(s) + "\"";
        ASSERT_TRUE(common::jsonParse(doc, v, &error)) << error;
        EXPECT_EQ(v.str, s) << doc;
    }

    // Round-trip numbers parse back bit-identically, including where
    // %g switches between fixed and scientific notation.
    for (const double d :
         {0.0, -0.0, std::numeric_limits<double>::denorm_min(),
          -std::numeric_limits<double>::denorm_min(), DBL_MIN, DBL_MAX,
          -DBL_MAX, 0.1, 1e-5, 1e-4, 9.9999999999999991e-5, 1e16, 1e17,
          1.0 / 3.0, 123456789.125}) {
        const std::string text = jsonRoundTrip(d);
        ASSERT_TRUE(common::jsonParse(text, v, &error))
            << text << ": " << error;
        ASSERT_TRUE(v.isNumber()) << text;
        EXPECT_EQ(std::memcmp(&v.number, &d, sizeof d), 0) << text;
    }

    // Non-finite values: JSON null from both number forms; the stream
    // form also reports the value invalid.  (CSV: CsvNumberHelper.)
    for (const double bad : {std::numeric_limits<double>::quiet_NaN(),
                             std::numeric_limits<double>::infinity(),
                             -std::numeric_limits<double>::infinity()}) {
        EXPECT_EQ(jsonRoundTrip(bad), "null");
        std::ostringstream json;
        EXPECT_FALSE(writeJsonNumber(json, bad));
        EXPECT_EQ(json.str(), "null");
    }
    std::ostringstream finite;
    EXPECT_TRUE(writeJsonNumber(finite, 1.5));
    EXPECT_EQ(finite.str(), "1.5");
}
