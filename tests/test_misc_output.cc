/**
 * @file
 * Remaining-path tests: the human-readable report printer, the torus
 * fabric, end-to-end chips at interpolated technology nodes, the
 * case-study work parameter, the shared JSON/CSV output rules, and the
 * report writers against their stream-based reference.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cfloat>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <iomanip>
#include <limits>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "chip/processor.hh"
#include "chip/report_printer.hh"
#include "chip/report_writer.hh"
#include "common/diagnostics.hh"
#include "common/json_value.hh"
#include "study/eval_core.hh"
#include "study/sweep.hh"
#include "test_inputs.hh"
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

// ---------------------------------------------------------------------
// The appenders against the stream forms they replaced: appendNumber
// must print what `ostream << setprecision(p) << v` prints, and
// appendJsonEscaped what the byte-at-a-time escaper produced.
// ---------------------------------------------------------------------

namespace {

std::string
streamNumber(double v, int precision)
{
    std::ostringstream os;
    os << std::setprecision(precision) << v;
    return os.str();
}

std::string
appendedNumber(double v, int precision)
{
    std::string out = "x";  // appends, never overwrites
    appendNumber(out, v, precision);
    return out.substr(1);
}

/** A double from its bit pattern. */
double
fromBits(std::uint64_t bits)
{
    double d;
    std::memcpy(&d, &bits, sizeof d);
    return d;
}

} // namespace

TEST(OutputRules, NumberFormatMatchesStream)
{
    const double inf = std::numeric_limits<double>::infinity();
    const double denorm = std::numeric_limits<double>::denorm_min();
    std::vector<double> corpus = {
        0.0, -0.0, denorm, -denorm, DBL_MIN, -DBL_MIN, DBL_MAX, -DBL_MAX,
        // %g's fixed/scientific switch points at precisions 6 and 17.
        1e-5, 1e-4, 9.9999999999999991e-5, 0.0001, 999999.5, 999999.0,
        1e6, 1e16, 1e17, 99999999999999999.0, 1e15, 123456789012345678.0,
        // Values that round up across a decade.
        9.9999995, 9.99999949, 99999.95, 0.000099999995,
        9.9999999999999999e22, 0.99999999999999989, 9.5, 0.95,
        // Exact decimal ties (round half to even in both).
        0.125, 2.5, 0.5, 1.5, 1234565.0, 12345650.0,
        1.0 / 3.0, 2.0 / 3.0, 0.1, 0.2, 0.3, 1.0, 10.0, 100.0, 1e-300,
        1e300, 5e-324, 4.9406564584124654e-324, 2.2250738585072009e-308,
        inf, -inf, std::numeric_limits<double>::quiet_NaN(),
        -std::numeric_limits<double>::quiet_NaN()};
    std::mt19937_64 rng(0x5eed);
    for (int i = 0; i < 4000; ++i)
        corpus.push_back(fromBits(rng()));
    // Magnitudes the model prints: log-uniform over 1e-15 .. 1e15.
    std::uniform_real_distribution<double> exponent(-15.0, 15.0);
    for (int i = 0; i < 2000; ++i)
        corpus.push_back((i % 2 ? -1.0 : 1.0) *
                         std::pow(10.0, exponent(rng)));

    // 6 and 17 are the two precisions the writers use; the others
    // cover %g's precision-0 rule and the wide-precision path.
    for (const int precision : {6, 17, 0, 1, 4, 48, 60}) {
        for (const double v : corpus) {
            ASSERT_EQ(appendedNumber(v, precision),
                      streamNumber(v, precision))
                << "precision " << precision << ", value "
                << std::hexfloat << v;
        }
    }
    // A stream treats a negative precision as 6.
    EXPECT_EQ(appendedNumber(1.0 / 3.0, -1), streamNumber(1.0 / 3.0, 6));

    // The JSON and CSV stream wrappers print at the stream's precision.
    for (const int precision : {3, 6, 17}) {
        std::ostringstream json, csv, ref;
        json << std::setprecision(precision);
        csv << std::setprecision(precision);
        EXPECT_TRUE(writeJsonNumber(json, 2.0 / 3.0));
        chip::writeCsvNumber(csv, 2.0 / 3.0);
        ref << std::setprecision(precision) << 2.0 / 3.0;
        EXPECT_EQ(json.str(), ref.str());
        EXPECT_EQ(csv.str(), ref.str());
    }
    EXPECT_EQ(jsonRoundTrip(0.1), streamNumber(0.1, 17));
}

namespace {

/** The JSON escaper as it was written before appendJsonEscaped: one
 *  byte at a time. */
std::string
bytewiseJsonEscape(const std::string &s)
{
    std::string out;
    for (char c : s) {
        switch (c) {
          case '"':
            out += "\\\"";
            break;
          case '\\':
            out += "\\\\";
            break;
          case '\n':
            out += "\\n";
            break;
          case '\t':
            out += "\\t";
            break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out;
}

/** The CSV field rule as it was written before appendCsvField. */
std::string
referenceCsvField(const std::string &s)
{
    if (s.find_first_of(",\"\n\r") == std::string::npos)
        return s;
    std::string out = "\"";
    for (char c : s) {
        if (c == '"')
            out += "\"\"";
        else
            out += c;
    }
    return out + "\"";
}

} // namespace

TEST(OutputRules, EscaperMatchesBytewiseReference)
{
    std::vector<std::string> inputs = {"", "plain text, no escapes"};
    std::string every_byte;
    for (int b = 0; b < 256; ++b) {
        const std::string byte(1, static_cast<char>(b));
        every_byte += byte;
        inputs.push_back(byte);
        inputs.push_back(byte + byte + byte);
        inputs.push_back("ab" + byte + "cd");
        inputs.push_back(byte + "run of safe bytes" + byte);
        // At every offset of a word-sized scan, and after a word of
        // bytes at or above 0x80 (which sets every high bit).
        for (std::size_t at = 0; at <= 16; ++at) {
            std::string text(24, 'a');
            text[at] = static_cast<char>(b);
            inputs.push_back(text);
            inputs.push_back(std::string(8, '\xff') + text);
        }
    }
    inputs.push_back(every_byte);
    inputs.push_back(every_byte + every_byte);
    for (const std::string &s : inputs) {
        const std::string expected = bytewiseJsonEscape(s);
        EXPECT_EQ(jsonEscapeString(s), expected);
        std::string appended = "prefix:";
        appendJsonEscaped(appended, s);
        EXPECT_EQ(appended, "prefix:" + expected);

        const std::string csv = referenceCsvField(s);
        EXPECT_EQ(csvEscapeField(s), csv);
        std::string cell = "prefix:";
        appendCsvField(cell, s);
        EXPECT_EQ(cell, "prefix:" + csv);
    }
}

// ---------------------------------------------------------------------
// The report writers against the ostream renderer they replaced, kept
// here as the reference: every byte of JSON and CSV must match.
// ---------------------------------------------------------------------

namespace {

void
referenceJsonNumber(std::ostream &os, double v)
{
    if (std::isfinite(v))
        os << v;
    else
        os << "null";
}

bool
referenceAllFinite(const Report &r)
{
    for (const double v :
         {r.area, r.peakDynamic, r.runtimeDynamic, r.subthresholdLeakage,
          r.runtimeSubLeak(), r.gateLeakage, r.criticalPath})
        if (!std::isfinite(v))
            return false;
    for (const auto &c : r.children)
        if (!referenceAllFinite(c))
            return false;
    return true;
}

void
referenceJsonNode(std::ostream &os, const Report &r, int indent,
                  const bool *root_valid, const std::string *instr)
{
    const std::string pad(indent, ' ');
    os << pad << "{\n";
    if (root_valid)
        os << pad << "  \"valid\": " << (*root_valid ? "true" : "false")
           << ",\n";
    if (instr && !instr->empty())
        os << pad << "  \"instrumentation\":\n" << *instr << ",\n";
    os << pad << "  \"name\": \"" << bytewiseJsonEscape(r.name)
       << "\",\n";
    const std::pair<const char *, double> members[] = {
        {"area_mm2", r.area / mm2},
        {"peak_dynamic_w", r.peakDynamic},
        {"runtime_dynamic_w", r.runtimeDynamic},
        {"subthreshold_leakage_w", r.subthresholdLeakage},
        {"runtime_subthreshold_leakage_w", r.runtimeSubLeak()},
        {"gate_leakage_w", r.gateLeakage},
        {"critical_path_ns", r.criticalPath / ns}};
    for (const auto &[name, v] : members) {
        os << pad << "  \"" << name << "\": ";
        referenceJsonNumber(os, v);
        os << ",\n";
    }
    os << pad << "  \"children\": [";
    if (r.children.empty()) {
        os << "]\n";
    } else {
        os << "\n";
        for (std::size_t i = 0; i < r.children.size(); ++i) {
            referenceJsonNode(os, r.children[i], indent + 4, nullptr,
                              nullptr);
            os << (i + 1 < r.children.size() ? ",\n" : "\n");
        }
        os << pad << "  ]\n";
    }
    os << pad << "}";
}

std::string
referenceJson(const Report &r, const std::string *instr = nullptr)
{
    std::ostringstream os;
    os << std::setprecision(17);
    const bool valid = referenceAllFinite(r);
    referenceJsonNode(os, r, 0, &valid, instr);
    os << "\n";
    return os.str();
}

void
referenceCsvNode(std::ostream &os, const Report &r,
                 const std::string &path)
{
    const std::string full = path.empty() ? r.name : path + "/" + r.name;
    os << referenceCsvField(full);
    for (const double v :
         {r.area / mm2, r.peakDynamic, r.runtimeDynamic,
          r.subthresholdLeakage, r.runtimeSubLeak(), r.gateLeakage,
          r.criticalPath / ns}) {
        os << ',';
        if (std::isfinite(v))
            os << v;
    }
    os << '\n';
    for (const auto &c : r.children)
        referenceCsvNode(os, c, full);
}

std::string
referenceCsv(const Report &r)
{
    std::ostringstream os;
    os << std::setprecision(17)
       << "path,area_mm2,peak_dynamic_w,runtime_dynamic_w,"
          "subthreshold_leakage_w,runtime_subthreshold_leakage_w,"
          "gate_leakage_w,critical_path_ns\n";
    referenceCsvNode(os, r, "");
    return os.str();
}

/** Both renderers and both stream entry points agree on @p r. */
void
expectMatchesReference(const Report &r, const std::string &what)
{
    SCOPED_TRACE(what);
    const std::string json = referenceJson(r);
    const std::string csv = referenceCsv(r);
    EXPECT_EQ(chip::renderReportJson(r), json);
    EXPECT_EQ(chip::renderReportCsv(r), csv);
    std::ostringstream js, cs;
    chip::writeReportJson(js, r);
    chip::writeReportCsv(cs, r);
    EXPECT_EQ(js.str(), json);
    EXPECT_EQ(cs.str(), csv);
    const std::string instr = "  {\"schema\": \"x\"}";
    EXPECT_EQ(chip::renderReportJson(r, &instr), referenceJson(r, &instr));
}

} // namespace

TEST(ReportWriter, MatchesStreamReference)
{
    for (const char *name : kShippedConfigs) {
        study::EvalRequest req;
        req.configPath = findConfig(name);
        req.wantReportCsv = true;
        const study::EvalResult result = study::evaluate(req);
        ASSERT_TRUE(result.ok) << name << ": " << result.error;
        expectMatchesReference(result.report, name);
        EXPECT_EQ(result.reportJson, referenceJson(result.report)) << name;
        EXPECT_EQ(result.reportCsv, referenceCsv(result.report)) << name;
    }

    // The configurations RandomConfigTest builds, seed by seed.
    for (const unsigned seed : kRandomConfigSeeds) {
        ConfigGen gen(seed);
        for (int i = 0; i < 4; ++i) {
            const chip::Processor proc(gen.next());
            expectMatchesReference(proc.tdpReport(),
                                   "seed " + std::to_string(seed) +
                                       " cfg " + std::to_string(i));
        }
    }

    // Non-finite metrics, and names that need JSON and CSV quoting.
    Report odd = degenerateReport();
    odd.name = "quote \" back\\slash, comma\nnewline \x01 tab\t";
    Report grandchild;
    grandchild.name = "";
    grandchild.area = -0.0;
    grandchild.runtimeDynamic = -std::numeric_limits<double>::infinity();
    grandchild.gateLeakage = std::numeric_limits<double>::denorm_min();
    grandchild.criticalPath = DBL_MAX;
    odd.children.front().children.push_back(grandchild);
    expectMatchesReference(odd, "non-finite");
}
