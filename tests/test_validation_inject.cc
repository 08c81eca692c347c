/**
 * @file
 * Fault-injection sweep over the shipped example configurations plus
 * regression tests for the strict-parsing / serialization fixes.
 *
 * The sweep mutates every <param> and <stat> of every shipped config
 * one field at a time — garbage token, trailing junk, out-of-range —
 * and asserts each mutant is rejected with a ValidationError whose
 * diagnostics name the component and key.  Deleting a field must
 * either load cleanly (optional, default applies) or produce the same
 * structured rejection (required / cross-field), never crash and never
 * silently alter the model.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <regex>
#include <sstream>
#include <string>
#include <vector>

#include "chip/report_writer.hh"
#include "common/diagnostics.hh"
#include "common/parallel.hh"
#include "common/strict_parse.hh"
#include "config/xml_loader.hh"
#include "study/batch.hh"

using namespace mcpat;

namespace {

std::string
findConfig(const std::string &name)
{
    for (const std::string prefix :
         {"configs/", "../configs/", "../../configs/"}) {
        std::ifstream f(prefix + name);
        if (f.good())
            return prefix + name;
    }
    throw ConfigError("cannot find configs/" + name);
}

std::string
slurpFile(const std::string &path)
{
    std::ifstream in(path);
    EXPECT_TRUE(in.good()) << path;
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

/** One mutable field occurrence in a config's text. */
struct FieldSite
{
    std::string key;
    bool isStat = false;
    std::size_t elemBegin = 0;  ///< offset of '<'
    std::size_t elemLen = 0;    ///< through "/>"
    std::size_t valueBegin = 0; ///< offset of the value text
    std::size_t valueLen = 0;
};

/** Locate every <param/> and <stat/> element in the document text. */
std::vector<FieldSite>
findFieldSites(const std::string &text)
{
    static const std::regex element(
        "<(param|stat)\\s+name=\"([^\"]*)\"\\s+value=\"([^\"]*)\"\\s*/>");
    std::vector<FieldSite> sites;
    for (auto it = std::sregex_iterator(text.begin(), text.end(),
                                        element);
         it != std::sregex_iterator(); ++it) {
        FieldSite s;
        s.key = (*it)[2].str();
        s.isStat = (*it)[1].str() == "stat";
        s.elemBegin = static_cast<std::size_t>(it->position(0));
        s.elemLen = static_cast<std::size_t>(it->length(0));
        s.valueBegin = static_cast<std::size_t>(it->position(3));
        s.valueLen = static_cast<std::size_t>(it->length(3));
        sites.push_back(s);
    }
    return sites;
}

/**
 * Full pipeline on a config text: load, cross-check, runtime stats.
 * Exactly what the CLI front end runs before building a Processor
 * (building one per mutant would make the sweep minutes long without
 * testing any additional validation).
 */
void
loadEverything(const std::string &text)
{
    const config::XmlNode root = config::parseXmlString(text);
    const config::LoadResult loaded = config::loadSystemParams(root);
    loaded.system.validate();
    (void)config::loadChipStats(root, loaded.system);
}

/** Expect a ValidationError whose diagnostics name @p key. */
void
expectLocatedRejection(const std::string &text, const std::string &key,
                       const std::string &what_mutation)
{
    try {
        loadEverything(text);
        FAIL() << what_mutation << " of '" << key
               << "' was silently accepted";
    } catch (const ValidationError &e) {
        bool names_key = false;
        for (const Diagnostic &d : e.diagnostics()) {
            if (d.severity != Severity::Error)
                continue;
            EXPECT_FALSE(d.component.empty())
                << key << ": diagnostic lacks a component";
            if (d.key == key)
                names_key = true;
        }
        EXPECT_TRUE(names_key)
            << what_mutation << " of '" << key
            << "' rejected without naming the key: " << e.what();
    } catch (const std::exception &e) {
        FAIL() << what_mutation << " of '" << key
               << "' raised a non-diagnostic exception: " << e.what();
    }
}

class FaultInjection : public ::testing::TestWithParam<const char *>
{};

} // namespace

/** Unmodified shipped configs must pass the whole pipeline silently. */
TEST_P(FaultInjection, PristineConfigLoadsWithoutDiagnostics)
{
    const std::string text = slurpFile(findConfig(GetParam()));
    const config::XmlNode root = config::parseXmlString(text);
    const config::LoadResult loaded = config::loadSystemParams(root);
    EXPECT_TRUE(loaded.diagnostics.empty()) << GetParam();
    const DiagnosticList cross = loaded.system.check();
    EXPECT_FALSE(cross.hasErrors()) << GetParam();
    (void)config::loadChipStats(root, loaded.system);
}

TEST_P(FaultInjection, GarbageTokenRejectedWithLocation)
{
    const std::string text = slurpFile(findConfig(GetParam()));
    for (const FieldSite &s : findFieldSites(text)) {
        std::string mutant = text;
        mutant.replace(s.valueBegin, s.valueLen, "@#garbage");
        expectLocatedRejection(mutant, s.key, "garbage token");
    }
}

TEST_P(FaultInjection, TrailingJunkRejectedWithLocation)
{
    const std::string text = slurpFile(findConfig(GetParam()));
    for (const FieldSite &s : findFieldSites(text)) {
        std::string mutant = text;
        mutant.insert(s.valueBegin + s.valueLen, "kb");
        expectLocatedRejection(mutant, s.key, "trailing junk");
    }
}

TEST_P(FaultInjection, OutOfRangeValueRejectedWithLocation)
{
    const std::string text = slurpFile(findConfig(GetParam()));
    for (const FieldSite &s : findFieldSites(text)) {
        std::string mutant = text;
        mutant.replace(s.valueBegin, s.valueLen, "-999999");
        expectLocatedRejection(mutant, s.key, "out-of-range value");
    }
}

/**
 * Removing a field entirely must either load cleanly (optional field,
 * default applies) or produce a structured rejection — never crash,
 * never a context-free exception.
 */
TEST_P(FaultInjection, RemovedFieldHandledGracefully)
{
    const std::string text = slurpFile(findConfig(GetParam()));
    for (const FieldSite &s : findFieldSites(text)) {
        std::string mutant = text;
        mutant.replace(s.elemBegin, s.elemLen, "");
        try {
            loadEverything(mutant);
        } catch (const ValidationError &e) {
            for (const Diagnostic &d : e.diagnostics()) {
                if (d.severity == Severity::Error) {
                    EXPECT_FALSE(d.component.empty())
                        << GetParam() << ": removing '" << s.key << "'";
                }
            }
        } catch (const std::exception &e) {
            FAIL() << GetParam() << ": removing '" << s.key
                   << "' raised a non-diagnostic exception: "
                   << e.what();
        }
    }
}

/** Required keys produce diagnostics that name them when absent. */
TEST(FaultInjectionRequired, MissingRequiredKeysAreNamed)
{
    const std::string text = slurpFile(findConfig("niagara.xml"));
    for (const char *key : {"technology_node", "core_count"}) {
        const auto sites = findFieldSites(text);
        for (const FieldSite &s : sites) {
            if (s.key != key)
                continue;
            std::string mutant = text;
            mutant.replace(s.elemBegin, s.elemLen, "");
            expectLocatedRejection(mutant, key, "removal");
        }
    }
    // clock_rate_mhz appears on Core and uncore components; removing
    // the Core one must name it.
    const std::string core_marker = "type=\"Core\"";
    const std::size_t core_at = text.find(core_marker);
    ASSERT_NE(core_at, std::string::npos);
    for (const FieldSite &s : findFieldSites(text)) {
        if (s.key != "clock_rate_mhz" || s.elemBegin < core_at)
            continue;
        std::string mutant = text;
        mutant.replace(s.elemBegin, s.elemLen, "");
        expectLocatedRejection(mutant, "clock_rate_mhz", "removal");
        break;  // first clock after the Core opening tag is the core's
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllShippedConfigs, FaultInjection,
    ::testing::Values("niagara.xml", "niagara2.xml", "alpha21364.xml",
                      "xeon_tulsa.xml", "manycore_22nm.xml",
                      "niagara_runtime.xml"));

// ---------------------------------------------------------------------
// Strict scalar parsing (regression: stoi/stod truncation, atoi)
// ---------------------------------------------------------------------

TEST(StrictParse, IntegerFullTokenOnly)
{
    long long v = 42;
    EXPECT_TRUE(common::parseLongStrict("64", v));
    EXPECT_EQ(v, 64);
    EXPECT_TRUE(common::parseLongStrict("-3", v));
    EXPECT_EQ(v, -3);
    for (const char *bad :
         {"64kb", "", " 64", "64 ", "6 4", "0x10", "1e3", "abc", "-",
          "99999999999999999999999"}) {
        long long before = 7;
        long long out = before;
        EXPECT_FALSE(common::parseLongStrict(bad, out)) << bad;
        EXPECT_EQ(out, before) << bad << ": out modified on failure";
    }
}

TEST(StrictParse, DoubleFullTokenFiniteOnly)
{
    double v = 0.0;
    EXPECT_TRUE(common::parseDoubleStrict("1.5", v));
    EXPECT_DOUBLE_EQ(v, 1.5);
    EXPECT_TRUE(common::parseDoubleStrict("1e3", v));
    EXPECT_DOUBLE_EQ(v, 1000.0);
    for (const char *bad :
         {"1e", "", "3.5W", " 1.0", "1.0 ", "nan", "inf", "-inf",
          "1e999", "0x1p3"}) {
        double before = 7.25;
        double out = before;
        EXPECT_FALSE(common::parseDoubleStrict(bad, out)) << bad;
        EXPECT_DOUBLE_EQ(out, before) << bad << ": out modified";
    }
}

TEST(StrictParse, BoolClosedSpellings)
{
    bool v = false;
    EXPECT_TRUE(common::parseBoolStrict("1", v));
    EXPECT_TRUE(v);
    EXPECT_TRUE(common::parseBoolStrict("no", v));
    EXPECT_FALSE(v);
    for (const char *bad : {"2", "TRUE", "truekb", "", "on", "maybe"}) {
        bool out = true;
        EXPECT_FALSE(common::parseBoolStrict(bad, out)) << bad;
        EXPECT_TRUE(out) << bad << ": out modified on failure";
    }
}

TEST(StrictParse, LoaderRejectsTruncatableValues)
{
    // Before the fix these loaded as 64 cores at 1 MHz: stoi/stod
    // silently dropped the junk suffixes.
    const char *cfg = R"(
<component id="sys" type="System">
  <param name="technology_node" value="45"/>
  <param name="core_count" value="64kb"/>
  <component id="sys.core" type="Core">
    <param name="clock_rate_mhz" value="1e"/>
  </component>
</component>
)";
    try {
        config::loadSystemParams(config::parseXmlString(cfg));
        FAIL() << "truncatable values accepted";
    } catch (const ValidationError &e) {
        EXPECT_EQ(e.diagnostics().errorCount(), 2u);
        bool saw_count = false, saw_clock = false;
        for (const Diagnostic &d : e.diagnostics()) {
            if (d.key == "core_count") {
                saw_count = true;
                EXPECT_EQ(d.component, "sys");
                EXPECT_EQ(d.line, 4);
            }
            if (d.key == "clock_rate_mhz") {
                saw_clock = true;
                EXPECT_EQ(d.component, "sys.core");
                EXPECT_EQ(d.line, 6);
            }
        }
        EXPECT_TRUE(saw_count && saw_clock) << e.what();
    }
}

TEST(StrictParse, EnumAndBoolGarbageRejected)
{
    const char *cfg = R"(
<component id="sys" type="System">
  <param name="technology_node" value="45"/>
  <param name="core_count" value="1"/>
  <component id="sys.core" type="Core">
    <param name="clock_rate_mhz" value="2000"/>
    <param name="rat_style" value="fancy"/>
    <param name="out_of_order" value="maybe"/>
  </component>
</component>
)";
    // Before the fix rat_style fell through to RAM silently and any
    // unrecognized bool spelling meant false.
    try {
        config::loadSystemParams(config::parseXmlString(cfg));
        FAIL() << "bad enum/bool accepted";
    } catch (const ValidationError &e) {
        bool saw_rat = false, saw_ooo = false;
        for (const Diagnostic &d : e.diagnostics()) {
            saw_rat |= d.key == "rat_style";
            saw_ooo |= d.key == "out_of_order";
        }
        EXPECT_TRUE(saw_rat) << e.what();
        EXPECT_TRUE(saw_ooo) << e.what();
    }
}

TEST(StrictParse, NonFiniteStatRejected)
{
    const char *cfg = R"(
<component id="sys" type="System">
  <param name="technology_node" value="45"/>
  <param name="core_count" value="1"/>
  <component id="sys.core" type="Core">
    <param name="clock_rate_mhz" value="2000"/>
    <stat name="total_cycles" value="nan"/>
  </component>
</component>
)";
    const auto root = config::parseXmlString(cfg);
    const auto loaded = config::loadSystemParams(root);
    EXPECT_THROW(config::loadChipStats(root, loaded.system),
                 ValidationError);
}

// ---------------------------------------------------------------------
// JSON report serialization (regression: NaN emitted raw, precision)
// ---------------------------------------------------------------------

namespace {

Report
nodeWith(double runtime_dynamic)
{
    Report r;
    r.name = "chip";
    r.area = 1e-4;
    r.peakDynamic = 10.0;
    r.runtimeDynamic = runtime_dynamic;
    r.subthresholdLeakage = 1.0;
    r.gateLeakage = 0.25;
    r.criticalPath = 0.4e-9;
    return r;
}

/** First numeric value following "<key>": in @p json. */
double
extractJsonNumber(const std::string &json, const std::string &key)
{
    const std::string marker = "\"" + key + "\": ";
    const auto at = json.find(marker);
    EXPECT_NE(at, std::string::npos) << key;
    return std::strtod(json.c_str() + at + marker.size(), nullptr);
}

} // namespace

TEST(ReportJson, NonFiniteMetricsBecomeNullAndInvalid)
{
    std::ostringstream os;
    chip::writeReportJson(os, nodeWith(std::nan("")));
    const std::string json = os.str();
    EXPECT_NE(json.find("\"runtime_dynamic_w\": null"),
              std::string::npos)
        << json;
    EXPECT_NE(json.find("\"valid\": false"), std::string::npos) << json;
    EXPECT_EQ(json.find("nan"), std::string::npos) << json;
    EXPECT_EQ(json.find("inf"), std::string::npos) << json;
}

TEST(ReportJson, InfinityInChildAlsoInvalidatesRoot)
{
    Report root = nodeWith(2.0);
    root.addChild(nodeWith(INFINITY));
    std::ostringstream os;
    chip::writeReportJson(os, root);
    const std::string json = os.str();
    EXPECT_NE(json.find("\"valid\": false"), std::string::npos) << json;
    EXPECT_NE(json.find("null"), std::string::npos) << json;
}

TEST(ReportJson, FiniteReportIsValidAndRoundTripsExactly)
{
    // 1/3 is not representable; only max_digits10 output survives a
    // write/parse round trip bit-exactly (the old precision 10 lost
    // the low mantissa bits).
    Report r = nodeWith(1.0 / 3.0);
    r.peakDynamic = 10.0 / 7.0;
    std::ostringstream os;
    chip::writeReportJson(os, r);
    const std::string json = os.str();
    EXPECT_NE(json.find("\"valid\": true"), std::string::npos) << json;
    EXPECT_EQ(json.find("null"), std::string::npos) << json;
    EXPECT_EQ(extractJsonNumber(json, "runtime_dynamic_w"), 1.0 / 3.0);
    EXPECT_EQ(extractJsonNumber(json, "peak_dynamic_w"), 10.0 / 7.0);
}

// ---------------------------------------------------------------------
// MCPAT_THREADS parsing (regression: atoi accepted "8x" as 8)
// ---------------------------------------------------------------------

TEST(ThreadCountEnv, StrictParsing)
{
    EXPECT_EQ(parallel::parseThreadCountEnv("8"), 8);
    EXPECT_EQ(parallel::parseThreadCountEnv("1"), 1);
    for (const char *bad :
         {"8x", "2.5", "abc", "", "0", "-3", " 8", "8 "}) {
        EXPECT_EQ(parallel::parseThreadCountEnv(bad), 0) << bad;
    }
    EXPECT_EQ(parallel::parseThreadCountEnv(nullptr), 0);
}

// ---------------------------------------------------------------------
// Diagnostics plumbing: strict/permissive and batch isolation
// ---------------------------------------------------------------------

TEST(Diagnostics, FormatCarriesComponentKeyAndLine)
{
    Diagnostic d{Severity::Error, "sys.core", "issue_width",
                 "message text", 12};
    const std::string s = d.format();
    EXPECT_NE(s.find("error"), std::string::npos);
    EXPECT_NE(s.find("sys.core"), std::string::npos);
    EXPECT_NE(s.find("issue_width"), std::string::npos);
    EXPECT_NE(s.find("line 12"), std::string::npos);
}

TEST(Diagnostics, JsonAndCsvSerializeAndEscape)
{
    DiagnosticList diags;
    diags.add(Severity::Warning, "sys", "a\"b", "uses, commas", 3);
    // A bare CR ends a record for RFC 4180 readers, so it is quoted too.
    diags.add(Severity::Error, "sys", "k", "bare\rreturn", 4);
    std::ostringstream js;
    writeDiagnosticsJson(js, diags);
    EXPECT_NE(js.str().find("\"severity\": \"warning\""),
              std::string::npos);
    EXPECT_NE(js.str().find("a\\\"b"), std::string::npos);
    std::ostringstream cs;
    writeDiagnosticsCsv(cs, diags);
    EXPECT_EQ(cs.str().rfind("severity,component,key,line,message", 0),
              0u);
    EXPECT_NE(cs.str().find("\"uses, commas\""), std::string::npos);
    EXPECT_NE(cs.str().find(",\"bare\rreturn\"\n"), std::string::npos);
}

TEST(Diagnostics, CrossFieldWarningIsAdvisoryNotFatal)
{
    // alpha21364 ships commit_width 8 > issue_width 6 by design; the
    // pass must flag it as a warning and still validate.
    const auto loaded = config::loadSystemParamsFromFile(
        findConfig("alpha21364.xml"));
    const DiagnosticList cross = loaded.system.check();
    EXPECT_FALSE(cross.hasErrors());
    bool saw_commit = false;
    for (const Diagnostic &d : cross)
        saw_commit |= d.key == "commit_width";
    EXPECT_TRUE(saw_commit);
    EXPECT_NO_THROW(loaded.system.validate());
}

TEST(Diagnostics, CacheGeometryMismatchIsError)
{
    auto loaded =
        config::loadSystemParamsFromFile(findConfig("niagara.xml"));
    // 768 KB over 64 B blocks x 11 ways is not a whole set count.
    loaded.system.l2.assoc = 11;
    const DiagnosticList cross = loaded.system.check();
    EXPECT_TRUE(cross.hasErrors());
    EXPECT_THROW(loaded.system.validate(), ValidationError);
}

TEST(BatchDiagnostics, FailingInputGetsSidecarReports)
{
    namespace fs = std::filesystem;
    const fs::path dir = fs::temp_directory_path() /
        ("mcpat_inject_batch_" + std::to_string(::getpid()));
    fs::remove_all(dir);
    fs::create_directories(dir);

    std::ofstream(dir / "bad.xml") << R"(
<component id="sys" type="System">
  <param name="technology_node" value="64kb"/>
  <param name="core_count" value="1"/>
  <component id="sys.core" type="Core">
    <param name="clock_rate_mhz" value="2000"/>
  </component>
</component>
)";
    std::ofstream(dir / "list.txt")
        << (dir / "bad.xml").string() << "\n"
        << fs::absolute(findConfig("niagara.xml")).string() << "\n";

    study::BatchOptions opts;
    opts.outputDir = (dir / "out").string();
    std::ostringstream log;
    const auto res =
        study::runBatch((dir / "list.txt").string(), opts, log);

    ASSERT_EQ(res.items.size(), 2u);
    EXPECT_FALSE(res.items[0].ok);
    EXPECT_TRUE(res.items[1].ok) << res.items[1].error;
    EXPECT_EQ(res.failures, 1u);

    // The failing input left structured sidecars naming the key.
    ASSERT_FALSE(res.items[0].diagnosticsJsonPath.empty());
    const std::string json = slurpFile(res.items[0].diagnosticsJsonPath);
    EXPECT_NE(json.find("\"valid\": false"), std::string::npos) << json;
    EXPECT_NE(json.find("technology_node"), std::string::npos) << json;
    ASSERT_FALSE(res.items[0].diagnosticsCsvPath.empty());
    const std::string csv = slurpFile(res.items[0].diagnosticsCsvPath);
    EXPECT_NE(csv.find("technology_node"), std::string::npos) << csv;

    // The healthy input produced none.
    EXPECT_TRUE(res.items[1].diagnostics.empty());
    EXPECT_TRUE(res.items[1].diagnosticsJsonPath.empty());
    fs::remove_all(dir);
}

TEST(BatchDiagnostics, StrictModeCountsWarningsAsFailures)
{
    namespace fs = std::filesystem;
    const fs::path dir = fs::temp_directory_path() /
        ("mcpat_inject_strict_" + std::to_string(::getpid()));
    fs::remove_all(dir);
    fs::create_directories(dir);

    std::ofstream(dir / "warny.xml") << R"(
<component id="sys" type="System">
  <param name="technology_node" value="45"/>
  <param name="core_count" value="1"/>
  <param name="not_a_real_param" value="7"/>
  <component id="sys.core" type="Core">
    <param name="clock_rate_mhz" value="2000"/>
  </component>
</component>
)";
    std::ofstream(dir / "list.txt") << (dir / "warny.xml").string()
                                    << "\n";

    study::BatchOptions opts;
    opts.outputDir = (dir / "out").string();

    std::ostringstream permissive_log;
    const auto permissive = study::runBatch(
        (dir / "list.txt").string(), opts, permissive_log);
    EXPECT_TRUE(permissive.ok()) << permissive_log.str();
    EXPECT_FALSE(permissive.items[0].diagnostics.empty());

    opts.strict = true;
    std::ostringstream strict_log;
    const auto strict =
        study::runBatch((dir / "list.txt").string(), opts, strict_log);
    EXPECT_FALSE(strict.ok());
    EXPECT_EQ(strict.failures, 1u);
    EXPECT_NE(strict_log.str().find("strict"), std::string::npos);
    fs::remove_all(dir);
}
