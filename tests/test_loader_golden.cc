/**
 * @file
 * Golden loader test: every diagnostic the XML loader and
 * SystemParams::check() give, byte for byte and in order, for
 *
 *  - each shipped config as shipped, and after each of the four
 *    FaultInjection mutations (garbage token, trailing junk,
 *    out-of-range value, removal) at every <param>/<stat> site;
 *  - the seeded random configs of the property tests;
 *  - the case-study design points and the reference search space.
 *
 * tests/data/loader_golden.txt was recorded by this test on a build
 * of commit bf20c65a384d12a6bddd7fcac90d1f2de4c0ab1c, the last one
 * with hand-written XML loaders and range checks.  It pins the
 * loader's output (diagnostics, LoadResult::warnings and the first
 * line of the ValidationError text; the other lines are the error
 * diagnostics' format()) and check()'s output across that rewrite.
 * Runtime statistics (loadChipStats) are not part of it.
 *
 * On a mismatch the test writes what it produced to
 * mcpat_loader_golden.actual in the temp directory, for diffing.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <regex>
#include <sstream>
#include <string>

#include "common/diagnostics.hh"
#include "config/xml_loader.hh"
#include "study/sweep.hh"
#include "study/sweep_search.hh"

#include "test_inputs.hh"

using namespace mcpat;

namespace {

std::string
slurp(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

void
appendDiagnostics(std::string &out, const char *stage,
                  const DiagnosticList &diags)
{
    for (const Diagnostic &d : diags) {
        out += stage;
        out += d.severity == Severity::Error ? " E|" : " W|";
        out += d.component + "|" + d.key + "|" + std::to_string(d.line) +
               "|" + d.message + "\n";
    }
}

/** Load @p text and check the result; one line per outcome. */
void
describeLoad(std::string &out, const std::string &text)
{
    const config::XmlNode root = config::parseXmlString(text);
    try {
        const config::LoadResult r = config::loadSystemParams(root);
        appendDiagnostics(out, "load", r.diagnostics);
        for (const std::string &w : r.warnings)
            out += "warning " + w + "\n";
        appendDiagnostics(out, "check", r.system.check());
    } catch (const ValidationError &e) {
        appendDiagnostics(out, "load", e.diagnostics());
        const std::string what = e.what();
        out += "what " + what.substr(0, what.find('\n')) + "\n";
    }
}

std::string
describeEverything()
{
    static const std::regex element(
        "<(param|stat)\\s+name=\"([^\"]*)\"\\s+value=\"([^\"]*)\"\\s*/>");
    std::string out;
    for (const char *name : kShippedConfigs) {
        const std::string text = slurp(findConfig(name));
        out += "== " + std::string(name) + "\n";
        describeLoad(out, text);
        int site = 0;
        for (auto it = std::sregex_iterator(text.begin(), text.end(),
                                            element);
             it != std::sregex_iterator(); ++it, ++site) {
            const auto elem = static_cast<std::size_t>(it->position(0));
            const auto elem_len = static_cast<std::size_t>(it->length(0));
            const auto value = static_cast<std::size_t>(it->position(3));
            const auto value_len = static_cast<std::size_t>(it->length(3));
            const std::string tag = "== " + std::string(name) + " #" +
                                    std::to_string(site) + " " +
                                    (*it)[2].str() + " ";

            std::string m = text;
            m.replace(value, value_len, "@#garbage");
            out += tag + "garbage\n";
            describeLoad(out, m);

            m = text;
            m.insert(value + value_len, "kb");
            out += tag + "junk\n";
            describeLoad(out, m);

            m = text;
            m.replace(value, value_len, "-999999");
            out += tag + "range\n";
            describeLoad(out, m);

            m = text;
            m.replace(elem, elem_len, "");
            out += tag + "removed\n";
            describeLoad(out, m);
        }
    }
    for (const unsigned seed : kRandomConfigSeeds) {
        for (const unsigned offset : {0u, 1000u, 2000u}) {
            ConfigGen gen(seed + offset);
            for (int i = 0; i < 3; ++i) {
                out += "== random " + std::to_string(seed + offset) +
                       " #" + std::to_string(i) + "\n";
                appendDiagnostics(out, "check", gen.next().check());
            }
        }
    }
    for (const study::CaseStudyConfig &cfg : study::caseStudyConfigs()) {
        out += "== case study " + cfg.label() + "\n";
        appendDiagnostics(out, "check",
                          study::makeCaseStudySystem(cfg).check());
    }
    const study::SweepSpace space = study::SweepSpace::reference();
    for (std::size_t i = 0; i < space.size(); ++i) {
        out += "== search point " + std::to_string(i) + "\n";
        appendDiagnostics(out, "check",
                          study::makeCaseStudySystem(space.at(i)).check());
    }
    return out;
}

} // namespace

TEST(LoaderGolden, MatchesRecordedDiagnostics)
{
    const std::string expected =
        slurp(std::string(MCPAT_TEST_DATA_DIR) + "/loader_golden.txt");
    const std::string actual = describeEverything();
    if (actual == expected)
        return;
    const auto path = std::filesystem::temp_directory_path() /
                      "mcpat_loader_golden.actual";
    std::ofstream(path, std::ios::binary) << actual;
    std::istringstream a(actual), e(expected);
    std::string al, el;
    int line = 1;
    while (std::getline(e, el) && std::getline(a, al) && al == el)
        ++line;
    FAIL() << "output differs from the recording at line " << line
           << "\n  expected: " << el << "\n  actual:   " << al
           << "\n  full output: " << path.string();
}
