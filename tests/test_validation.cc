/**
 * @file
 * Validation regression tests: pin the modeled TDP and die area of the
 * four published processors inside the paper-grade error bands
 * (DESIGN.md section 7), so model edits cannot silently break the
 * calibration.  The XML files under configs/ are the single source of
 * truth for the validation configurations.
 */

#include <gtest/gtest.h>

#include <fstream>

#include "chip/processor.hh"
#include "config/xml_loader.hh"

using namespace mcpat;

namespace {

struct Published
{
    const char *file;
    double tdp;    ///< W
    double area;   ///< mm^2
};

/**
 * Print a case by its config file.  Without this, gtest dumps the raw
 * bytes of the struct, `file` pointer included, so the test names
 * would change from one process to the next.
 */
void
PrintTo(const Published &pub, std::ostream *os)
{
    *os << pub.file;
}

std::string
findConfig(const std::string &name)
{
    for (const std::string prefix :
         {"configs/", "../configs/", "../../configs/"}) {
        const std::string path = prefix + name;
        if (std::ifstream(path).good())
            return path;
    }
    throw ConfigError("cannot find configs/" + name +
                      " (run tests from the repo root or build tree)");
}

chip::Processor
build(const char *file)
{
    auto loaded =
        config::loadSystemParamsFromFile(findConfig(file));
    EXPECT_TRUE(loaded.warnings.empty()) << file;
    return chip::Processor(loaded.system);
}

/** Paper-grade validation bands. */
constexpr double tdpBand = 0.25;
constexpr double areaBand = 0.25;

class ValidationTest : public ::testing::TestWithParam<Published>
{};

} // namespace

TEST_P(ValidationTest, TdpWithinBand)
{
    const Published pub = GetParam();
    const chip::Processor p = build(pub.file);
    const double err = (p.tdp() - pub.tdp) / pub.tdp;
    EXPECT_LT(std::abs(err), tdpBand)
        << pub.file << ": modeled " << p.tdp() << " W vs published "
        << pub.tdp << " W";
}

TEST_P(ValidationTest, AreaWithinBand)
{
    const Published pub = GetParam();
    const chip::Processor p = build(pub.file);
    const double area = p.area() / mm2;
    const double err = (area - pub.area) / pub.area;
    EXPECT_LT(std::abs(err), areaBand)
        << pub.file << ": modeled " << area << " mm2 vs published "
        << pub.area << " mm2";
}

TEST_P(ValidationTest, LeakageFractionPlausible)
{
    const Published pub = GetParam();
    const chip::Processor p = build(pub.file);
    const Report &r = p.tdpReport();
    const double leak_frac = r.leakage() / p.tdp();
    EXPECT_GT(leak_frac, 0.0005) << pub.file;  // 180 nm leaks ~0.1%
    EXPECT_LT(leak_frac, 0.45) << pub.file;
}

TEST_P(ValidationTest, CoresDominateButDontMonopolize)
{
    const Published pub = GetParam();
    const chip::Processor p = build(pub.file);
    const Report &r = p.tdpReport();
    // Find the cores block without assuming the exact core count text.
    const Report *cores = nullptr;
    for (const auto &c : r.children)
        if (c.name.rfind("Total Cores", 0) == 0)
            cores = &c;
    ASSERT_NE(cores, nullptr) << pub.file;
    const double frac = cores->peakPower() / p.tdp();
    EXPECT_GT(frac, 0.25) << pub.file;
    EXPECT_LT(frac, 0.95) << pub.file;
}

INSTANTIATE_TEST_SUITE_P(
    PublishedChips, ValidationTest,
    ::testing::Values(Published{"niagara.xml", 63.0, 378.0},
                      Published{"niagara2.xml", 84.0, 342.0},
                      Published{"alpha21364.xml", 125.0, 397.0},
                      Published{"xeon_tulsa.xml", 150.0, 435.0}));

TEST(ValidationShape, PublishedPowerOrderingPreserved)
{
    // The paper's four chips order 63 < 84 < 125 < 150; the model must
    // reproduce that ordering.
    const double niagara = build("niagara.xml").tdp();
    const double niagara2 = build("niagara2.xml").tdp();
    const double alpha = build("alpha21364.xml").tdp();
    const double tulsa = build("xeon_tulsa.xml").tdp();
    EXPECT_LT(niagara, niagara2);
    EXPECT_LT(niagara2, alpha);
    EXPECT_LT(alpha, tulsa);
}

TEST(ValidationShape, HotterProcessDeeperPipelineBurnsMoreClock)
{
    // Tulsa (31-stage, 3.4 GHz) must spend far more of its core power
    // in the clock network than Niagara (6-stage, 1.2 GHz).
    auto clock_fraction = [](const char *file) {
        const chip::Processor p = build(file);
        const Report *cores = nullptr;
        for (const auto &c : p.tdpReport().children)
            if (c.name.rfind("Total Cores", 0) == 0)
                cores = &c;
        const Report &core = cores->children.front();
        const Report *clk = core.child("Clock Network");
        return clk->peakDynamic / core.peakDynamic;
    };
    EXPECT_GT(clock_fraction("xeon_tulsa.xml"),
              clock_fraction("niagara.xml"));
}

TEST(ValidationShape, LeakageWorstOnHotLeakyNodes)
{
    // 65 nm HP (Tulsa) must leak a far larger fraction than 180 nm
    // (Alpha), where leakage was still negligible.
    auto leak_fraction = [](const char *file) {
        const chip::Processor p = build(file);
        return p.tdpReport().leakage() / p.tdp();
    };
    EXPECT_GT(leak_fraction("xeon_tulsa.xml"),
              5.0 * leak_fraction("alpha21364.xml"));
}
