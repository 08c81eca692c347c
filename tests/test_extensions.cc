/**
 * @file
 * Tests for the extension features: eDRAM arrays, heterogeneous core
 * groups, power gating, and the JSON/CSV report writers.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>

#include "chip/processor.hh"
#include "chip/report_writer.hh"
#include "common/diagnostics.hh"
#include "uncore/shared_cache.hh"

using namespace mcpat;

namespace {

const tech::Technology &
tech32()
{
    static const tech::Technology t(32, tech::DeviceFlavor::HP, 360.0);
    return t;
}

array::ArrayParams
edramArray(array::CellType cell)
{
    array::ArrayParams p;
    p.name = "llc-slice";
    p.rows = 16384;
    p.bits = 512;
    p.banks = 2;
    p.cellType = cell;
    p.flavor = tech::DeviceFlavor::LSTP;
    return p;
}

} // namespace

// ---------------------------------------------------------------------
// eDRAM
// ---------------------------------------------------------------------

TEST(Edram, DenserThanSram)
{
    const array::ArrayModel sram(edramArray(array::CellType::SRAM),
                                 tech32());
    const array::ArrayModel edram(edramArray(array::CellType::EDRAM),
                                  tech32());
    EXPECT_LT(edram.area(), 0.6 * sram.area());
}

TEST(Edram, LeaksLessThanSram)
{
    const array::ArrayModel sram(edramArray(array::CellType::SRAM),
                                 tech32());
    const array::ArrayModel edram(edramArray(array::CellType::EDRAM),
                                  tech32());
    EXPECT_LT(edram.subthresholdLeakage(),
              sram.subthresholdLeakage());
}

TEST(Edram, HasRefreshPowerSramDoesNot)
{
    const array::ArrayModel sram(edramArray(array::CellType::SRAM),
                                 tech32());
    const array::ArrayModel edram(edramArray(array::CellType::EDRAM),
                                  tech32());
    EXPECT_DOUBLE_EQ(sram.result().refreshPower, 0.0);
    EXPECT_GT(edram.result().refreshPower, 0.0);
}

TEST(Edram, RefreshGrowsWithTemperature)
{
    const tech::Technology cool(32, tech::DeviceFlavor::HP, 330.0);
    const tech::Technology hot(32, tech::DeviceFlavor::HP, 370.0);
    const array::ArrayModel mc(edramArray(array::CellType::EDRAM),
                               cool);
    const array::ArrayModel mh(edramArray(array::CellType::EDRAM),
                               hot);
    // Retention halves every 10 K: 40 K apart => ~16x refresh power
    // (modulo organization differences).
    EXPECT_GT(mh.result().refreshPower,
              4.0 * mc.result().refreshPower);
}

TEST(Edram, RefreshRidesInReports)
{
    const array::ArrayModel m(edramArray(array::CellType::EDRAM),
                              tech32());
    const Report idle = m.makeReport(2.0 * GHz, {}, {});
    EXPECT_NEAR(idle.peakDynamic, m.result().refreshPower, 1e-12);
    EXPECT_NEAR(idle.runtimeDynamic, m.result().refreshPower, 1e-12);
}

TEST(Edram, DestructiveReadCostsRestore)
{
    const array::ArrayModel sram(edramArray(array::CellType::SRAM),
                                 tech32());
    const array::ArrayModel edram(edramArray(array::CellType::EDRAM),
                                  tech32());
    // Despite smaller bitline capacitance, the mandatory restore keeps
    // eDRAM read energy from collapsing far below SRAM's.
    EXPECT_GT(edram.readEnergy(), 0.3 * sram.readEnergy());
}

TEST(Edram, SharedCacheCellTypeSelectable)
{
    uncore::SharedCacheParams p;
    p.capacityBytes = 8.0 * 1024 * 1024;
    p.dataCell = array::CellType::EDRAM;
    const uncore::SharedCache c(p, tech32());
    EXPECT_GT(c.cache().dataArray().result().refreshPower, 0.0);
}

// ---------------------------------------------------------------------
// Heterogeneous core groups
// ---------------------------------------------------------------------

namespace {

chip::SystemParams
bigLittle()
{
    chip::SystemParams sys;
    sys.nodeNm = 32;
    chip::CoreGroup big;
    big.count = 2;
    big.core.name = "Big";
    big.core.clockRate = 2.0 * GHz;
    chip::CoreGroup little;
    little.count = 4;
    little.core.name = "Little";
    little.core.outOfOrder = false;
    little.core.threads = 2;
    little.core.fetchWidth = little.core.decodeWidth = 1;
    little.core.issueWidth = little.core.commitWidth = 1;
    little.core.intAlus = 1;
    little.core.pipelineStages = 6;
    little.core.clockRate = 1.0 * GHz;
    sys.coreGroups = {big, little};
    sys.numL2 = 1;
    sys.l2.capacityBytes = 1024.0 * 1024;
    return sys;
}

} // namespace

TEST(Heterogeneous, GroupResolution)
{
    const auto sys = bigLittle();
    EXPECT_EQ(sys.totalCores(), 6);
    EXPECT_EQ(sys.resolvedCoreGroups().size(), 2u);

    chip::SystemParams homo;
    homo.numCores = 8;
    EXPECT_EQ(homo.totalCores(), 8);
    EXPECT_EQ(homo.resolvedCoreGroups().size(), 1u);
    EXPECT_EQ(homo.resolvedCoreGroups()[0].count, 8);
}

TEST(Heterogeneous, BuildsWithBothGroupsReported)
{
    const chip::Processor p(bigLittle());
    const Report &r = p.tdpReport();
    const Report *cores = r.child("Total Cores (6 cores)");
    ASSERT_NE(cores, nullptr);
    ASSERT_EQ(cores->children.size(), 2u);
    EXPECT_EQ(cores->children[0].name, "Big (x2)");
    EXPECT_EQ(cores->children[1].name, "Little (x4)");
    // Per-core, the big cores must outweigh the little ones.
    EXPECT_GT(cores->children[0].peakDynamic / 2.0,
              cores->children[1].peakDynamic / 4.0);
}

TEST(Heterogeneous, GroupTotalsAccumulateByCount)
{
    const chip::Processor p(bigLittle());
    const Report *cores = p.tdpReport().child("Total Cores (6 cores)");
    ASSERT_NE(cores, nullptr);
    const double expect = 2.0 * cores->children[0].peakDynamic / 2.0 +
                          4.0 * cores->children[1].peakDynamic / 4.0;
    // children store one instance scaled to the group: child[g] holds
    // the single-core report, accumulate() multiplied by count.
    EXPECT_NEAR(cores->peakDynamic,
                2.0 * cores->children[0].peakDynamic +
                    4.0 * cores->children[1].peakDynamic,
                cores->peakDynamic * 1e-9);
    (void)expect;
}

TEST(Heterogeneous, PerGroupRuntimeStats)
{
    const auto sys = bigLittle();
    const chip::Processor p(sys);
    auto rt = stats::ChipStats::tdp(sys);
    ASSERT_EQ(rt.perGroup.size(), 2u);
    rt.perGroup[0] = rt.perGroup[0].scaled(0.1);  // big cores idle
    const Report r = p.makeReport(rt);
    EXPECT_LT(r.runtimeDynamic, p.tdpReport().runtimeDynamic);
}

TEST(Heterogeneous, EmptyGroupRejected)
{
    auto sys = bigLittle();
    sys.coreGroups[1].count = 0;
    EXPECT_THROW(chip::Processor{sys}, ConfigError);
}

// ---------------------------------------------------------------------
// Power gating
// ---------------------------------------------------------------------

TEST(PowerGating, CutsRuntimeLeakageNotTdp)
{
    core::CoreParams p;
    p.powerGating = true;
    const tech::Technology t(45);
    const core::Core c(p, t);

    core::CoreStats tdp = core::CoreStats::tdp(p);
    core::CoreStats idle = tdp.scaled(0.05);
    idle.sleepFraction = 1.0;

    const Report r = c.makeReport(tdp, idle);
    EXPECT_NEAR(r.runtimeSubLeak(), 0.1 * r.subthresholdLeakage,
                r.subthresholdLeakage * 0.01);
    EXPECT_LT(r.runtimePower(), r.peakPower());
}

TEST(PowerGating, NoEffectWithoutHardware)
{
    core::CoreParams p;  // powerGating = false
    const tech::Technology t(45);
    const core::Core c(p, t);
    core::CoreStats idle = core::CoreStats::tdp(p).scaled(0.05);
    idle.sleepFraction = 1.0;
    const Report r = c.makeReport(core::CoreStats::tdp(p), idle);
    EXPECT_DOUBLE_EQ(r.runtimeSubLeak(), r.subthresholdLeakage);
}

TEST(PowerGating, SleepTransistorsCostArea)
{
    core::CoreParams plain;
    core::CoreParams gated;
    gated.powerGating = true;
    const tech::Technology t(45);
    const core::Core cp(plain, t);
    const core::Core cg(gated, t);
    EXPECT_GT(cg.area(), cp.area() * 1.02);
}

TEST(PowerGating, ReportTreeCarriesRuntimeLeakage)
{
    Report parent;
    Report gated;
    gated.subthresholdLeakage = 10.0;
    gated.runtimeSubthresholdLeakage = 2.0;
    Report plain;
    plain.subthresholdLeakage = 5.0;
    parent.addChild(gated);
    parent.addChild(plain);
    EXPECT_DOUBLE_EQ(parent.subthresholdLeakage, 15.0);
    EXPECT_DOUBLE_EQ(parent.runtimeSubLeak(), 7.0);
}

// ---------------------------------------------------------------------
// JSON / CSV writers
// ---------------------------------------------------------------------

namespace {

Report
sampleReport()
{
    Report r;
    r.name = "chip \"x\"";
    r.area = 2.0 * mm2;
    r.peakDynamic = 3.0;
    Report c;
    c.name = "core";
    c.area = 1.0 * mm2;
    c.peakDynamic = 1.5;
    r.addChild(std::move(c));
    return r;
}

} // namespace

TEST(ReportWriter, JsonEscaping)
{
    EXPECT_EQ(jsonEscapeString("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
}

TEST(ReportWriter, JsonStructure)
{
    std::ostringstream os;
    chip::writeReportJson(os, sampleReport());
    const std::string s = os.str();
    EXPECT_NE(s.find("\"name\": \"chip \\\"x\\\"\""),
              std::string::npos);
    EXPECT_NE(s.find("\"children\": ["), std::string::npos);
    EXPECT_NE(s.find("\"name\": \"core\""), std::string::npos);
    // Balanced braces/brackets.
    EXPECT_EQ(std::count(s.begin(), s.end(), '{'),
              std::count(s.begin(), s.end(), '}'));
    EXPECT_EQ(std::count(s.begin(), s.end(), '['),
              std::count(s.begin(), s.end(), ']'));
}

TEST(ReportWriter, CsvRowsAndHeader)
{
    std::ostringstream os;
    chip::writeReportCsv(os, sampleReport());
    const std::string s = os.str();
    // Header + 2 rows.
    EXPECT_EQ(std::count(s.begin(), s.end(), '\n'), 3);
    EXPECT_NE(s.find("path,area_mm2"), std::string::npos);
    // The quoted name must be CSV-escaped; the child path inherits
    // the parent's quoted name, so the whole cell stays quoted.
    EXPECT_NE(s.find("\"chip \"\"x\"\"\","), std::string::npos);
    EXPECT_NE(s.find("/core\""), std::string::npos);
}

TEST(ReportWriter, FullChipJsonParsesStructurally)
{
    chip::SystemParams sys;
    sys.nodeNm = 45;
    sys.numCores = 1;
    const chip::Processor p(sys);
    std::ostringstream os;
    chip::writeReportJson(os, p.tdpReport());
    const std::string s = os.str();
    EXPECT_EQ(std::count(s.begin(), s.end(), '{'),
              std::count(s.begin(), s.end(), '}'));
    EXPECT_GT(std::count(s.begin(), s.end(), '{'), 10);
}
