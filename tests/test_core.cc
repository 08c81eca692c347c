/**
 * @file
 * Core-level tests: construction of in-order and out-of-order cores,
 * report-tree consistency, architectural scaling behavior, timing
 * checks, and TDP activity sanity.
 */

#include <gtest/gtest.h>

#include "core/core.hh"

using namespace mcpat;
using namespace mcpat::core;
using tech::Technology;

namespace {

const Technology &
tech45()
{
    static const Technology t(45);
    return t;
}

CoreParams
oooCore()
{
    CoreParams p;
    p.clockRate = 2.0 * GHz;
    return p;
}

CoreParams
inorderCore()
{
    CoreParams p;
    p.outOfOrder = false;
    p.threads = 4;
    p.fetchWidth = p.decodeWidth = p.issueWidth = p.commitWidth = 1;
    p.intAlus = 1;
    p.fpus = 1;
    p.muls = 1;
    p.pipelineStages = 6;
    p.clockRate = 1.5 * GHz;
    return p;
}

/** Sum a report's children for one field. */
double
childSum(const Report &r, double Report::*field)
{
    double s = 0.0;
    for (const auto &c : r.children)
        s += c.*field;
    return s;
}

} // namespace

TEST(CoreParams, Validation)
{
    CoreParams p = oooCore();
    p.threads = 0;
    EXPECT_THROW(p.validate(), ConfigError);

    p = oooCore();
    p.physIntRegs = 8;  // fewer than architectural
    EXPECT_THROW(p.validate(), ConfigError);

    p = oooCore();
    p.intAlus = 0;
    EXPECT_THROW(p.validate(), ConfigError);

    p = oooCore();
    p.pipelineStages = 1;
    EXPECT_THROW(p.validate(), ConfigError);
}

TEST(CoreParams, DiagnosticNamesTheCore)
{
    CoreParams p = oooCore();
    p.name = "core0";
    p.robEntries = 4;
    try {
        p.validate();
        ADD_FAILURE() << "a 4-entry ROB validated";
    } catch (const ConfigError &e) {
        EXPECT_STREQ(e.what(),
                     "mcpat: configuration error: core0: ROB too small");
    }
}

TEST(CoreParams, TagBits)
{
    CoreParams p = oooCore();
    p.physIntRegs = 128;
    EXPECT_EQ(p.intTagBits(), 7);
    p.outOfOrder = false;
    p.archIntRegs = 32;
    p.threads = 4;
    EXPECT_EQ(p.intTagBits(), 7);  // 128 thread-replicated registers
}

TEST(Core, OooConstructs)
{
    const Core c(oooCore(), tech45());
    EXPECT_GT(c.area(), 1.0 * mm2);
    EXPECT_LT(c.area(), 100.0 * mm2);
    EXPECT_GT(c.maxFrequency(), 0.5 * GHz);
}

TEST(Core, InOrderSmallerThanOoo)
{
    const Core ooo(oooCore(), tech45());
    CoreParams in_p = inorderCore();
    in_p.clockRate = 2.0 * GHz;
    const Core inorder(in_p, tech45());
    EXPECT_LT(inorder.area(), ooo.area());
    EXPECT_LT(inorder.makeTdpReport().peakDynamic,
              ooo.makeTdpReport().peakDynamic);
}

TEST(Core, ReportDynamicSumsConsistent)
{
    const Core c(oooCore(), tech45());
    const Report r = c.makeTdpReport();
    EXPECT_NEAR(childSum(r, &Report::peakDynamic), r.peakDynamic,
                r.peakDynamic * 1e-9);
    EXPECT_NEAR(childSum(r, &Report::subthresholdLeakage),
                r.subthresholdLeakage, r.subthresholdLeakage * 1e-9);
}

TEST(Core, PlacedAreaExceedsComponentSum)
{
    const Core c(oooCore(), tech45());
    const Report r = c.makeTdpReport();
    // The core's reported area includes wiring overhead on top of the
    // unit sum.
    EXPECT_GE(r.area, childSum(r, &Report::area) * 0.99);
}

TEST(Core, ExpectedUnitsPresent)
{
    const Core c(oooCore(), tech45());
    const Report r = c.makeTdpReport();
    EXPECT_NE(r.child("Instruction Fetch Unit"), nullptr);
    EXPECT_NE(r.child("Renaming Unit"), nullptr);
    EXPECT_NE(r.child("Execution Unit"), nullptr);
    EXPECT_NE(r.child("Load Store Unit"), nullptr);
    EXPECT_NE(r.child("Memory Management Unit"), nullptr);
    EXPECT_NE(r.child("Clock Network"), nullptr);
    EXPECT_NE(r.child("Datapath & Control Glue"), nullptr);
}

TEST(Core, InOrderHasScoreboardNotRat)
{
    const Core c(inorderCore(), tech45());
    const Report r = c.makeTdpReport();
    const Report *ren = r.child("Renaming Unit");
    ASSERT_NE(ren, nullptr);
    EXPECT_NE(ren->child("Scoreboard"), nullptr);
    EXPECT_EQ(ren->child("Int RAT"), nullptr);
}

TEST(Core, OooHasSchedulerStructures)
{
    const Core c(oooCore(), tech45());
    const Report r = c.makeTdpReport();
    const Report *exu = r.child("Execution Unit");
    ASSERT_NE(exu, nullptr);
    const Report *sched = exu->child("Instruction Scheduler");
    ASSERT_NE(sched, nullptr);
    EXPECT_NE(sched->child("Int Instruction Window"), nullptr);
    EXPECT_NE(sched->child("Reorder Buffer"), nullptr);
}

TEST(Core, WiderIssueCostsAreaAndPower)
{
    CoreParams narrow = oooCore();
    narrow.issueWidth = 2;
    narrow.intAlus = 2;
    CoreParams wide = oooCore();
    wide.issueWidth = 8;
    wide.intAlus = 6;
    wide.fetchWidth = wide.decodeWidth = wide.commitWidth = 8;
    const Core cn(narrow, tech45());
    const Core cw(wide, tech45());
    EXPECT_GT(cw.area(), cn.area());
    EXPECT_GT(cw.makeTdpReport().peakDynamic,
              cn.makeTdpReport().peakDynamic);
}

TEST(Core, ThreadsCostArea)
{
    CoreParams one = inorderCore();
    one.threads = 1;
    CoreParams eight = inorderCore();
    eight.threads = 8;
    const Core c1(one, tech45());
    const Core c8(eight, tech45());
    EXPECT_GT(c8.area(), c1.area());
}

TEST(Core, BiggerRobSlowsScheduler)
{
    CoreParams small = oooCore();
    small.intWindowEntries = 16;
    CoreParams big = oooCore();
    big.intWindowEntries = 128;
    const Core cs(small, tech45());
    const Core cb(big, tech45());
    EXPECT_LE(cb.maxFrequency(), cs.maxFrequency() * 1.001);
}

TEST(Core, DynamicMarginScalesAllDynamic)
{
    CoreParams base = oooCore();
    base.dynamicMargin = 1.8;
    CoreParams hot = oooCore();
    hot.dynamicMargin = 2.7;
    const Core cb(base, tech45());
    const Core ch(hot, tech45());
    const Report rb = cb.makeTdpReport();
    const Report rh = ch.makeTdpReport();
    EXPECT_NEAR(rh.peakDynamic / rb.peakDynamic, 1.5, 1e-6);
    // Leakage is not affected by the design-style margin.
    EXPECT_NEAR(rh.subthresholdLeakage, rb.subthresholdLeakage, 1e-9);
}

TEST(Core, TimingCheckReflectsClock)
{
    CoreParams slow = oooCore();
    slow.clockRate = 0.2 * GHz;
    const Core cs(slow, tech45());
    EXPECT_TRUE(cs.meetsTiming());

    CoreParams fast = oooCore();
    fast.clockRate = 50.0 * GHz;  // beyond any 45 nm design
    const Core cf(fast, tech45());
    EXPECT_FALSE(cf.meetsTiming());
}

TEST(Core, TechnologyScalingShrinksCore)
{
    const Technology t90(90);
    const Technology t22(22);
    const Core c90(oooCore(), t90);
    const Core c22(oooCore(), t22);
    EXPECT_GT(c90.area(), 4.0 * c22.area());
}

TEST(CoreStats, TdpRatesWithinWidths)
{
    const CoreParams p = oooCore();
    const CoreStats s = CoreStats::tdp(p);
    EXPECT_LE(s.fetches, p.fetchWidth + 1e-9);
    EXPECT_LE(s.decodes, p.decodeWidth + 1e-9);
    EXPECT_LE(s.commits, p.commitWidth + 1e-9);
    EXPECT_LE(s.intOps, p.intAlus + 1e-9);
    EXPECT_LE(s.fpOps, p.fpus + 1e-9);
    EXPECT_GT(s.loads, 0.0);
    EXPECT_GT(s.icacheRates.accesses(), 0.0);
}

TEST(CoreStats, ScalingIsLinear)
{
    const CoreStats s = CoreStats::tdp(oooCore());
    const CoreStats half = s.scaled(0.5);
    EXPECT_NEAR(half.intOps, 0.5 * s.intOps, 1e-12);
    EXPECT_NEAR(half.dcacheRates.readHits,
                0.5 * s.dcacheRates.readHits, 1e-12);
}

TEST(CoreStats, InOrderCoreHasNoRenameActivity)
{
    const CoreStats s = CoreStats::tdp(inorderCore());
    EXPECT_DOUBLE_EQ(s.renames, 0.0);
    EXPECT_DOUBLE_EQ(s.dispatches, 0.0);
}

/** Property sweep over issue widths: monotone area and power. */
class CoreWidthSweep : public ::testing::TestWithParam<int>
{};

TEST_P(CoreWidthSweep, PhysicalAndBounded)
{
    CoreParams p = oooCore();
    p.issueWidth = GetParam();
    p.fetchWidth = p.decodeWidth = p.commitWidth =
        std::min(GetParam(), 8);
    p.intAlus = std::max(1, GetParam() - 1);
    const Core c(p, tech45());
    const Report r = c.makeTdpReport();
    EXPECT_GT(r.peakDynamic, 0.1);
    EXPECT_LT(r.peakDynamic, 100.0);
    EXPECT_GT(c.area(), 1.0 * mm2);
    EXPECT_LT(c.area(), 200.0 * mm2);
}

INSTANTIATE_TEST_SUITE_P(Widths, CoreWidthSweep,
                         ::testing::Values(1, 2, 4, 6, 8));
