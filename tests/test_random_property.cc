/**
 * @file
 * Randomized property tests: generate pseudo-random (seeded,
 * deterministic) system configurations and check the invariants every
 * valid configuration must satisfy — no crashes, physical outputs,
 * consistent report trees, and monotone responses to activity.
 */

#include <gtest/gtest.h>

#include "chip/processor.hh"
#include "perf/activity_gen.hh"
#include "test_inputs.hh"

using namespace mcpat;

namespace {

void
checkTree(const Report &r)
{
    EXPECT_GE(r.area, 0.0) << r.name;
    EXPECT_GE(r.peakDynamic, 0.0) << r.name;
    EXPECT_GE(r.runtimeDynamic, 0.0) << r.name;
    EXPECT_GE(r.subthresholdLeakage, 0.0) << r.name;
    EXPECT_GE(r.gateLeakage, 0.0) << r.name;
    EXPECT_GE(r.runtimeSubLeak(), 0.0) << r.name;
    if (!r.children.empty()) {
        double dyn = 0.0, area = 0.0;
        for (const auto &c : r.children) {
            dyn += c.peakDynamic;
            area += c.area;
            checkTree(c);
        }
        EXPECT_GE(r.peakDynamic, dyn * (1.0 - 1e-6)) << r.name;
        EXPECT_GE(r.area, area * (1.0 - 1e-6)) << r.name;
    }
}

} // namespace

class RandomConfigTest : public ::testing::TestWithParam<unsigned>
{};

TEST_P(RandomConfigTest, BuildsWithPhysicalConsistentReport)
{
    ConfigGen gen(GetParam());
    for (int i = 0; i < 4; ++i) {
        const chip::SystemParams sys = gen.next();
        SCOPED_TRACE("seed " + std::to_string(GetParam()) + " cfg " +
                     std::to_string(i) + " node " +
                     std::to_string(sys.nodeNm));
        const chip::Processor proc(sys);
        EXPECT_GT(proc.area(), 0.0);
        EXPECT_GT(proc.tdp(), 0.0);
        EXPECT_LT(proc.tdp(), 2000.0);
        checkTree(proc.tdpReport());
    }
}

TEST_P(RandomConfigTest, HalfActivityNeverRaisesRuntimePower)
{
    ConfigGen gen(GetParam() + 1000);
    for (int i = 0; i < 3; ++i) {
        const chip::SystemParams sys = gen.next();
        SCOPED_TRACE("seed " + std::to_string(GetParam()) + " cfg " +
                     std::to_string(i));
        const chip::Processor proc(sys);

        stats::ChipStats full = stats::ChipStats::tdp(sys);
        stats::ChipStats half = full;
        half.perCore = half.perCore.scaled(0.5);
        for (auto &g : half.perGroup)
            g = g.scaled(0.5);
        half.nocFlitsPerCycle *= 0.5;
        half.mcUtilization *= 0.5;

        const Report rf = proc.makeReport(full);
        const Report rh = proc.makeReport(half);
        EXPECT_LE(rh.runtimeDynamic, rf.runtimeDynamic * (1.0 + 1e-9));
    }
}

TEST_P(RandomConfigTest, PerformanceModelDigestsAnyConfig)
{
    ConfigGen gen(GetParam() + 2000);
    for (int i = 0; i < 3; ++i) {
        const chip::SystemParams sys = gen.next();
        SCOPED_TRACE("seed " + std::to_string(GetParam()) + " cfg " +
                     std::to_string(i));
        for (const auto &w : perf::splash2Workloads()) {
            const auto p = perf::evaluateSystem(sys, w);
            EXPECT_GT(p.throughput, 0.0) << w.name;
            EXPECT_LE(p.perCoreIpc, sys.core.issueWidth + 1e-9)
                << w.name;
            const auto rt = perf::makeRuntimeStats(sys, w, p);
            EXPECT_GE(rt.mcUtilization, 0.0);
            EXPECT_LE(rt.mcUtilization, 1.0);
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomConfigTest,
                         ::testing::ValuesIn(kRandomConfigSeeds));
