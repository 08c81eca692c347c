/**
 * @file
 * Organization-search tests.  The shape-table search builds one
 * Subarray per distinct subarray shape and evaluates every feasible
 * organization against that table; its contract is absolute: it must
 * select bit-identical winners to the reference search, which builds a
 * fresh Subarray for every organization.  These tests sweep array
 * shapes, cell types, banking, timing targets, and every shipped chip
 * config to hold it to that.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "array/array_cache.hh"
#include "array/array_model.hh"
#include "chip/processor.hh"
#include "common/parallel.hh"
#include "config/xml_loader.hh"

#include "test_inputs.hh"

using namespace mcpat;

namespace {

/** RAII guard: force the shape-table search on/off, restore the prior
 *  setting. */
struct PruneGuard
{
    explicit PruneGuard(bool on)
        : previous(array::optimizerPruning())
    {
        array::setOptimizerPruning(on);
    }
    ~PruneGuard() { array::setOptimizerPruning(previous); }
    bool previous;
};

/** RAII guard: pin the worker count, restore the default. */
struct ThreadCountGuard
{
    explicit ThreadCountGuard(int n) { parallel::setThreadCount(n); }
    ~ThreadCountGuard() { parallel::setThreadCount(0); }
};

/** RAII guard: disable both cache tiers so every solve is real. */
struct NoCacheGuard
{
    NoCacheGuard() : previous(array::ArrayResultCache::instance().enabled())
    {
        array::ArrayResultCache::instance().clear();
        array::ArrayResultCache::instance().setEnabled(false);
    }
    ~NoCacheGuard()
    {
        array::ArrayResultCache::instance().setEnabled(previous);
        array::ArrayResultCache::instance().clear();
    }
    bool previous;
};

void
expectIdenticalSolutions(const array::ArrayParams &p,
                         const tech::Technology &t,
                         const std::string &what)
{
    NoCacheGuard no_cache;
    array::ArrayResult exhaustive, pruned;
    bool timing_ex = false, timing_pr = false;
    {
        PruneGuard guard(false);
        const array::ArrayModel m(p, t);
        exhaustive = m.result();
        timing_ex = m.meetsTiming();
    }
    {
        PruneGuard guard(true);
        const array::ArrayModel m(p, t);
        pruned = m.result();
        timing_pr = m.meetsTiming();
    }
    EXPECT_EQ(exhaustive.org.ndwl, pruned.org.ndwl) << what;
    EXPECT_EQ(exhaustive.org.ndbl, pruned.org.ndbl) << what;
    EXPECT_EQ(exhaustive.org.nspd, pruned.org.nspd) << what;
    EXPECT_EQ(exhaustive.area, pruned.area) << what;
    EXPECT_EQ(exhaustive.accessDelay, pruned.accessDelay) << what;
    EXPECT_EQ(exhaustive.cycleTime, pruned.cycleTime) << what;
    EXPECT_EQ(exhaustive.readEnergy, pruned.readEnergy) << what;
    EXPECT_EQ(exhaustive.writeEnergy, pruned.writeEnergy) << what;
    EXPECT_EQ(exhaustive.searchEnergy, pruned.searchEnergy) << what;
    EXPECT_EQ(exhaustive.subthresholdLeakage,
              pruned.subthresholdLeakage)
        << what;
    EXPECT_EQ(exhaustive.gateLeakage, pruned.gateLeakage) << what;
    EXPECT_EQ(exhaustive.refreshPower, pruned.refreshPower) << what;
    EXPECT_EQ(exhaustive.height, pruned.height) << what;
    EXPECT_EQ(exhaustive.width, pruned.width) << what;
    EXPECT_EQ(timing_ex, timing_pr) << what;
}

/** Recursively require two report trees to match bit for bit. */
void
expectBitIdentical(const Report &a, const Report &b,
                   const std::string &path = "")
{
    const std::string here = path + "/" + a.name;
    EXPECT_EQ(a.name, b.name) << here;
    EXPECT_EQ(a.area, b.area) << here;
    EXPECT_EQ(a.peakDynamic, b.peakDynamic) << here;
    EXPECT_EQ(a.runtimeDynamic, b.runtimeDynamic) << here;
    EXPECT_EQ(a.subthresholdLeakage, b.subthresholdLeakage) << here;
    EXPECT_EQ(a.gateLeakage, b.gateLeakage) << here;
    EXPECT_EQ(a.criticalPath, b.criticalPath) << here;
    ASSERT_EQ(a.children.size(), b.children.size()) << here;
    for (std::size_t i = 0; i < a.children.size(); ++i)
        expectBitIdentical(a.children[i], b.children[i], here);
}

} // namespace

TEST(Prune, ToggleIsObservable)
{
    PruneGuard outer(true);
    EXPECT_TRUE(array::optimizerPruning());
    array::setOptimizerPruning(false);
    EXPECT_FALSE(array::optimizerPruning());
    array::setOptimizerPruning(true);
    EXPECT_TRUE(array::optimizerPruning());
}

TEST(Prune, WinnerIdenticalAcrossArrayShapes)
{
    const tech::Technology t65(65);
    const tech::Technology t22(22, tech::DeviceFlavor::LOP, 340.0);

    std::vector<std::pair<std::string, array::ArrayParams>> cases;
    cases.reserve(8);
    {
        array::ArrayParams p;
        p.sizeBytes = 32.0 * 1024;
        p.blockWidthBits = 256;
        cases.emplace_back("32KB cache-like", p);
    }
    {
        array::ArrayParams p;
        p.sizeBytes = 2.0 * 1024 * 1024;
        p.blockWidthBits = 512;
        p.banks = 4;
        cases.emplace_back("2MB banked L2", p);
    }
    {
        array::ArrayParams p;
        p.rows = 128;
        p.bits = 64;
        p.readPorts = 4;
        p.writePorts = 2;
        p.readWritePorts = 0;
        cases.emplace_back("multiported regfile", p);
    }
    {
        array::ArrayParams p;
        p.rows = 64;
        p.bits = 52;
        p.cellType = array::CellType::CAM;
        p.searchPorts = 2;
        cases.emplace_back("TLB CAM", p);
    }
    {
        array::ArrayParams p;
        p.sizeBytes = 1024.0 * 1024;
        p.blockWidthBits = 512;
        p.cellType = array::CellType::EDRAM;
        p.flavor = tech::DeviceFlavor::LSTP;
        cases.emplace_back("1MB eDRAM", p);
    }
    {
        array::ArrayParams p;
        p.rows = 32;
        p.bits = 128;
        p.cellType = array::CellType::DFF;
        cases.emplace_back("DFF buffer", p);
    }
    {
        array::ArrayParams p;
        p.sizeBytes = 64.0 * 1024;
        p.blockWidthBits = 256;
        p.targetCycleTime = 0.3e-9;  // tight: constrained pass matters
        cases.emplace_back("timing-constrained", p);
    }
    {
        array::ArrayParams p;
        p.sizeBytes = 64.0 * 1024;
        p.blockWidthBits = 256;
        p.targetCycleTime = 1.0e-12;  // impossible: fallback passes
        cases.emplace_back("timing-infeasible", p);
    }

    // At 4 threads the shape-table search builds its subarray shapes in
    // one parallel pass before evaluating; that path must agree too.
    for (const int threads : {1, 4}) {
        ThreadCountGuard pin(threads);
        const std::string at = " @" + std::to_string(threads) + "t";
        for (auto &[what, p] : cases) {
            p.name = what;
            expectIdenticalSolutions(p, t65, what + " @65nm" + at);
            expectIdenticalSolutions(p, t22, what + " @22nm LOP" + at);
        }
    }
}

TEST(Prune, SearchStatsCountEveryFeasibleOrganization)
{
    NoCacheGuard no_cache;
    const tech::Technology t(45);
    array::ArrayParams p;
    p.name = "stats probe";
    p.sizeBytes = 512.0 * 1024;
    p.blockWidthBits = 512;
    p.banks = 2;

    array::resetOptimizerSearchStats();
    {
        PruneGuard guard(false);
        const array::ArrayModel m(p, t);
    }
    const auto reference = array::optimizerSearchStats();

    array::resetOptimizerSearchStats();
    {
        PruneGuard guard(true);
        const array::ArrayModel m(p, t);
    }
    const auto table = array::optimizerSearchStats();

    // Both searches evaluate every feasible organization; none is
    // skipped.
    EXPECT_GT(reference.evaluated, 0u);
    EXPECT_EQ(table.evaluated, reference.evaluated);
    EXPECT_EQ(reference.pruned, 0u);
    EXPECT_EQ(table.pruned, 0u);
    EXPECT_EQ(reference.subarrays, 0u)
        << "the reference search must not use the shape table";
    EXPECT_GT(table.subarrays, 0u);
    EXPECT_LT(table.subarrays, table.evaluated);
}

TEST(Prune, SubarrayShapesAreBuiltOncePerSolve)
{
    // Many organizations share a (rows, cols) subarray shape; the
    // shape-table search builds each shape's Subarray once, so a
    // lost shape table shows up as one build per evaluated candidate.
    NoCacheGuard no_cache;
    PruneGuard guard(true);
    const tech::Technology t(45);
    array::ArrayParams p;
    p.name = "64KB shape probe";
    p.sizeBytes = 64.0 * 1024;
    p.blockWidthBits = 256;

    array::resetOptimizerSearchStats();
    const array::ArrayModel m(p, t);
    const auto stats = array::optimizerSearchStats();
    EXPECT_GT(stats.subarrays, 0u);
    EXPECT_LT(stats.subarrays, stats.evaluated);
}

TEST(Prune, EveryShippedConfigBitIdentical)
{
    std::vector<std::string> configs;
    for (const char *name : kShippedConfigs)
        configs.push_back(findConfig(name));
    std::sort(configs.begin(), configs.end());
    ASSERT_FALSE(configs.empty());

    for (const auto &path : configs) {
        const auto loaded = config::loadSystemParamsFromFile(path);
        NoCacheGuard no_cache;
        Report exhaustive, pruned;
        {
            PruneGuard guard(false);
            exhaustive = chip::Processor(loaded.system).tdpReport();
        }
        {
            PruneGuard guard(true);
            pruned = chip::Processor(loaded.system).tdpReport();
        }
        expectBitIdentical(exhaustive, pruned, path);
    }
}
