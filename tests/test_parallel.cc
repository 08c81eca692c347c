/**
 * @file
 * Parallel evaluation engine tests: parallelFor semantics, serial vs
 * parallel bit-identical chip reports, the execution-variant
 * equivalence matrix (memo x array tier x threads), array-cache
 * memoization, the mesh-shape fallback for prime cluster counts, and
 * the eDRAM restore-energy clamp.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <fstream>
#include <map>
#include <string>
#include <tuple>
#include <vector>

#include "array/array_cache.hh"
#include "array/array_model.hh"
#include "chip/component_memo.hh"
#include "chip/processor.hh"
#include "common/parallel.hh"
#include "config/xml_loader.hh"
#include "study/eval_core.hh"
#include "study/sweep.hh"

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

/** RAII guard: pin the thread count, restore the default afterwards. */
struct ThreadCountGuard
{
    explicit ThreadCountGuard(int n) { parallel::setThreadCount(n); }
    ~ThreadCountGuard() { parallel::setThreadCount(0); }
};

/** RAII guard: force the array cache on/off, restore + clear after.
 *  The component memo is cleared too, so a chip an earlier test built
 *  cannot skip its array lookups. */
struct CacheGuard
{
    explicit CacheGuard(bool on)
        : previous(array::ArrayResultCache::instance().enabled())
    {
        chip::ComponentMemo::instance().clear();
        array::ArrayResultCache::instance().clear();
        array::ArrayResultCache::instance().setEnabled(on);
    }
    ~CacheGuard()
    {
        array::ArrayResultCache::instance().setEnabled(previous);
        array::ArrayResultCache::instance().clear();
    }
    bool previous;
};

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
    EXPECT_EQ(a.runtimeSubthresholdLeakage,
              b.runtimeSubthresholdLeakage)
        << here;
    EXPECT_EQ(a.criticalPath, b.criticalPath) << here;
    ASSERT_EQ(a.children.size(), b.children.size()) << here;
    for (std::size_t i = 0; i < a.children.size(); ++i)
        expectBitIdentical(a.children[i], b.children[i], here);
}

} // namespace

TEST(ParallelFor, CoversEveryIndexExactlyOnce)
{
    ThreadCountGuard tc(4);
    constexpr std::size_t n = 1000;
    std::vector<std::atomic<int>> counts(n);
    parallel::parallelFor(n, [&](std::size_t i) { counts[i]++; });
    for (std::size_t i = 0; i < n; ++i)
        EXPECT_EQ(counts[i].load(), 1) << i;
}

TEST(ParallelFor, HandlesEmptyAndSingleRanges)
{
    ThreadCountGuard tc(4);
    parallel::parallelFor(0, [](std::size_t) { FAIL(); });
    int runs = 0;
    parallel::parallelFor(1, [&](std::size_t) { ++runs; });
    EXPECT_EQ(runs, 1);
}

TEST(ParallelFor, PropagatesExceptions)
{
    ThreadCountGuard tc(4);
    EXPECT_THROW(parallel::parallelFor(
                     64,
                     [](std::size_t i) {
                         if (i == 13)
                             throw ConfigError("boom");
                     }),
                 ConfigError);
    // The pool must stay usable after a failed job.
    std::atomic<int> total{0};
    parallel::parallelFor(8, [&](std::size_t) { total++; });
    EXPECT_EQ(total.load(), 8);
}

TEST(ParallelFor, NestedCallsRunInline)
{
    ThreadCountGuard tc(4);
    EXPECT_FALSE(parallel::inParallelRegion());
    std::vector<std::atomic<int>> counts(16 * 16);
    parallel::parallelFor(16, [&](std::size_t outer) {
        EXPECT_TRUE(parallel::inParallelRegion());
        parallel::parallelFor(16, [&](std::size_t inner) {
            counts[outer * 16 + inner]++;
        });
    });
    EXPECT_FALSE(parallel::inParallelRegion());
    for (const auto &c : counts)
        EXPECT_EQ(c.load(), 1);
}

TEST(ParallelFor, ThreadCountOverride)
{
    parallel::setThreadCount(3);
    EXPECT_EQ(parallel::threadCount(), 3);
    parallel::setThreadCount(0);
    EXPECT_GE(parallel::threadCount(), 1);
}

TEST(Determinism, NiagaraSerialVsParallelBitIdentical)
{
    const auto loaded =
        config::loadSystemParamsFromFile(findConfig("niagara.xml"));

    Report serial, parallel_rep;
    {
        ThreadCountGuard tc(1);
        CacheGuard cache(false);
        serial = chip::Processor(loaded.system).tdpReport();
    }
    {
        ThreadCountGuard tc(4);
        CacheGuard cache(true);
        parallel_rep = chip::Processor(loaded.system).tdpReport();
    }
    expectBitIdentical(serial, parallel_rep);
}

TEST(Determinism, CaseStudyDesignPointBitIdentical)
{
    study::CaseStudyConfig cfg;
    cfg.totalCores = 16;  // 22 nm case-study shape, sized for test speed

    study::DesignPointResult serial, parallel_res;
    {
        ThreadCountGuard tc(1);
        CacheGuard cache(false);
        serial = study::evaluateDesignPoint(cfg);
    }
    {
        ThreadCountGuard tc(4);
        CacheGuard cache(true);
        parallel_res = study::evaluateDesignPoint(cfg);
    }

    EXPECT_EQ(serial.area, parallel_res.area);
    EXPECT_EQ(serial.tdp, parallel_res.tdp);
    EXPECT_EQ(serial.meanThroughput, parallel_res.meanThroughput);
    EXPECT_EQ(serial.meanPower, parallel_res.meanPower);
    EXPECT_EQ(serial.meanMetrics.ed, parallel_res.meanMetrics.ed);
    EXPECT_EQ(serial.meanMetrics.ed2, parallel_res.meanMetrics.ed2);
    EXPECT_EQ(serial.meanMetrics.eda, parallel_res.meanMetrics.eda);
    EXPECT_EQ(serial.meanMetrics.ed2a, parallel_res.meanMetrics.ed2a);
    ASSERT_EQ(serial.workloads.size(), parallel_res.workloads.size());
    for (std::size_t i = 0; i < serial.workloads.size(); ++i) {
        const auto &a = serial.workloads[i];
        const auto &b = parallel_res.workloads[i];
        EXPECT_EQ(a.workload, b.workload);
        EXPECT_EQ(a.runtimePower, b.runtimePower) << a.workload;
        EXPECT_EQ(a.performance.throughput, b.performance.throughput)
            << a.workload;
        EXPECT_EQ(a.metrics.ed2a, b.metrics.ed2a) << a.workload;
    }
}

TEST(ArrayCache, HomogeneousManycoreHitsAndIdenticalResults)
{
    study::CaseStudyConfig cfg;
    cfg.totalCores = 16;
    const chip::SystemParams sys = study::makeCaseStudySystem(cfg);

    Report cached, uncached;
    array::ArrayCacheStats stats;
    {
        CacheGuard cache(true);
        // Two identical chips: the second must be served mostly from
        // the memo table.
        chip::Processor first(sys);
        cached = chip::Processor(sys).tdpReport();
        stats = array::ArrayResultCache::instance().stats();
    }
    {
        CacheGuard cache(false);
        uncached = chip::Processor(sys).tdpReport();
        const auto off = array::ArrayResultCache::instance().stats();
        EXPECT_EQ(off.hits + off.misses + off.entries, 0u);
    }

    EXPECT_GT(stats.hits, 0u);
    EXPECT_GT(stats.misses, 0u);
    // Concurrent first solves of one key may both count as misses, so
    // the table can only be at most miss-sized.
    EXPECT_LE(stats.entries, stats.misses);
    expectBitIdentical(cached, uncached);
}

TEST(ArrayCache, RepeatedSolveHitsAndMatches)
{
    const tech::Technology t(45);
    array::ArrayParams p;
    p.name = "first copy";
    p.sizeBytes = 64.0 * 1024;
    p.blockWidthBits = 256;
    p.banks = 2;

    CacheGuard cache(true);
    const array::ArrayModel fresh(p, t);
    p.name = "second copy";  // display name must not affect the key
    const array::ArrayModel memo(p, t);
    const auto stats = array::ArrayResultCache::instance().stats();
    EXPECT_EQ(stats.hits, 1u);
    EXPECT_EQ(stats.misses, 1u);

    EXPECT_EQ(fresh.readEnergy(), memo.readEnergy());
    EXPECT_EQ(fresh.area(), memo.area());
    EXPECT_EQ(fresh.accessDelay(), memo.accessDelay());
    EXPECT_EQ(fresh.result().org.ndwl, memo.result().org.ndwl);
    EXPECT_EQ(fresh.result().org.ndbl, memo.result().org.ndbl);
}

TEST(MeshDims, ExactFactorizationsKeepHistoricalShapes)
{
    EXPECT_EQ(study::meshDims(1), (std::pair<int, int>{1, 1}));
    EXPECT_EQ(study::meshDims(2), (std::pair<int, int>{1, 2}));
    EXPECT_EQ(study::meshDims(4), (std::pair<int, int>{2, 2}));
    EXPECT_EQ(study::meshDims(8), (std::pair<int, int>{2, 4}));
    EXPECT_EQ(study::meshDims(16), (std::pair<int, int>{4, 4}));
    EXPECT_EQ(study::meshDims(32), (std::pair<int, int>{4, 8}));
    EXPECT_EQ(study::meshDims(64), (std::pair<int, int>{8, 8}));
}

TEST(MeshDims, PrimeCountsPadInsteadOfChaining)
{
    for (int n : {3, 5, 7, 11, 13, 17, 19, 23, 61}) {
        const auto [nx, ny] = study::meshDims(n);
        EXPECT_GE(nx * ny, n) << n;
        EXPECT_LE(nx, ny) << n;
        EXPECT_LE(ny, 2 * nx) << "degenerate chain for n=" << n;
        EXPECT_LT(nx * ny - n, n) << "over-padded grid for n=" << n;
    }
    EXPECT_EQ(study::meshDims(7), (std::pair<int, int>{2, 4}));
}

TEST(MeshDims, PrimeClusterChipBuildsWithoutFatal)
{
    study::CaseStudyConfig cfg;
    cfg.totalCores = 7;  // 7 clusters of 1: prime
    cfg.coresPerCluster = 1;
    const chip::SystemParams sys = study::makeCaseStudySystem(cfg);
    EXPECT_GE(sys.noc.nodesX * sys.noc.nodesY, 7);
    EXPECT_LE(sys.noc.nodesY, 2 * sys.noc.nodesX);
    const chip::Processor proc(sys);
    EXPECT_GT(proc.tdp(), 0.0);
}

TEST(EdramRestore, ReadEnergyNeverNegativeAcrossSweep)
{
    // Sweep eDRAM arrays from tiny (where the unclamped restore term
    // sub.writeEnergy(cols) - sub.readEnergy(0) could go negative and
    // refund energy) up to the bench_sram_vs_edram L3 slice.
    const tech::Technology t(32, tech::DeviceFlavor::HP, 360.0);
    for (double kb : {4.0, 8.0, 16.0, 64.0, 256.0, 1024.0, 2048.0}) {
        array::ArrayParams p;
        p.name = "edram sweep";
        p.sizeBytes = kb * 1024;
        p.blockWidthBits = 512;
        p.cellType = array::CellType::EDRAM;
        p.flavor = tech::DeviceFlavor::LSTP;
        const array::ArrayModel m(p, t);
        EXPECT_GE(m.readEnergy(), 0.0) << kb << " KB";
        EXPECT_GT(m.result().refreshPower, 0.0) << kb << " KB";
    }
}

namespace {

/** A shipped config's JSON and CSV reports, as the CLI writes them. */
struct RenderedReports
{
    std::string json;
    std::string csv;
};

RenderedReports
renderConfig(const std::string &config)
{
    study::EvalRequest req;
    req.configPath = findConfig(config + ".xml");
    req.wantReportCsv = true;
    const study::EvalResult r = study::evaluate(req);
    EXPECT_TRUE(r.ok) << config << ": " << r.error;
    return {r.reportJson, r.reportCsv};
}

/** RAII guard: pin memo, array tier and thread count over cleared
 *  caches; restore the previous switches and clear again after. */
struct VariantGuard
{
    VariantGuard(bool memo_on, bool tier_on, int threads)
        : memoWas(chip::ComponentMemo::instance().enabled()),
          tierWas(array::ArrayResultCache::instance().enabled())
    {
        chip::ComponentMemo::instance().clear();
        chip::ComponentMemo::instance().setEnabled(memo_on);
        array::ArrayResultCache::instance().clear();
        array::ArrayResultCache::instance().setEnabled(tier_on);
        parallel::setThreadCount(threads);
    }
    ~VariantGuard()
    {
        parallel::setThreadCount(0);
        chip::ComponentMemo::instance().setEnabled(memoWas);
        chip::ComponentMemo::instance().clear();
        array::ArrayResultCache::instance().setEnabled(tierWas);
        array::ArrayResultCache::instance().clear();
    }
    bool memoWas;
    bool tierWas;
};

/** The memo-off, tier-off, 1-thread reports every cell must equal. */
const RenderedReports &
referenceReports(const std::string &config)
{
    static std::map<std::string, RenderedReports> refs;
    auto it = refs.find(config);
    if (it == refs.end()) {
        const VariantGuard plain(false, false, 1);
        it = refs.emplace(config, renderConfig(config)).first;
    }
    return it->second;
}

/** (config stem, component memo on, array memory tier on, threads) */
using Variant = std::tuple<std::string, bool, bool, int>;

class ExecutionVariants : public ::testing::TestWithParam<Variant>
{
};

} // namespace

TEST_P(ExecutionVariants, ReportsMatchSerialUncachedBuild)
{
    const auto &[config, memo_on, tier_on, threads] = GetParam();
    const RenderedReports &ref = referenceReports(config);
    const VariantGuard variant(memo_on, tier_on, threads);
    // A build from cleared caches, then a rebuild that the enabled
    // caches serve: both must render the reference bytes.
    for (const char *pass : {"cold", "warm"}) {
        const RenderedReports got = renderConfig(config);
        EXPECT_EQ(got.json, ref.json) << pass;
        EXPECT_EQ(got.csv, ref.csv) << pass;
    }
}

INSTANTIATE_TEST_SUITE_P(
    EquivalenceMatrix, ExecutionVariants,
    ::testing::Combine(
        ::testing::Values("alpha21364", "manycore_22nm", "niagara",
                          "niagara2", "niagara_runtime", "xeon_tulsa"),
        ::testing::Bool(), ::testing::Bool(), ::testing::Values(1, 4)),
    [](const ::testing::TestParamInfo<Variant> &info) {
        const Variant &v = info.param;
        return std::get<0>(v) +
               (std::get<1>(v) ? "_memo_on" : "_memo_off") +
               (std::get<2>(v) ? "_tier_on_" : "_tier_off_") +
               std::to_string(std::get<3>(v)) + "t";
    });
