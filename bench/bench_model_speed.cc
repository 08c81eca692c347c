/**
 * @file
 * Experiment M1: modeling speed (google-benchmark).  The paper's core
 * claim of practicality is that a full chip models in well under a
 * second — fast enough to embed in design-space-exploration loops —
 * unlike EDA flows.  This bench times the three building blocks: a
 * cache solve (with organization search), a full core, and a complete
 * validation-class chip with its report.
 */

#include <benchmark/benchmark.h>

#include <chrono>
#include <filesystem>
#include <thread>
#include <unistd.h>

#include "array/array_cache.hh"
#include "array/array_model.hh"
#include "array/cache_model.hh"
#include "chip/component_memo.hh"
#include "chip/processor.hh"
#include "common/flight_recorder.hh"
#include "common/instrument.hh"
#include "common/parallel.hh"
#include "config/xml_loader.hh"
#include "core/core.hh"
#include "study/sweep.hh"

#include "bench/bench_util.hh"

namespace {

using namespace mcpat;

/**
 * Drop both in-process tiers (array results and built components) so
 * the next chip build really runs every organization search.  Clearing
 * only the array tier leaves the component memo to serve the whole
 * chip from its second build on.
 */
void
clearInProcessTiers()
{
    array::ArrayResultCache::instance().clear();
    chip::ComponentMemo::instance().clear();
}

/** Organization-search candidates evaluated so far (process-wide). */
double
candidatesEvaluated()
{
    return static_cast<double>(array::optimizerSearchStats().evaluated);
}

void
BM_CacheSolve(benchmark::State &state)
{
    const tech::Technology t(65);
    for (auto _ : state) {
        array::CacheParams p;
        p.capacityBytes = 1024.0 * 1024;
        p.assoc = 8;
        p.banks = 4;
        p.sequentialAccess = true;
        array::CacheModel m(p, t);
        benchmark::DoNotOptimize(m.readEnergy());
    }
}
BENCHMARK(BM_CacheSolve)->Unit(benchmark::kMillisecond);

void
BM_CoreSolve(benchmark::State &state)
{
    const tech::Technology t(65);
    for (auto _ : state) {
        core::CoreParams p;
        core::Core c(p, t);
        benchmark::DoNotOptimize(c.makeTdpReport().peakDynamic);
    }
}
BENCHMARK(BM_CoreSolve)->Unit(benchmark::kMillisecond);

void
BM_FullChip(benchmark::State &state)
{
    const auto loaded = config::loadSystemParamsFromFile(
        bench::findConfig("niagara.xml"));
    for (auto _ : state) {
        chip::Processor proc(loaded.system);
        benchmark::DoNotOptimize(proc.tdp());
    }
}
BENCHMARK(BM_FullChip)->Unit(benchmark::kMillisecond);

/**
 * Full chip solve with the in-process tiers hot vs cold.  The cold row
 * clears the array tier and the component memo every iteration, so it
 * times a real solve; the warm row is the steady-state cost inside a
 * design-space-exploration loop that rebuilds the same chip, which the
 * component memo serves whole.  `candidates` is the organization-search
 * candidates evaluated per iteration (0 on the warm row).
 */
void
BM_FullChipArrayCache(benchmark::State &state)
{
    const bool cached = state.range(0) != 0;
    const auto loaded = config::loadSystemParamsFromFile(
        bench::findConfig("niagara.xml"));
    auto &cache = array::ArrayResultCache::instance();
    const bool was_enabled = cache.enabled();
    cache.setEnabled(true);
    clearInProcessTiers();
    if (cached)
        chip::Processor warmup(loaded.system);  // prime the memo table
    const double candidates0 = candidatesEvaluated();
    for (auto _ : state) {
        if (!cached)
            clearInProcessTiers();
        chip::Processor proc(loaded.system);
        benchmark::DoNotOptimize(proc.tdp());
    }
    state.counters["candidates"] =
        (candidatesEvaluated() - candidates0) / state.iterations();
    cache.setEnabled(was_enabled);
    clearInProcessTiers();
}
BENCHMARK(BM_FullChipArrayCache)
    ->Arg(0)
    ->Arg(1)
    ->ArgName("warm")
    ->Unit(benchmark::kMillisecond);

/**
 * Persistent-cache scoreboard: a full chip solved with the on-disk
 * cache cold (empty directory, every array solved and persisted) vs
 * warm (records present, memory tier and component memo dropped,
 * every array deserialized from disk).  The `cold_over_warm` counter
 * is the headline: a warm process start should be several times
 * faster than a cold one, which is the point of persisting solutions
 * across runs.  `cold_candidates` / `warm_candidates` count the
 * organization-search candidates each arm evaluated per iteration.
 */
void
BM_ColdVsWarmDiskCache(benchmark::State &state)
{
    namespace fs = std::filesystem;
    using clock = std::chrono::steady_clock;
    const auto loaded = config::loadSystemParamsFromFile(
        bench::findConfig("niagara.xml"));
    auto &cache = array::ArrayResultCache::instance();
    const bool was_enabled = cache.enabled();
    cache.setEnabled(true);
    const fs::path dir = fs::temp_directory_path() /
        ("mcpat_bench_diskcache_" + std::to_string(::getpid()));

    double cold_s = 0.0, warm_s = 0.0;
    double cold_cands = 0.0, warm_cands = 0.0;
    for (auto _ : state) {
        // Cold: no records on disk, no memo entries.
        fs::remove_all(dir);
        cache.setCacheDir(dir.string());
        clearInProcessTiers();
        const double c0 = candidatesEvaluated();
        const auto t0 = clock::now();
        {
            chip::Processor proc(loaded.system);
            benchmark::DoNotOptimize(proc.tdp());
        }
        const auto t1 = clock::now();
        const double c1 = candidatesEvaluated();

        // Warm: records persisted by the cold pass; drop the memory
        // tier and the component memo to simulate a fresh process
        // against a primed cache dir.
        clearInProcessTiers();
        const auto t2 = clock::now();
        {
            chip::Processor proc(loaded.system);
            benchmark::DoNotOptimize(proc.tdp());
        }
        const auto t3 = clock::now();

        cold_s += std::chrono::duration<double>(t1 - t0).count();
        warm_s += std::chrono::duration<double>(t3 - t2).count();
        cold_cands += c1 - c0;
        warm_cands += candidatesEvaluated() - c1;
    }
    const double n = static_cast<double>(state.iterations());
    state.counters["cold_ms"] = 1e3 * cold_s / n;
    state.counters["warm_ms"] = 1e3 * warm_s / n;
    state.counters["cold_over_warm"] = warm_s > 0.0 ? cold_s / warm_s
                                                    : 0.0;
    state.counters["cold_candidates"] = cold_cands / n;
    state.counters["warm_candidates"] = warm_cands / n;
    cache.setCacheDir("");
    cache.setEnabled(was_enabled);
    clearInProcessTiers();
    fs::remove_all(dir);
}
BENCHMARK(BM_ColdVsWarmDiskCache)->Unit(benchmark::kMillisecond);

/**
 * End-to-end scoreboard: the paper's 22 nm case study (8 design points
 * x 8 SPLASH-2 workloads) at 1 vs 4 evaluation threads, with the array
 * tier and the component memo cold each iteration so the full
 * optimization workload is really performed.  On a machine with >= 4
 * cores the 4-thread row should be >= 2x faster end to end; results
 * are bit-identical by the determinism tests.
 */
void
BM_CaseStudy(benchmark::State &state)
{
    parallel::setThreadCount(static_cast<int>(state.range(0)));
    for (auto _ : state) {
        clearInProcessTiers();
        const auto results = study::runCaseStudy();
        benchmark::DoNotOptimize(results.front().meanMetrics.ed2a);
    }
    clearInProcessTiers();
    parallel::setThreadCount(0);
}
BENCHMARK(BM_CaseStudy)
    ->Arg(1)
    ->Arg(4)
    ->ArgName("threads")
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

/**
 * Instrumentation-overhead scoreboard: the same full-chip solve with
 * the instrumentation layer off vs on (spans recording, registry
 * live).  The `overhead_pct` counter is the headline; the layer's
 * budget is < 2% on this workload (sites sit at phase/component
 * granularity, so a solve crosses only a handful of them).  Both arms
 * run with the array cache and the component memo cold — the cost
 * profile of a real CLI run, where every array's organization search
 * actually executes; a cache-hot rebuild finishes in microseconds and
 * would measure the fixed span cost against almost no work.
 * `off_candidates` / `on_candidates` count the candidates each arm
 * evaluated per iteration, so a gate can tell a vacuous measurement
 * (0 candidates) from a real one.  The on arm also runs the
 * flight recorder at a fast cadence, so the budget covers histograms
 * and the background sampler, not just spans and counters.
 */
void
BM_InstrumentationOverhead(benchmark::State &state)
{
    using clock = std::chrono::steady_clock;
    const auto loaded = config::loadSystemParamsFromFile(
        bench::findConfig("niagara.xml"));
    const std::string recorder_csv =
        (std::filesystem::temp_directory_path() /
         "mcpat_bench_recorder.csv")
            .string();

    double off_s = 0.0, on_s = 0.0;
    double off_cands = 0.0, on_cands = 0.0;
    for (auto _ : state) {
        instr::setEnabled(false);
        clearInProcessTiers();
        const double c0 = candidatesEvaluated();
        const auto t0 = clock::now();
        {
            chip::Processor proc(loaded.system);
            benchmark::DoNotOptimize(proc.tdp());
        }
        const auto t1 = clock::now();
        off_cands += candidatesEvaluated() - c0;

        instr::setEnabled(true);
        auto &recorder = instr::FlightRecorder::instance();
        recorder.start(recorder_csv, 10);
        // Wait out the spawn-plus-first-sample startup transient so
        // the timed window sees the recorder's steady state (the
        // sampler interleaving with the solve), not thread creation.
        const auto settle = clock::now() + std::chrono::milliseconds(100);
        while (recorder.samples() == 0 && clock::now() < settle)
            std::this_thread::yield();
        clearInProcessTiers();
        const double c2 = candidatesEvaluated();
        const auto t2 = clock::now();
        {
            chip::Processor proc(loaded.system);
            benchmark::DoNotOptimize(proc.tdp());
        }
        const auto t3 = clock::now();
        on_cands += candidatesEvaluated() - c2;
        recorder.stop();
        instr::setEnabled(false);
        instr::clearTrace();

        off_s += std::chrono::duration<double>(t1 - t0).count();
        on_s += std::chrono::duration<double>(t3 - t2).count();
    }
    clearInProcessTiers();
    instr::Registry::instance().reset();
    std::error_code ec;
    std::filesystem::remove(recorder_csv, ec);
    const double n = static_cast<double>(state.iterations());
    state.counters["off_ms"] = 1e3 * off_s / n;
    state.counters["on_ms"] = 1e3 * on_s / n;
    state.counters["overhead_pct"] =
        off_s > 0.0 ? 100.0 * (on_s - off_s) / off_s : 0.0;
    state.counters["off_candidates"] = off_cands / n;
    state.counters["on_candidates"] = on_cands / n;
}
BENCHMARK(BM_InstrumentationOverhead)->Unit(benchmark::kMillisecond);

} // namespace

BENCHMARK_MAIN();
