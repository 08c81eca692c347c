/**
 * @file
 * Experiment M1: modeling speed (google-benchmark).  The paper's core
 * claim of practicality is that a full chip models in well under a
 * second — fast enough to embed in design-space-exploration loops —
 * unlike EDA flows.  Per-layer speed at each cache state is measured
 * by perfbench (`cold_chip`, `disk_warm`, ...); this bench keeps the
 * two scoreboards perfbench does not cover: the 22 nm case study at 1
 * vs 4 threads, and the instrumentation layer's overhead (a CI gate).
 */

#include <benchmark/benchmark.h>

#include <chrono>
#include <filesystem>
#include <thread>

#include "array/array_cache.hh"
#include "array/array_model.hh"
#include "chip/component_memo.hh"
#include "chip/processor.hh"
#include "common/flight_recorder.hh"
#include "common/instrument.hh"
#include "common/parallel.hh"
#include "config/xml_loader.hh"
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
