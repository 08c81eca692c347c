/**
 * @file
 * sweep_search: a design-space-exploration user's run.  One caller,
 * two model threads; every op clears both in-process tiers and runs the
 * Pareto-frontier search over a seeded space shaped like
 * SweepSpace::reference(), journaling into a fresh directory as
 * `-sweep_search` does.  Most memo and array lookups hit within the
 * op, so this exercises parallelFor granularity, racing duplicate
 * builds, the perf/metrics layer and journal appends.
 */

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <filesystem>

#include "common/parallel.hh"
#include "gen.hh"
#include "workloads.hh"

namespace perfbench {

namespace {

namespace fs = std::filesystem;
using mcpat::study::SweepSearchResult;

constexpr int kSweepThreads = 2;

/** with/without-journal op pairs timed for sweep.journal_ms_per_op. */
constexpr int kJournalPairs = 5;

struct SweepOp
{
    SweepSearchResult result;
    Counters delta;
    double ms = 0.0;
};

/** One search from cleared tiers; journals under @p dir unless empty. */
SweepOp
runSweepOp(const mcpat::study::SweepSpace &space, const std::string &dir)
{
    clearInProcessTiers();
    mcpat::study::SweepSearchOptions opts;
    if (!dir.empty()) {
        fs::create_directories(dir);
        opts.journal.path = dir + "/sweep_journal.jsonl";
    }
    SweepOp op;
    const Counters before = readCounters();
    const double t0 = nowSeconds();
    op.result = mcpat::study::runSweepSearch(space, opts);
    op.ms = (nowSeconds() - t0) * 1e3;
    op.delta = readCounters() - before;
    if (!dir.empty())
        fs::remove_all(dir);
    return op;
}

/** Frontier flat indices plus the bits of each frontier point's figures. */
std::string
frontierSignature(const SweepSearchResult &r)
{
    std::string sig;
    for (std::size_t f : r.frontier) {
        auto it = std::lower_bound(
            r.points.begin(), r.points.end(), f,
            [](const auto &p, std::size_t idx) { return p.index < idx; });
        if (it == r.points.end() || it->index != f)
            return "frontier index " + std::to_string(f) + " not evaluated";
        const auto &d = it->result;
        char buf[160];
        std::snprintf(
            buf, sizeof buf, "%zu:%llx,%llx,%llx,%llx,%llx,%llx;", f,
            static_cast<unsigned long long>(std::bit_cast<std::uint64_t>(
                d.meanMetrics.ed)),
            static_cast<unsigned long long>(std::bit_cast<std::uint64_t>(
                d.meanMetrics.ed2)),
            static_cast<unsigned long long>(std::bit_cast<std::uint64_t>(
                d.meanMetrics.eda)),
            static_cast<unsigned long long>(std::bit_cast<std::uint64_t>(
                d.meanMetrics.ed2a)),
            static_cast<unsigned long long>(
                std::bit_cast<std::uint64_t>(d.area)),
            static_cast<unsigned long long>(
                std::bit_cast<std::uint64_t>(d.tdp)));
        sig += buf;
    }
    return sig;
}

std::string
checkSweep(const SweepSearchResult &r)
{
    if (r.frontier.empty())
        return "empty frontier";
    for (const auto &p : r.points) {
        if (!(std::isfinite(p.result.area) && p.result.area > 0.0 &&
              std::isfinite(p.result.tdp) && p.result.tdp > 0.0))
            return "point " + std::to_string(p.index) +
                   ": area/TDP not finite and positive";
        if (!p.result.meanMetrics.finite() &&
            std::binary_search(r.frontier.begin(), r.frontier.end(),
                               p.index))
            return "frontier point " + std::to_string(p.index) +
                   " has non-finite metrics";
    }
    return "";
}

} // namespace

RunResult
runSweepSearch(const RunOptions &o)
{
    RunResult r;
    setProgramState(kSweepThreads, "");
    mcpat::study::SweepSpace space;
    std::string first_sig;
    std::size_t next = 0;
    auto journalDir = [&] {
        return o.workDir + "/sweep-" + std::to_string(next++);
    };
    // Every op must reproduce the warm-up's frontier bit for bit.
    auto checked = [&](const SweepOp &op) {
        std::string bad = checkSweep(op.result);
        const std::string sig = frontierSignature(op.result);
        if (bad.empty() && sig != first_sig)
            bad = "frontier differs from the first search";
        return bad;
    };

    // Set-up: space generation plus one warm-up search.
    const double setup_s = medianSetupSeconds(kSweepSetupRounds, [&] {
        space = sweepSpace(o.seed);
        const SweepOp w = runSweepOp(space, journalDir());
        first_sig = frontierSignature(w.result);
        ++r.attempted;
        if (const std::string bad = checked(w); !bad.empty())
            r.fail("warm-up: " + bad);
    }, false);  // starts the model thread pool

    bool tracing = false;
    Counters counters;
    double wall_ms = 0.0, evals = 0.0, rounds = 0.0;
    auto op = [&](int, std::size_t) {
        const SweepOp s = runSweepOp(space, journalDir());
        if (tracing) {
            counters += s.delta;
            wall_ms += s.ms;
            evals += s.result.fullEvaluations;
            rounds += s.result.rounds;
        }
        return OpOutcome{s.ms, checked(s)};
    };

    LoopResult plain, traced;
    SpanStats spans;
    if (!o.trace) {
        plain = closedLoop(1, o.seconds, op, true);
        absorb(r, plain);
    } else {
        plain = closedLoop(1, o.seconds / 2, op, true);
        beginTrace();
        tracing = true;
        traced = closedLoop(1, o.seconds / 2, op, true);
        tracing = false;
        spans = endTrace();
        absorb(r, plain);
        absorb(r, traced);
    }

    // The searched frontier must equal the exhaustive grid's, in
    // indices and metric bits; computed once, outside the timed phase.
    clearInProcessTiers();
    mcpat::study::SweepSearchOptions exhaustive;
    exhaustive.exhaustive = true;
    if (frontierSignature(mcpat::study::runSweepSearch(space, exhaustive)) !=
        first_sig) {
        r.failed = r.attempted;
        r.errors.push_back("searched frontier differs from the "
                           "exhaustive grid's");
    }

    if (!o.trace) {
        addEndToEnd(r, setup_s, plain);
        return r;
    }

    const double n = static_cast<double>(traced.attempted);
    addEvalLayerMetrics(r, traced.attempted, wall_ms, EvalTotals{},
                        counters, spans);
    auto &m = r.metrics;
    m["chip.assemble_ms"] =
        spans.total("assemble") / std::max<std::uint64_t>(1, spans.n("assemble"));
    m["sweep.full_evals_per_op"] = evals / n;
    m["sweep.rounds_per_op"] = rounds / n;
    m["sweep.point_self_ms"] =
        spans.self("sweep.design_point") /
        std::max<std::uint64_t>(1, spans.n("sweep.design_point"));
    const double busy =
        spans.total("sweep.design_point") / (kSweepThreads * wall_ms);
    m["parallel.busy_frac"] = busy;
    // With two threads span time is thread time; what the design
    // points leave idle is the serial share (frontier, journal, joins).
    m["layers.unaccounted_frac"] = 1.0 - busy;
    m["trace.overhead_pct"] = traceOverheadPct(plain, traced);

    // Journal cost: alternate ops with and without it, untraced.
    std::vector<double> with, without;
    for (int i = 0; i < kJournalPairs; ++i) {
        with.push_back(runSweepOp(space, journalDir()).ms);
        without.push_back(runSweepOp(space, "").ms);
    }
    m["sweep.journal_ms_per_op"] = quantile(with, 0.5) - quantile(without, 0.5);

    // Duplicate work that threads hide: memo builds and array solves
    // of one op at one model thread over the same counts per op here.
    mcpat::parallel::setThreadCount(1);
    const SweepOp one = runSweepOp(space, "");
    mcpat::parallel::setThreadCount(kSweepThreads);
    m["memo.useful_build_frac"] =
        counters.memoMisses ? one.delta.memoMisses * n / counters.memoMisses
                            : 0.0;
    m["array.useful_solve_frac"] =
        counters.arrayMisses
            ? one.delta.arrayMisses * n / counters.arrayMisses
            : 0.0;

    m["tech.construct_us"] =
        techConstructUs({mcpat::study::makeCaseStudySystem(space.at(0))});
    return r;
}

} // namespace perfbench
