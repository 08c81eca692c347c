/**
 * @file
 * cold_chip: a user's first run of a new chip.  One caller, one model
 * thread; every op clears the component memo and the array memory tier
 * (no disk tier) and evaluates one chip of a seeded set of distinct
 * perturbations of the shipped configs.  About 90% of op time is the
 * array optimizer, so array-layer changes move this workload.
 */

#include "gen.hh"
#include "workloads.hh"

namespace perfbench {

std::string
guardColdOp(const Counters &op)
{
    if (op.candidates == 0)
        return "cold op evaluated no optimizer candidates (a cache tier "
               "was not cleared)";
    return "";
}

RunResult
runColdChip(const RunOptions &o)
{
    RunResult r;
    setProgramState(1, "");
    std::vector<ChipInput> chips;
    std::vector<std::size_t> order;
    ReportBook book;
    auto checked = [&](std::size_t idx, const EvalOp &op) {
        std::string bad = book.check(idx, op.result);
        if (bad.empty())
            bad = guardColdOp(op.delta);
        return bad.empty() ? bad : chips[idx].name + ": " + bad;
    };

    // Set-up: input generation plus one warm-up op.
    const double setup_s = medianSetupSeconds(kColdSetupRounds, [&] {
        chips = chipSet(o.seed, kChipsPerBase);
        order = seededOrder(o.seed, chips.size());
        ++r.attempted;
        const std::string bad =
            checked(order[0], evalFromClearedTiers(chips[order[0]].xml));
        if (!bad.empty())
            r.fail("warm-up: " + bad);
    }, true);

    bool tracing = false;
    EvalTotals totals;
    Counters counters;
    double wall_ms = 0.0;
    std::size_t next = 1;  // op sequence continues across phases
    auto op = [&](int, std::size_t) {
        const std::size_t idx = order[next++ % order.size()];
        const EvalOp c = evalFromClearedTiers(chips[idx].xml);
        if (tracing) {
            totals.add(c.result);
            counters += c.delta;
            wall_ms += c.ms;
        }
        return OpOutcome{c.ms, checked(idx, c)};
    };

    if (!o.trace) {
        const LoopResult loop = closedLoop(1, o.seconds, op, true);
        absorb(r, loop);
        addEndToEnd(r, setup_s, loop);
        return r;
    }
    const LoopResult plain = closedLoop(1, o.seconds / 2, op, true);
    beginTrace();
    tracing = true;
    const LoopResult traced = closedLoop(1, o.seconds / 2, op, true);
    tracing = false;
    const SpanStats spans = endTrace();
    absorb(r, plain);
    absorb(r, traced);
    addEvalLayerMetrics(r, traced.attempted, wall_ms, totals, counters,
                        spans);
    Counters census;
    for (std::size_t idx = 0; idx < chips.size(); ++idx) {
        const EvalOp c = evalFromClearedTiers(chips[idx].xml);
        census += c.delta;
        ++r.attempted;
        if (const std::string bad = checked(idx, c); !bad.empty())
            r.fail(bad);
    }
    addCountMetrics(r, census, chips.size());
    std::vector<mcpat::chip::SystemParams> systems;
    for (const ChipInput &c : chips)
        systems.push_back(systemOf(c.xml));
    r.metrics["tech.construct_us"] = techConstructUs(systems);
    r.metrics["trace.overhead_pct"] = traceOverheadPct(plain, traced);
    return r;
}

} // namespace perfbench
