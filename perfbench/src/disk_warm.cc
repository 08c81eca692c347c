/**
 * @file
 * disk_warm: a later run that finds the persistent array tier full.
 * One caller, one model thread.  Set-up fills a fresh disk-tier
 * directory by evaluating cold_chip's chip set once (durable record
 * writes); every op clears the component memo and the array memory
 * tier and evaluates one chip from the disk records.  The only
 * workload that reaches array/disk_cache and common/serialize: record
 * writes land in setup_s, record reads in the ops.
 */

#include <filesystem>

#include "gen.hh"
#include "workloads.hh"

namespace perfbench {

std::string
guardDiskOp(const Counters &op)
{
    if (op.candidates != 0)
        return "disk_warm op evaluated " + std::to_string(op.candidates) +
               " optimizer candidates (disk records missing)";
    if (op.diskHits == 0)
        return "disk_warm op read no disk records";
    return "";
}

namespace {

namespace fs = std::filesystem;

std::size_t
countFiles(const std::string &dir)
{
    std::size_t n = 0;
    for (const auto &e : fs::recursive_directory_iterator(dir))
        n += e.is_regular_file();
    return n;
}

} // namespace

RunResult
runDiskWarm(const RunOptions &o)
{
    RunResult r;
    setProgramState(1, "");
    std::vector<ChipInput> chips;
    std::vector<std::size_t> order;
    std::string dir;
    int rep = 0;
    std::vector<double> fill_ms;
    std::size_t records = 0;

    // Set-up: input generation plus filling a fresh disk tier.
    const double setup_s = medianSetupSeconds(kDiskSetupRounds, [&] {
        chips = chipSet(o.seed, kChipsPerBase);
        order = seededOrder(o.seed, chips.size());
        if (!dir.empty())
            fs::remove_all(dir);
        dir = o.workDir + "/disk-" + std::to_string(rep++);
        fs::create_directories(dir);
        setProgramState(1, dir);
        const double t0 = nowSeconds();
        for (const ChipInput &c : chips) {
            ++r.attempted;
            const std::string bad =
                checkEval(evalFromClearedTiers(c.xml).result);
            if (!bad.empty())
                r.fail("fill " + c.name + ": " + bad);
        }
        fill_ms.push_back((nowSeconds() - t0) * 1e3);
        records = countFiles(dir);
    }, false);  // mostly record writes: a round per CPU would cost 4 fills

    ReportBook book;
    auto checked = [&](std::size_t idx, const EvalOp &d) {
        std::string bad = book.check(idx, d.result);
        if (bad.empty())
            bad = guardDiskOp(d.delta);
        return bad.empty() ? bad : chips[idx].name + ": " + bad;
    };
    bool tracing = false;
    EvalTotals totals;
    Counters counters;
    double wall_ms = 0.0;
    std::size_t next = 0;
    auto op = [&](int, std::size_t) {
        const std::size_t idx = order[next++ % order.size()];
        // The disk tier keeps its records across the clear.
        const EvalOp d = evalFromClearedTiers(chips[idx].xml);
        if (tracing) {
            totals.add(d.result);
            counters += d.delta;
            wall_ms += d.ms;
        }
        return OpOutcome{d.ms, checked(idx, d)};
    };

    LoopResult plain, traced;
    SpanStats spans;
    if (!o.trace) {
        plain = closedLoop(1, o.seconds, op, true);
    } else {
        plain = closedLoop(1, o.seconds / 2, op, true);
        beginTrace();
        tracing = true;
        traced = closedLoop(1, o.seconds / 2, op, true);
        tracing = false;
        spans = endTrace();
    }
    absorb(r, plain);
    absorb(r, traced);

    // Exact per-op counts: one disk-tier op per chip of the set.
    Counters census;
    if (o.trace) {
        for (std::size_t idx = 0; idx < chips.size(); ++idx) {
            const EvalOp d = evalFromClearedTiers(chips[idx].xml);
            census += d.delta;
            ++r.attempted;
            if (const std::string bad = checked(idx, d); !bad.empty())
                r.fail(bad);
        }
    }

    // Reports built from disk records must equal cold_chip's: a cold
    // solve of the same chip with no disk tier.
    setProgramState(1, "");
    for (const auto &[idx, fp] : book.seen()) {
        if (ReportBook::fingerprint(
                evalFromClearedTiers(chips[idx].xml).result.reportJson) !=
            fp)
            r.fail(chips[idx].name +
                   ": report from disk records differs from a cold solve");
    }

    if (!o.trace) {
        addEndToEnd(r, setup_s, plain);
        return r;
    }
    addEvalLayerMetrics(r, traced.attempted, wall_ms, totals, counters,
                        spans);
    addCountMetrics(r, census, chips.size());
    auto &m = r.metrics;
    m["array.disk_fill_ms_per_record"] =
        records ? quantile(fill_ms, 0.5) / records : 0.0;
    m["trace.overhead_pct"] = traceOverheadPct(plain, traced);
    std::vector<mcpat::chip::SystemParams> systems;
    for (const ChipInput &c : chips)
        systems.push_back(systemOf(c.xml));
    m["tech.construct_us"] = techConstructUs(systems);
    return r;
}

} // namespace perfbench
