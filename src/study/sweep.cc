/**
 * @file
 * Case-study sweep implementation.
 */

#include "study/sweep.hh"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <iomanip>
#include <iostream>
#include <limits>
#include <ostream>
#include <sstream>

#include "chip/processor.hh"
#include "common/cancel.hh"
#include "common/diagnostics.hh"
#include "common/instrument.hh"
#include "common/json_value.hh"
#include "common/parallel.hh"

namespace mcpat {
namespace study {

namespace {

core::CoreParams
makeCore(const CaseStudyConfig &cfg)
{
    core::CoreParams c;
    c.clockRate = cfg.clockRate;
    if (cfg.style == CoreStyle::InOrderMT) {
        c.name = "InOrderMT Core";
        c.outOfOrder = false;
        c.threads = 4;
        c.fetchWidth = c.decodeWidth = c.issueWidth = c.commitWidth = 2;
        c.pipelineStages = 8;
        c.intAlus = 2;
        c.fpus = 1;
        c.muls = 1;
        c.icache.capacityBytes = 16 * 1024;
        c.dcache.capacityBytes = 8 * 1024;
        c.loadQueueEntries = 8;
        c.storeQueueEntries = 8;
        c.hasBranchPredictor = false;
        c.dynamicMargin = 1.8;
    } else {
        c.name = "OoO Core";
        c.outOfOrder = true;
        c.threads = 1;
        c.fetchWidth = c.decodeWidth = c.commitWidth = 4;
        c.issueWidth = 4;
        c.pipelineStages = 12;
        c.robEntries = 128;
        c.intWindowEntries = 48;
        c.fpWindowEntries = 24;
        c.physIntRegs = 160;
        c.physFpRegs = 128;
        c.intAlus = 3;
        c.fpus = 2;
        c.muls = 1;
        c.icache.capacityBytes = 32 * 1024;
        c.dcache.capacityBytes = 32 * 1024;
        c.loadQueueEntries = 32;
        c.storeQueueEntries = 24;
        c.dynamicMargin = 1.8;
    }
    return c;
}

// Sweep evaluation counters: cheap internal atomics mirrored into the
// instrumentation registry by a collector (the registry pattern every
// subsystem follows, so the hot path never pays for observation).
std::atomic<std::uint64_t> g_full_evals{0};
std::atomic<std::uint64_t> g_replayed{0};

[[maybe_unused]] const bool g_sweep_collector_registered =
    instr::Registry::instance().addCollector([](instr::Registry &reg) {
        reg.gauge("sweep.full_evals")
            .set(static_cast<double>(
                g_full_evals.load(std::memory_order_relaxed)));
        reg.gauge("sweep.replayed")
            .set(static_cast<double>(
                g_replayed.load(std::memory_order_relaxed)));
    });

/** Append "512K" / "1M" / "1.5M" for a byte count (label suffixes). */
void
appendBytesSuffix(std::string &out, double bytes)
{
    const bool mib = bytes >= 1024.0 * 1024.0;
    appendNumber(out, bytes / (mib ? 1024.0 * 1024.0 : 1024.0),
                 kStreamPrecision);
    out += mib ? 'M' : 'K';
}

/**
 * Does the journal header's "work" member match this run's value?
 * A journaled null (the serialization of a non-finite work) matches
 * exactly the non-finite case; anything absent or non-numeric never
 * matches a finite value.  The old exact `double ==` against
 * JsonValue::getNumber() silently discarded valid journals whose work
 * was non-finite (null parses as the 0.0 default) — and, worse,
 * *falsely matched* them when the new run's work really was 0.0.
 * Two finite doubles share a round-trip representation exactly when
 * they are equal, so comparing those strings is the identity test.
 */
bool
journalWorkMatches(const common::JsonValue &hdr, double work)
{
    const common::JsonValue *v = hdr.find("work");
    if (!v)
        return false;
    if (v->isNull())
        return !std::isfinite(work);
    if (!v->isNumber())
        return false;
    return jsonRoundTrip(v->number) == jsonRoundTrip(work);
}

} // namespace

void
appendSweepPointFields(std::string &out, const DesignPointResult &r)
{
    out += "\"key\": \"";
    appendJsonEscaped(out, r.config.key());
    out += "\", \"label\": \"";
    appendJsonEscaped(out, r.config.label());
    out += '"';
    const std::pair<const char *, double> numbers[] = {
        {"area", r.area},
        {"tdp", r.tdp},
        {"mean_throughput", r.meanThroughput},
        {"mean_power", r.meanPower},
        {"ed", r.meanMetrics.ed},
        {"ed2", r.meanMetrics.ed2},
        {"eda", r.meanMetrics.eda},
        {"ed2a", r.meanMetrics.ed2a}};
    for (const auto &[name, v] : numbers) {
        out += ", \"";
        out += name;
        out += "\": ";
        appendJsonNumber(out, v, kRoundTripPrecision);
    }
}

SweepEvalStats
sweepEvalStats()
{
    SweepEvalStats s;
    s.fullEvaluations = g_full_evals.load(std::memory_order_relaxed);
    s.replayed = g_replayed.load(std::memory_order_relaxed);
    return s;
}

void
resetSweepEvalStats()
{
    g_full_evals.store(0, std::memory_order_relaxed);
    g_replayed.store(0, std::memory_order_relaxed);
}

std::pair<int, int>
meshDims(int n)
{
    fatalIf(n < 1, "mesh needs at least one node");
    // Exact near-square factorizations are waste-free and keep the
    // historical shapes (8 -> 2x4, 16 -> 4x4, 64 -> 8x8).  A plain
    // largest-divisor search degenerates to a 1xN chain for primes
    // (7 -> 1x7), silently inflating hop counts and link power, so
    // instead pick the smallest grid with nx*ny >= n whose aspect
    // ratio stays within 2:1, padding with idle slots when n does not
    // factor (7 -> 2x4).
    std::pair<int, int> best{1, n};
    long best_cells = std::numeric_limits<long>::max();
    double best_aspect = std::numeric_limits<double>::max();
    for (int nx = 1; (nx - 1) * (nx - 1) < n; ++nx) {
        const int ny = (n + nx - 1) / nx;
        if (ny < nx)
            continue;  // canonical orientation: nx <= ny
        const double aspect = static_cast<double>(ny) / nx;
        if (n > 2 && aspect > 2.0)
            continue;
        const long cells = static_cast<long>(nx) * ny;
        if (cells < best_cells ||
            (cells == best_cells && aspect < best_aspect)) {
            best = {nx, ny};
            best_cells = cells;
            best_aspect = aspect;
        }
    }
    return best;
}

std::string
CaseStudyConfig::label() const
{
    const std::string style_name =
        (style == CoreStyle::InOrderMT) ? "inorder" : "ooo";
    std::string l = style_name + "-c" + std::to_string(coresPerCluster);
    // Append only the knobs that deviate from the paper's defaults:
    // the classic 8-point sweep keeps its historical names, while the
    // enlarged search space stays unambiguous to a human.
    const CaseStudyConfig defaults;
    if (totalCores != defaults.totalCores)
        l += "-n" + std::to_string(totalCores);
    if (clockRate != defaults.clockRate) {
        l += '-';
        appendNumber(l, clockRate / 1e9, kStreamPrecision);
        l += "GHz";
    }
    if (l2BytesPerCore != defaults.l2BytesPerCore) {
        l += "-l2";
        appendBytesSuffix(l, l2BytesPerCore);
    }
    if (nodeNm != defaults.nodeNm)
        l += "-" + std::to_string(nodeNm) + "nm";
    return l;
}

std::string
CaseStudyConfig::key() const
{
    std::string k = "node=" + std::to_string(nodeNm) + ";clk=";
    appendNumber(k, clockRate, kRoundTripPrecision);
    k += ";cores=" + std::to_string(totalCores) +
         ";cluster=" + std::to_string(coresPerCluster) +
         ";style=" + std::to_string(static_cast<int>(style)) + ";l2pc=";
    appendNumber(k, l2BytesPerCore, kRoundTripPrecision);
    return k;
}

chip::SystemParams
makeCaseStudySystem(const CaseStudyConfig &cfg)
{
    fatalIf(cfg.totalCores % cfg.coresPerCluster != 0,
            "cluster size must divide the core count");

    chip::SystemParams s;
    s.name = cfg.label();
    s.nodeNm = cfg.nodeNm;
    s.numCores = cfg.totalCores;
    s.core = makeCore(cfg);

    // One L2 per cluster, sized by its share of the per-core budget;
    // banked per sharer to keep port pressure flat across clusterings.
    s.numL2 = cfg.clusters();
    s.l2.name = "L2";
    s.l2.capacityBytes = cfg.l2BytesPerCore * cfg.coresPerCluster;
    s.l2.assoc = 8;
    s.l2.banks = cfg.coresPerCluster;
    s.l2.clockRate = cfg.clockRate / 2.0;
    s.l2.directorySharers = cfg.coresPerCluster;
    s.l2.flavor = tech::DeviceFlavor::LSTP;

    s.hasNoc = true;
    const auto [nx, ny] = meshDims(cfg.clusters());
    s.noc.topology = (cfg.clusters() >= 8)
        ? uncore::NocTopology::Mesh2D
        : uncore::NocTopology::Crossbar;
    s.noc.nodesX = nx;
    s.noc.nodesY = ny;
    s.noc.flitBits = 128;
    s.noc.linkLength = 1.5 * mm;
    s.noc.clockRate = cfg.clockRate / 2.0;

    s.hasMemCtrl = true;
    s.memCtrl.channels = 4;
    s.memCtrl.dataBusBits = 64;
    s.memCtrl.busClock = 800.0 * MHz;
    s.memCtrl.dramType = uncore::DramType::DDR3;

    s.hasIo = true;
    s.io.signalPins = 300;
    s.io.ioVoltage = 1.2;
    s.io.staticPower = 1.5;

    s.whiteSpaceFraction = 0.10;
    return s;
}

DesignPointResult
evaluateDesignPoint(const CaseStudyConfig &cfg, double work)
{
    MCPAT_SPAN("sweep.design_point", cfg.label());
    cancel::checkpoint();
    g_full_evals.fetch_add(1, std::memory_order_relaxed);
    DesignPointResult result;
    result.config = cfg;

    const chip::SystemParams sys = makeCaseStudySystem(cfg);
    const chip::Processor proc(sys);
    result.area = proc.area();
    result.tdp = proc.tdp();

    // Workloads are independent: evaluate each into its own slot in
    // parallel, then aggregate serially in workload order so every
    // floating-point reduction matches the serial path bit for bit.
    const auto &workloads = perf::splash2Workloads();
    result.workloads.resize(workloads.size());
    std::vector<std::string> metric_errors(workloads.size());
    parallel::parallelFor(workloads.size(), [&](std::size_t i) {
        cancel::checkpoint();
        const perf::Workload &w = workloads[i];
        WorkloadResult wr;
        wr.workload = w.name;
        wr.performance = perf::evaluateSystem(sys, w);

        const stats::ChipStats rt =
            perf::makeRuntimeStats(sys, w, wr.performance);
        const Report rep = proc.makeReport(rt);
        wr.runtimePower = rep.runtimePower();

        wr.figures.delay = work / wr.performance.throughput;
        wr.figures.power = wr.runtimePower;
        wr.figures.energy = wr.runtimePower * wr.figures.delay;
        wr.figures.area = result.area;
        wr.metrics = computeMetrics(wr.figures, &metric_errors[i]);
        result.workloads[i] = std::move(wr);
    });

    // A degenerate workload failed *its* metrics (NaN, serialized as
    // JSON null), not the sweep: surface it as a located diagnostic
    // naming the design point and workload, and let the NaN propagate
    // into the affected aggregates.
    for (std::size_t i = 0; i < result.workloads.size(); ++i) {
        if (!metric_errors[i].empty()) {
            result.diagnostics.add(Severity::Warning, cfg.label(),
                                   result.workloads[i].workload,
                                   metric_errors[i]);
        }
    }

    std::vector<double> eds, ed2s, edas, ed2as, powers;
    double tput_sum = 0.0;
    for (const auto &wr : result.workloads) {
        tput_sum += wr.performance.throughput;
        powers.push_back(wr.runtimePower);
        eds.push_back(wr.metrics.ed);
        ed2s.push_back(wr.metrics.ed2);
        edas.push_back(wr.metrics.eda);
        ed2as.push_back(wr.metrics.ed2a);
    }

    std::string agg_error;
    const auto aggregate = [&](const char *name,
                               const std::vector<double> &vals) {
        std::string why;
        const double g = geomean(vals, &why);
        if (!why.empty() && agg_error.empty()) {
            agg_error = why;
            result.diagnostics.add(Severity::Warning, cfg.label(), name,
                                   "aggregate is non-finite: " + why);
        }
        return g;
    };

    result.meanThroughput = tput_sum / result.workloads.size();
    result.meanPower = aggregate("mean_power", powers);
    result.meanMetrics.ed = aggregate("ed", eds);
    result.meanMetrics.ed2 = aggregate("ed2", ed2s);
    result.meanMetrics.eda = aggregate("eda", edas);
    result.meanMetrics.ed2a = aggregate("ed2a", ed2as);
    return result;
}

std::vector<CaseStudyConfig>
caseStudyConfigs()
{
    std::vector<CaseStudyConfig> configs;
    for (CoreStyle style :
         {CoreStyle::InOrderMT, CoreStyle::OutOfOrder}) {
        for (int cluster : {1, 2, 4, 8}) {
            CaseStudyConfig cfg;
            cfg.style = style;
            cfg.coresPerCluster = cluster;
            configs.push_back(cfg);
        }
    }
    return configs;
}

namespace {

/** One completed design point as a journal payload (aggregates only:
 *  per-workload detail is cheap to reconstruct and expensive to
 *  serialize faithfully, so resume trades it away explicitly). */
std::string
sweepItemPayload(const DesignPointResult &r)
{
    std::string out;
    out.reserve(512);
    out += "{\"type\": \"point\", ";
    appendSweepPointFields(out, r);
    out += '}';
    return out;
}

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

/** Largest commit: a kill loses at most this many finished points of
 *  a round larger than it (an exhaustive grid), at one fsync per
 *  chunk. */
constexpr std::size_t kMaxPointsPerCommit = 64;

} // namespace

SweepJournalSession::SweepJournalSession(const SweepJournalOptions &journal,
                                         double work)
    : _work(work),
      _journal(journal.path, journal.resume,
               "{\"schema\": \"mcpat-sweep-journal-v2\", \"work\": " +
                   jsonRoundTrip(work) + "}",
               [work](const common::JsonValue &hdr) {
                   return hdr.getString("schema") ==
                              "mcpat-sweep-journal-v2" &&
                       journalWorkMatches(hdr, work);
               },
               "study.sweep", std::cerr)
{
    // A resumed journal's points, keyed by the canonical design-point
    // key, are the replay set.
    for (const std::string &record : _journal.records()) {
        common::JsonValue v;
        if (!common::jsonParse(record, v) || v.getString("type") != "point")
            continue;
        DesignPointResult r;
        r.aggregatesOnly = true;
        // Journaled nulls (non-finite figures) replay as NaN, matching
        // what a fresh evaluation would produce.
        r.area = v.getNumber("area", kNaN);
        r.tdp = v.getNumber("tdp", kNaN);
        r.meanThroughput = v.getNumber("mean_throughput", kNaN);
        r.meanPower = v.getNumber("mean_power", kNaN);
        r.meanMetrics.ed = v.getNumber("ed", kNaN);
        r.meanMetrics.ed2 = v.getNumber("ed2", kNaN);
        r.meanMetrics.eda = v.getNumber("eda", kNaN);
        r.meanMetrics.ed2a = v.getNumber("ed2a", kNaN);
        _replay[v.getString("key")] = std::move(r);
    }
}

std::vector<DesignPointResult>
SweepJournalSession::evaluateRound(
    const std::vector<CaseStudyConfig> &configs)
{
    // The parallel body only fills its slots (result and, for a fresh
    // point, its journal record).  A chunk's slots are committed in
    // index order once the chunk is done, or once a cancel or error
    // has stopped it, so a kill loses at most the chunk in flight and
    // an exception loses no point that finished.
    std::vector<DesignPointResult> results(configs.size());
    const bool journaling = _journal.isOpen();
    instr::ProgressMeter progress("sweep", configs.size());
    for (std::size_t begin = 0; begin < configs.size();
         begin += kMaxPointsPerCommit) {
        const std::size_t n =
            std::min(kMaxPointsPerCommit, configs.size() - begin);
        std::vector<std::string> records(n);
        const auto evaluate = [&](std::size_t k) {
            const std::size_t i = begin + k;
            const auto rep = _replay.find(configs[i].key());
            if (rep != _replay.end()) {
                g_replayed.fetch_add(1, std::memory_order_relaxed);
                results[i] = rep->second;
                results[i].config = configs[i];
            } else {
                const std::uint64_t t0 =
                    instr::enabled() ? instr::nowNanos() : 0;
                results[i] = evaluateDesignPoint(configs[i], _work);
                if (instr::enabled())
                    instr::Registry::instance()
                        .histogram("sweep.point_ms")
                        .record((instr::nowNanos() - t0) * 1e-6);
                if (journaling)
                    records[k] = sweepItemPayload(results[i]);
            }
            progress.tick();
        };
        // An empty slot is a replayed point, or one an exception
        // stopped.
        const auto commit = [&] {
            std::erase(records, std::string());
            _journal.commit(records);
        };
        try {
            parallel::parallelFor(n, evaluate);
        } catch (...) {
            commit();
            throw;
        }
        commit();
    }
    return results;
}

std::vector<DesignPointResult>
evaluateDesignPoints(const std::vector<CaseStudyConfig> &configs,
                     double work, const SweepJournalOptions &journal)
{
    return SweepJournalSession(journal, work).evaluateRound(configs);
}

std::vector<DesignPointResult>
runCaseStudy(double work)
{
    // Design points are independent; evaluate them in parallel into
    // ordered slots (the result vector keeps the serial sweep order).
    return evaluateDesignPoints(caseStudyConfigs(), work,
                                SweepJournalOptions{});
}

namespace {

/** Fixed-width numeric cell; "-" for non-finite values. */
std::string
numberCell(double v)
{
    if (!std::isfinite(v))
        return "-";
    std::ostringstream os;
    os << std::setprecision(4) << v;
    return os.str();
}

} // namespace

void
printDesignPointWorkloads(std::ostream &os, const DesignPointResult &r)
{
    if (r.aggregatesOnly) {
        // An empty section would read as "no workloads ran"; say what
        // actually happened instead.
        os << "    (per-workload detail unavailable: point replayed "
              "from the sweep journal, aggregates only)\n";
        return;
    }
    os << "    " << std::left << std::setw(12) << "workload"
       << std::right << std::setw(12) << "IPS" << std::setw(10) << "W"
       << std::setw(12) << "ED" << std::setw(12) << "ED^2"
       << std::setw(12) << "EDA" << std::setw(12) << "ED^2A" << "\n";
    for (const auto &w : r.workloads) {
        os << "    " << std::left << std::setw(12) << w.workload
           << std::right << std::setw(12)
           << numberCell(w.performance.throughput) << std::setw(10)
           << numberCell(w.runtimePower) << std::setw(12)
           << numberCell(w.metrics.ed) << std::setw(12)
           << numberCell(w.metrics.ed2) << std::setw(12)
           << numberCell(w.metrics.eda) << std::setw(12)
           << numberCell(w.metrics.ed2a) << "\n";
    }
}

} // namespace study
} // namespace mcpat
