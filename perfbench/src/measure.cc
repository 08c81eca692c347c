/**
 * @file
 * Measurement plumbing shared by the workloads.
 */

#include "measure.hh"

#include <sched.h>
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <thread>

#include "array/array_cache.hh"
#include "array/array_model.hh"
#include "bench/published_data.hh"
#include "chip/component_memo.hh"
#include "common/json_value.hh"
#include "common/parallel.hh"
#include "common/serialize.hh"
#include "common/units.hh"
#include "gen.hh"
#include "tech/technology.hh"

namespace perfbench {

namespace {

constexpr std::size_t kMaxErrors = 8;

void
keepError(std::vector<std::string> &errors, const std::string &why)
{
    if (errors.size() < kMaxErrors)
        errors.push_back(why);
}

double
ratio(double a, double b)
{
    return b > 0.0 ? a / b : 0.0;
}

/** The CPUs the calling thread may run on, and their mask. */
std::vector<int>
allowedCpus(cpu_set_t &mask)
{
    std::vector<int> cpus;
    CPU_ZERO(&mask);
    if (sched_getaffinity(0, sizeof mask, &mask) == 0) {
        for (int k = 0; k < CPU_SETSIZE; ++k)
            if (CPU_ISSET(k, &mask))
                cpus.push_back(k);
    }
    return cpus;
}

/** Pin the calling thread to @p cpu (best effort). */
void
pinTo(int cpu)
{
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    sched_setaffinity(0, sizeof one, &one);
}

/** CPU time of the calling thread, seconds. */
double
threadCpuSeconds()
{
    timespec ts{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return ts.tv_sec + 1e-9 * ts.tv_nsec;
}

} // namespace

const MetricList &
endToEndMetrics()
{
    static const MetricList m = {
        {"setup_s", "s"},
        {"ops_per_s", "1/s"},
        {"latency_p50_ms", "ms"},
        {"latency_p90_ms", "ms"},
        {"cpu_ms_per_op", "ms"},
        {"peak_rss_mb", "MiB"},
        {"tdp_err_max_pct", "%"},
        {"area_err_max_pct", "%"},
    };
    return m;
}

const MetricList &
perLayerMetrics()
{
    static const MetricList m = {
        {"config.load_ms", "ms"},
        {"tech.construct_us", "us"},
        {"chip.assemble_ms", "ms"},
        {"chip.tdp_ms", "ms"},
        {"chip.report_ms", "ms"},
        {"array.optimize_ms_per_op", "ms"},
        {"array.candidates_per_op", "count"},
        {"array.ns_per_candidate", "ns"},
        {"array.pruned_frac", "frac"},
        {"array.solves_per_op", "count"},
        {"array.mem_hit_frac", "frac"},
        {"array.disk_hits_per_op", "count"},
        {"array.disk_fill_ms_per_record", "ms"},
        {"array.useful_solve_frac", "frac"},
        {"core.build_ms_per_op", "ms"},
        {"uncore.build_ms_per_op", "ms"},
        {"memo.hit_frac", "frac"},
        {"memo.misses_per_op", "count"},
        {"memo.useful_build_frac", "frac"},
        {"sweep.full_evals_per_op", "count"},
        {"sweep.rounds_per_op", "count"},
        {"sweep.point_self_ms", "ms"},
        {"sweep.journal_ms_per_op", "ms"},
        {"parallel.busy_frac", "frac"},
        {"eval.overhead_ms", "ms"},
        {"server.request_ms_p50", "ms"},
        {"server.queue_wait_ms_p50", "ms"},
        {"server.transport_ms", "ms"},
        {"server.result_hits", "count"},
        {"server.rejected", "count"},
        {"trace.overhead_pct", "%"},
        {"layers.unaccounted_frac", "frac"},
    };
    return m;
}

void
RunResult::fail(const std::string &why)
{
    ++failed;
    keepError(errors, why);
}

double
nowSeconds()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

double
cpuSeconds()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return ru.ru_utime.tv_sec + ru.ru_stime.tv_sec +
           1e-6 * (ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return ru.ru_maxrss / 1024.0;  // Linux reports KiB
}

double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const double pos = q * (v.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (pos - lo) * (v[hi] - v[lo]);
}

double
medianSetupSeconds(int rounds, const std::function<void()> &setup,
                   bool rotateCpus)
{
    cpu_set_t allowed;
    const std::vector<int> cpus =
        rotateCpus ? allowedCpus(allowed) : std::vector<int>{};
    const bool pin = cpus.size() > 1;
    const std::size_t per_round = pin ? cpus.size() : 1;
    std::vector<double> t;
    for (int i = 0; i < rounds; ++i) {
        double sum = 0.0;
        for (std::size_t k = 0; k < per_round; ++k) {
            if (pin)
                pinTo(cpus[k]);
            const double t0 = nowSeconds();
            try {
                setup();
            } catch (...) {
                if (pin)
                    sched_setaffinity(0, sizeof allowed, &allowed);
                throw;
            }
            sum += nowSeconds() - t0;
        }
        t.push_back(sum / per_round);
    }
    if (pin)
        sched_setaffinity(0, sizeof allowed, &allowed);
    return quantile(t, 0.5);
}

LoopResult
closedLoop(int clients, double seconds,
           const std::function<OpOutcome(int, std::size_t)> &op,
           bool rotateCpus)
{
    struct Client
    {
        LoopResult result;
        std::vector<double> starts;  ///< op start times, then the end
        std::vector<int> latencyWindow;  ///< window of each latencyMs
        double cpuSeconds = 0.0;         ///< this thread's CPU time
    };
    std::vector<Client> part(clients);
    const double window = seconds / kLoopWindows;
    const auto tp0 = std::chrono::steady_clock::now();
    const double t0 = nowSeconds();
    const double deadline = t0 + seconds;
    auto windowOf = [&](double start) {
        return std::min(kLoopWindows - 1,
                        static_cast<int>((start - t0) / window));
    };

    cpu_set_t allowed;
    const std::vector<int> cpus =
        rotateCpus ? allowedCpus(allowed) : std::vector<int>{};
    auto client = [&](int c) {
        Client &p = part[c];
        const double cpu0 = threadCpuSeconds();
        double next_slice = 0.0;
        std::size_t slot = c;
        for (std::size_t i = 0;; ++i) {
            const double start = nowSeconds();
            p.starts.push_back(start);
            if (start >= deadline)
                break;
            if (cpus.size() > 1 && start >= next_slice) {
                pinTo(cpus[slot++ % cpus.size()]);
                next_slice = start + kCpuSliceSeconds;
            }
            OpOutcome out;
            try {
                out = op(c, i);
            } catch (const std::exception &e) {
                out.error = std::string("op threw: ") + e.what();
            }
            ++p.result.attempted;
            if (out.error.empty()) {
                p.result.latencyMs.push_back(out.latencyMs);
                p.latencyWindow.push_back(windowOf(start));
            } else {
                ++p.result.failed;
                keepError(p.result.errors, out.error);
            }
        }
        p.cpuSeconds = threadCpuSeconds() - cpu0;
    };

    // The caller's thread samples CPU time at every window boundary
    // while the clients run.
    std::vector<double> cpu = {cpuSeconds()};
    std::vector<double> at = {t0};
    {
        std::vector<std::thread> threads;
        for (int c = 0; c < clients; ++c)
            threads.emplace_back(client, c);
        for (int k = 1; k <= kLoopWindows; ++k) {
            std::this_thread::sleep_until(
                tp0 + std::chrono::duration_cast<
                          std::chrono::steady_clock::duration>(
                          std::chrono::duration<double>(k * window)));
            cpu.push_back(cpuSeconds());
            at.push_back(nowSeconds());
        }
        for (std::thread &t : threads)
            t.join();
    }

    LoopResult all;
    all.peakRssMb = peakRssMb();
    std::vector<double> ops(kLoopWindows, 0.0);  // per window: rate
    std::vector<std::vector<double>> lat(kLoopWindows);
    for (const Client &p : part) {
        std::vector<double> n(kLoopWindows, 0.0), busy(kLoopWindows, 0.0);
        for (std::size_t i = 0; i + 1 < p.starts.size(); ++i) {
            const int k = windowOf(p.starts[i]);
            n[k] += 1.0;
            busy[k] += p.starts[i + 1] - p.starts[i];
        }
        for (int k = 0; k < kLoopWindows; ++k)
            ops[k] += ratio(n[k], busy[k]);
        all.clientCpuSeconds += p.cpuSeconds;
        all.attempted += p.result.attempted;
        all.failed += p.result.failed;
        all.latencyMs.insert(all.latencyMs.end(),
                             p.result.latencyMs.begin(),
                             p.result.latencyMs.end());
        for (std::size_t i = 0; i < p.result.latencyMs.size(); ++i)
            lat[p.latencyWindow[i]].push_back(p.result.latencyMs[i]);
        for (const std::string &e : p.result.errors)
            keepError(all.errors, e);
    }
    std::vector<double> cpu_per_op;
    for (int k = 0; k < kLoopWindows; ++k) {
        if (ops[k] <= 0.0)
            continue;  // no op started in this window
        all.windowRates.push_back(ops[k]);
        cpu_per_op.push_back(
            1e3 * ratio(cpu[k + 1] - cpu[k], at[k + 1] - at[k]) / ops[k]);
    }
    all.cpuSeconds = cpu.back() - cpu.front();
    all.opsPerSecond = quantile(all.windowRates, 0.5);
    all.cpuMsPerOp = quantile(cpu_per_op, 0.5);
    std::vector<double> p50, p90;
    for (const std::vector<double> &w : lat) {
        if (w.empty())
            continue;
        p50.push_back(quantile(w, 0.5));
        p90.push_back(quantile(w, 0.9));
        if (all.minWindowOps == 0 || w.size() < all.minWindowOps)
            all.minWindowOps = w.size();
    }
    all.latencyP50Ms = quantile(p50, 0.5);
    all.latencyP90Ms = quantile(p90, 0.5);
    return all;
}

void
absorb(RunResult &r, const LoopResult &loop)
{
    r.attempted += loop.attempted;
    r.failed += loop.failed;
    for (const std::string &e : loop.errors)
        keepError(r.errors, e);
}

void
addEndToEnd(RunResult &r, double setupSeconds, const LoopResult &loop)
{
    const std::size_t n = loop.latencyMs.size();
    r.metrics["setup_s"] = setupSeconds;
    r.metrics["ops_per_s"] = loop.opsPerSecond;
    r.metrics["latency_p50_ms"] = loop.latencyP50Ms;
    r.metrics["latency_p90_ms"] = loop.latencyP90Ms;
    r.metrics["cpu_ms_per_op"] = loop.cpuMsPerOp;
    r.metrics["peak_rss_mb"] = loop.peakRssMb;
    r.notes.push_back("latency samples: " + std::to_string(n) + " (" +
                      std::to_string(n - static_cast<std::size_t>(
                                             std::ceil(0.9 * n))) +
                      " beyond p90), at least " +
                      std::to_string(loop.minWindowOps) + " in each of " +
                      std::to_string(loop.windowRates.size()) +
                      " windows");
    std::string windows = "ops_per_s by window:";
    for (double w : loop.windowRates) {
        char buf[32];
        std::snprintf(buf, sizeof buf, " %.4g", w);
        windows += buf;
    }
    r.notes.push_back(windows);

    // Deterministic model-accuracy figures, evaluated after the timed
    // phase with the disk tier off.
    setProgramState(1, "");
    double tdp_err = 0.0, area_err = 0.0;
    for (const auto &chip : mcpat::bench::publishedChips()) {
        mcpat::study::EvalRequest req;
        req.configPath = std::string(kConfigDir) + "/" + chip.configFile;
        const mcpat::study::EvalResult e = mcpat::study::evaluate(req);
        const std::string bad = checkEval(e);
        if (!bad.empty()) {
            r.fail(chip.configFile + ": " + bad);
            continue;
        }
        tdp_err = std::max(tdp_err, 100.0 * std::abs(e.peakPower -
                                                     chip.tdpWatts) /
                                        chip.tdpWatts);
        area_err = std::max(area_err, 100.0 * std::abs(e.area / mcpat::mm2 -
                                                       chip.areaMm2) /
                                          chip.areaMm2);
    }
    r.metrics["tdp_err_max_pct"] = tdp_err;
    r.metrics["area_err_max_pct"] = area_err;
}

Counters &
Counters::operator+=(const Counters &o)
{
    candidates += o.candidates;
    pruned += o.pruned;
    arrayHits += o.arrayHits;
    arrayMisses += o.arrayMisses;
    diskHits += o.diskHits;
    memoHits += o.memoHits;
    memoMisses += o.memoMisses;
    return *this;
}

Counters
operator-(const Counters &a, const Counters &b)
{
    Counters d;
    d.candidates = a.candidates - b.candidates;
    d.pruned = a.pruned - b.pruned;
    d.arrayHits = a.arrayHits - b.arrayHits;
    d.arrayMisses = a.arrayMisses - b.arrayMisses;
    d.diskHits = a.diskHits - b.diskHits;
    d.memoHits = a.memoHits - b.memoHits;
    d.memoMisses = a.memoMisses - b.memoMisses;
    return d;
}

Counters
readCounters()
{
    const auto search = mcpat::array::optimizerSearchStats();
    const auto cache = mcpat::array::ArrayResultCache::instance().stats();
    const auto memo = mcpat::chip::ComponentMemo::instance().stats();
    Counters c;
    c.candidates = search.evaluated;
    c.pruned = search.pruned;
    c.arrayHits = cache.hits;
    c.arrayMisses = cache.misses;
    c.diskHits = cache.diskHits;
    c.memoHits = memo.hits;
    c.memoMisses = memo.misses;
    return c;
}

void
setProgramState(int modelThreads, const std::string &diskDir)
{
    mcpat::parallel::setThreadCount(modelThreads);
    mcpat::chip::ComponentMemo::instance().setEnabled(true);
    auto &cache = mcpat::array::ArrayResultCache::instance();
    cache.setEnabled(true);
    cache.setCacheDir(diskDir);
    mcpat::array::setOptimizerPruning(true);
    mcpat::instr::setEnabled(false);
}

void
clearInProcessTiers()
{
    mcpat::chip::ComponentMemo::instance().clear();
    mcpat::array::ArrayResultCache::instance().clear();
}

EvalOp
evalFromClearedTiers(const std::string &xml)
{
    clearInProcessTiers();
    EvalOp op;
    const Counters before = readCounters();
    mcpat::study::EvalRequest req;
    req.configXml = xml;
    const double t0 = nowSeconds();
    op.result = mcpat::study::evaluate(req);
    op.ms = (nowSeconds() - t0) * 1e3;
    op.delta = readCounters() - before;
    return op;
}

double
SpanStats::total(const std::string &name) const
{
    auto it = totalMs.find(name);
    return it == totalMs.end() ? 0.0 : it->second;
}

double
SpanStats::self(const std::string &name) const
{
    auto it = selfMs.find(name);
    return it == selfMs.end() ? 0.0 : it->second;
}

std::uint64_t
SpanStats::n(const std::string &name) const
{
    auto it = count.find(name);
    return it == count.end() ? 0 : it->second;
}

SpanStats
analyzeSpans(const std::vector<mcpat::instr::TraceEvent> &events)
{
    // Spans on one thread nest, so a stack per thread finds each
    // span's direct parent; its self time is its duration minus what
    // its direct children cover.
    std::map<int, std::vector<const mcpat::instr::TraceEvent *>> byTid;
    for (const auto &e : events)
        byTid[e.tid].push_back(&e);

    SpanStats s;
    struct Open
    {
        const mcpat::instr::TraceEvent *ev;
        std::uint64_t end;
        std::uint64_t covered;
    };
    auto close = [&s](const Open &o) {
        s.selfMs[o.ev->name] += (o.ev->durNs - std::min(o.covered,
                                                        o.ev->durNs)) *
                                1e-6;
    };
    for (auto &[tid, evs] : byTid) {
        std::sort(evs.begin(), evs.end(), [](auto *a, auto *b) {
            return a->startNs != b->startNs ? a->startNs < b->startNs
                                            : a->durNs > b->durNs;
        });
        std::vector<Open> stack;
        for (const auto *e : evs) {
            const std::uint64_t end = e->startNs + e->durNs;
            while (!stack.empty() && stack.back().end <= e->startNs) {
                close(stack.back());
                stack.pop_back();
            }
            if (!stack.empty())
                stack.back().covered +=
                    std::min(end, stack.back().end) - e->startNs;
            stack.push_back({e, end, 0});
            s.totalMs[e->name] += e->durNs * 1e-6;
            ++s.count[e->name];
        }
        for (; !stack.empty(); stack.pop_back())
            close(stack.back());
    }
    return s;
}

void
beginTrace()
{
    mcpat::instr::clearTrace();
    mcpat::instr::Registry::instance().reset();
    mcpat::instr::setEnabled(true);
}

SpanStats
endTrace()
{
    mcpat::instr::setEnabled(false);
    SpanStats s = analyzeSpans(mcpat::instr::collectTrace());
    mcpat::instr::clearTrace();
    return s;
}

double
traceOverheadPct(const LoopResult &plain, const LoopResult &traced)
{
    const double traced_rate = traced.opsPerSecond;
    return traced_rate > 0.0
        ? 100.0 * (plain.opsPerSecond / traced_rate - 1.0)
        : 0.0;
}

double
uncoreSelfMs(const SpanStats &s)
{
    double ms = 0.0;
    for (const char *n : {"build.l2", "build.l3", "build.directory",
                          "build.memctrl", "build.io", "build.noc"})
        ms += s.self(n);
    return ms;
}

void
EvalTotals::add(const mcpat::study::EvalResult &e)
{
    add(e.loadSeconds, e.assembleSeconds, e.reportSeconds, e.wallSeconds);
}

void
EvalTotals::add(double load, double assemble, double report, double wall)
{
    ++evals;
    loadS += load;
    assembleS += assemble;
    reportS += report;
    wallS += wall;
}

EvalTotals &
EvalTotals::operator+=(const EvalTotals &o)
{
    evals += o.evals;
    loadS += o.loadS;
    assembleS += o.assembleS;
    reportS += o.reportS;
    wallS += o.wallS;
    return *this;
}

void
addEvalLayerMetrics(RunResult &r, std::uint64_t ops, double opWallMs,
                    const EvalTotals &e, const Counters &c,
                    const SpanStats &s, double extraAccountedMs)
{
    const double n = static_cast<double>(ops);
    auto &m = r.metrics;
    if (e.evals > 0) {
        const double k = 1e3 / e.evals;
        m["config.load_ms"] = e.loadS * k;
        m["chip.assemble_ms"] = e.assembleS * k;
        m["chip.report_ms"] = e.reportS * k;
        m["eval.overhead_ms"] =
            (e.wallS - e.loadS - e.assembleS - e.reportS) * k;
    }
    m["chip.tdp_ms"] = ratio(s.total("tdp"), s.n("tdp"));
    m["array.optimize_ms_per_op"] = ratio(s.total("array.optimize"), n);
    m["array.ns_per_candidate"] =
        ratio(s.total("array.optimize") * 1e6, c.candidates);
    m["core.build_ms_per_op"] = ratio(s.self("build.core"), n);
    m["uncore.build_ms_per_op"] = ratio(uncoreSelfMs(s), n);
    addCountMetrics(r, c, ops);

    const double accounted = 1e3 * (e.loadS + e.reportS) +
                             s.total("array.optimize") +
                             s.self("build.core") + uncoreSelfMs(s) +
                             s.total("tdp") + extraAccountedMs;
    m["layers.unaccounted_frac"] = 1.0 - ratio(accounted, opWallMs);
}

void
addCountMetrics(RunResult &r, const Counters &c, std::uint64_t ops)
{
    const double n = static_cast<double>(ops);
    auto &m = r.metrics;
    m["array.candidates_per_op"] = ratio(c.candidates, n);
    m["array.pruned_frac"] = ratio(c.pruned, c.candidates + c.pruned);
    // A memory-tier miss that the disk tier does not answer is solved.
    m["array.solves_per_op"] = ratio(c.arrayMisses - c.diskHits, n);
    m["array.mem_hit_frac"] =
        ratio(c.arrayHits, c.arrayHits + c.arrayMisses);
    m["array.disk_hits_per_op"] = ratio(c.diskHits, n);
    m["memo.hit_frac"] = ratio(c.memoHits, c.memoHits + c.memoMisses);
    m["memo.misses_per_op"] = ratio(c.memoMisses, n);
}

double
techConstructUs(const std::vector<mcpat::chip::SystemParams> &chips)
{
    constexpr int kReps = 20;
    double seconds = 0.0;
    int made = 0;
    for (const mcpat::chip::SystemParams &p : chips) {
        const double t0 = nowSeconds();
        for (int i = 0; i < kReps; ++i) {
            mcpat::tech::Technology t(p.nodeNm, p.coreFlavor,
                                      p.temperature);
            t.setProjection(p.projection);
            if (p.vdd > 0.0)
                t.setVdd(p.vdd);
        }
        seconds += nowSeconds() - t0;
        made += kReps;
    }
    return ratio(seconds * 1e6, made);
}

std::string
checkReportJson(const std::string &reportJson)
{
    mcpat::common::JsonValue v;
    std::string err;
    if (reportJson.empty())
        return "empty report";
    if (!mcpat::common::jsonParse(reportJson, v, &err) || !v.isObject())
        return "report is not a JSON object: " + err;
    if (!v.getBool("valid"))
        return "report has non-finite figures";
    const double area = v.getNumber("area_mm2", -1.0);
    const double peak = v.getNumber("peak_dynamic_w", -1.0);
    if (!(std::isfinite(area) && area > 0.0 && std::isfinite(peak) &&
          peak > 0.0))
        return "report root area/peak not finite and positive";
    return "";
}

std::string
checkFigures(const mcpat::study::EvalResult &e)
{
    if (!e.ok)
        return "evaluation failed: " + e.error;
    if (!(std::isfinite(e.area) && e.area > 0.0 &&
          std::isfinite(e.peakPower) && e.peakPower > 0.0 &&
          std::isfinite(e.runtimePower) && e.runtimePower > 0.0))
        return "headline figures not finite and positive";
    return "";
}

std::string
checkEval(const mcpat::study::EvalResult &e)
{
    const std::string bad = checkFigures(e);
    return bad.empty() ? checkReportJson(e.reportJson) : bad;
}

std::uint64_t
ReportBook::fingerprint(const std::string &reportJson)
{
    return mcpat::common::fnv1a64(
        reinterpret_cast<const std::uint8_t *>(reportJson.data()),
        reportJson.size());
}

std::string
ReportBook::check(std::size_t input, const mcpat::study::EvalResult &e)
{
    if (const std::string bad = checkFigures(e); !bad.empty())
        return bad;
    const std::uint64_t fp = fingerprint(e.reportJson);
    auto it = _seen.find(input);
    if (it != _seen.end())
        return it->second == fp ? ""
                                : "report differs from its first evaluation";
    if (const std::string bad = checkReportJson(e.reportJson); !bad.empty())
        return bad;
    _seen.emplace(input, fp);
    return "";
}

std::vector<std::size_t>
seededOrder(std::uint64_t seed, std::size_t n)
{
    std::vector<std::size_t> order(n);
    for (std::size_t i = 0; i < n; ++i)
        order[i] = i;
    Rng rng(subSeed(seed, 7));
    for (std::size_t i = n; i > 1; --i)
        std::swap(order[i - 1], order[rng.below(i)]);
    return order;
}

} // namespace perfbench
