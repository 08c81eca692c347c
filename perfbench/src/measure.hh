/**
 * @file
 * Measurement plumbing shared by the workloads: the metric catalogue,
 * closed-loop driver, host clocks, tier counters, span analysis,
 * output checks, and the published-data error figures.
 */

#ifndef PERFBENCH_MEASURE_HH
#define PERFBENCH_MEASURE_HH

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "chip/system_params.hh"
#include "common/instrument.hh"
#include "study/eval_core.hh"

namespace perfbench {

/** Name and unit of every metric, in output order. */
using MetricList = std::vector<std::pair<std::string, std::string>>;
const MetricList &endToEndMetrics();
const MetricList &perLayerMetrics();

/** What one workload invocation is asked to do. */
struct RunOptions
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string workDir;  ///< scratch directory owned by this run
};

/** Everything a run reports. */
struct RunResult
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<std::string> errors;  ///< first few failure reasons
    std::map<std::string, double> metrics;
    std::vector<std::string> notes;   ///< human-readable lines

    /** Count one failed op (or output check) with its reason. */
    void fail(const std::string &why);
};

/** Monotonic host time, seconds. */
double nowSeconds();

/** Process CPU time (user + system, all threads), seconds. */
double cpuSeconds();

/** Peak resident set size of the process, MiB. */
double peakRssMb();

/** Linear-interpolated quantile of @p v (q in [0, 1]). */
double quantile(std::vector<double> v, double q);

/**
 * Run @p setup in @p rounds rounds; the median over rounds of a
 * round's mean wall time, seconds.  A round is one run of @p setup,
 * or with @p rotateCpus one run pinned to each allowed CPU in turn, so
 * that every round samples all CPUs alike and one slow CPU cannot tip
 * the median; only for set-ups that start no threads, which would
 * inherit the pin.
 */
double medianSetupSeconds(int rounds, const std::function<void()> &setup,
                          bool rotateCpus);

/** Result of one operation of a closed loop. */
struct OpOutcome
{
    double latencyMs = 0.0;
    std::string error;  ///< empty when the op and its checks passed
};

struct LoopResult
{
    std::vector<double> latencyMs;  ///< successful ops only
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<std::string> errors;

    /** Ops per second in each window that had ops, in window order. */
    std::vector<double> windowRates;

    /** Median over the loop's windows of ops completed per second. */
    double opsPerSecond = 0.0;

    /** Median over the loop's windows of process CPU time per op, ms. */
    double cpuMsPerOp = 0.0;

    /**
     * Median over the loop's windows of each window's latency
     * percentile (over the successful ops started in it), ms.
     */
    double latencyP50Ms = 0.0;
    double latencyP90Ms = 0.0;

    /** Fewest successful ops in a window that had any. */
    std::size_t minWindowOps = 0;

    /** Peak RSS when the loop ended (set-up included, checks not). */
    double peakRssMb = 0.0;

    /** Process CPU time over the loop, and the client threads' share. */
    double cpuSeconds = 0.0;
    double clientCpuSeconds = 0.0;
};

/** Windows a closed loop's throughput and CPU time are medians over. */
constexpr int kLoopWindows = 20;

/** How long a rotating client stays on one CPU. */
constexpr double kCpuSliceSeconds = 0.05;

/**
 * Closed loop: @p clients threads each issue op(client, i) back to
 * back until @p seconds have passed.
 *
 * On the shared host this was tuned on, one CPU runs up to 1.5x slower
 * than another while a co-tenant loads its core, and which CPUs are
 * slow changes within seconds.  Two things keep a run from reading
 * whichever CPU the scheduler happened to leave it on:
 *
 *  - with @p rotateCpus, each client thread pins itself to the next
 *    allowed CPU every kCpuSliceSeconds, so every window samples all
 *    CPUs evenly (threads the op hands work to are not pinned);
 *  - no figure is one total over the loop: the loop is cut into
 *    kLoopWindows equal windows, each window's rate is the sum over
 *    clients of (ops started in it) / (their summed op-to-op cycle
 *    time), and the median window is reported.  CPU time per op is
 *    likewise the median over windows of CPU utilization divided by
 *    that window's rate, and each latency percentile the median over
 *    windows of that percentile of the ops started in the window.
 *    A slow spell of the host that covers less than half the loop
 *    thus moves none of them much.
 */
LoopResult closedLoop(int clients, double seconds,
                      const std::function<OpOutcome(int, std::size_t)> &op,
                      bool rotateCpus);

/** Fold a loop's op counts and failures into @p r. */
void absorb(RunResult &r, const LoopResult &loop);

/**
 * The end-to-end metrics of one timed loop, plus the published-data
 * error figures (evaluated here, outside the timed phase).
 */
void addEndToEnd(RunResult &r, double setupSeconds, const LoopResult &loop);

/** Cumulative counters of the optimizer, array tiers and memo. */
struct Counters
{
    std::uint64_t candidates = 0;  ///< optimizer candidates evaluated
    std::uint64_t pruned = 0;      ///< optimizer candidates pruned
    std::uint64_t arrayHits = 0;   ///< array memory-tier hits
    std::uint64_t arrayMisses = 0; ///< array memory-tier misses
    std::uint64_t diskHits = 0;
    std::uint64_t memoHits = 0;    ///< component memo
    std::uint64_t memoMisses = 0;

    Counters &operator+=(const Counters &o);
};
Counters operator-(const Counters &a, const Counters &b);

Counters readCounters();

/**
 * Pin every switch a measurement depends on, so ambient MCPAT_*
 * variables cannot change it: model threads, memo and array tiers on,
 * pruning on, tracing off, and the disk tier at @p diskDir (empty
 * clears it).
 */
void setProgramState(int modelThreads, const std::string &diskDir);

/** Clear the component memo and the array memory tier. */
void clearInProcessTiers();

/** One study::evaluate call with its counter deltas and wall time. */
struct EvalOp
{
    mcpat::study::EvalResult result;
    Counters delta;
    double ms = 0.0;
};

/**
 * Clear the in-process tiers (a configured disk tier keeps its
 * records), then evaluate inline XML @p xml; only the evaluation is
 * timed.
 */
EvalOp evalFromClearedTiers(const std::string &xml);

/** Span time by name: total, self (minus same-thread children), count. */
struct SpanStats
{
    std::map<std::string, double> totalMs;
    std::map<std::string, double> selfMs;
    std::map<std::string, std::uint64_t> count;

    double total(const std::string &n) const;
    double self(const std::string &n) const;
    std::uint64_t n(const std::string &name) const;
};

SpanStats analyzeSpans(const std::vector<mcpat::instr::TraceEvent> &ev);

/** Start a traced phase: spans on, trace buffers and registry cleared. */
void beginTrace();

/** End a traced phase: spans off; the spans it recorded, analyzed. */
SpanStats endTrace();

/** How much slower the traced loop ran than the untraced one, %. */
double traceOverheadPct(const LoopResult &plain, const LoopResult &traced);

/** Sum of the self times of the uncore build spans. */
double uncoreSelfMs(const SpanStats &s);

/** Phase sums over the study::evaluate calls of a traced phase. */
struct EvalTotals
{
    std::uint64_t evals = 0;
    double loadS = 0.0;
    double assembleS = 0.0;
    double reportS = 0.0;
    double wallS = 0.0;

    void add(const mcpat::study::EvalResult &e);
    void add(double load, double assemble, double report, double wall);
    EvalTotals &operator+=(const EvalTotals &o);
};

/**
 * Per-layer metrics shared by every workload that evaluates whole
 * chips through the eval core: config/chip/array/core/uncore/memo
 * layers and the unaccounted share.  @p ops is the op count the
 * per-op figures divide by; @p opWallMs the summed op wall time, of
 * which @p extraAccountedMs is known to be spent outside the eval core
 * (queueing, for a server).
 */
void addEvalLayerMetrics(RunResult &r, std::uint64_t ops, double opWallMs,
                         const EvalTotals &e, const Counters &c,
                         const SpanStats &s, double extraAccountedMs = 0.0);

/**
 * Per-op count metrics (optimizer candidates, array tiers, memo) from
 * @p c summed over @p ops ops.  A workload whose counts are exact at
 * its thread count replaces the traced phase's figures (which depend
 * on how many ops fit in the time) with one pass over its input set.
 */
void addCountMetrics(RunResult &r, const Counters &c, std::uint64_t ops);

/** Mean tech::Technology construction time over the chips' operating
 *  points, as chip::Processor constructs it, microseconds. */
double techConstructUs(const std::vector<mcpat::chip::SystemParams> &chips);

/**
 * Empty when @p reportJson is a valid report document: strict JSON,
 * root "valid": true, finite positive area and peak power.
 */
std::string checkReportJson(const std::string &reportJson);

/** Empty when the evaluation succeeded with finite, positive figures. */
std::string checkFigures(const mcpat::study::EvalResult &e);

/** checkFigures plus checkReportJson. */
std::string checkEval(const mcpat::study::EvalResult &e);

/**
 * Output check for inputs evaluated many times.  The first report of an
 * input gets the full checkReportJson and its fingerprint is kept;
 * later reports must match that fingerprint byte for byte, which also
 * makes them valid without parsing them again.
 */
class ReportBook
{
  public:
    /** FNV-1a 64 of a report's bytes. */
    static std::uint64_t fingerprint(const std::string &reportJson);

    /** Empty when the evaluation passes; else the reason. */
    std::string check(std::size_t input, const mcpat::study::EvalResult &e);
    const std::map<std::size_t, std::uint64_t> &seen() const
    {
        return _seen;
    }

  private:
    std::map<std::size_t, std::uint64_t> _seen;
};

/** Seeded op order: a shuffled index sequence over @p n inputs. */
std::vector<std::size_t> seededOrder(std::uint64_t seed, std::size_t n);

} // namespace perfbench

#endif // PERFBENCH_MEASURE_HH
