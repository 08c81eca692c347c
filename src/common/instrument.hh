/**
 * @file
 * Unified instrumentation layer: metrics registry, hierarchical trace
 * spans, and run manifests.
 *
 * McPAT's modeling output is hierarchical attribution — power and area
 * broken down per component — and this module gives the *execution* the
 * same treatment.  Three coordinated facilities share one process-global
 * switch (instr::enabled(), default off, CLI -trace_out/-metrics_out or
 * MCPAT_INSTRUMENT=1):
 *
 *  - a **metrics registry** of named counters, gauges, and timers.
 *    Instruments register metrics lazily by name; subsystems that keep
 *    their own cheap internal counters (the array memo cache, the
 *    organization search, the thread pool) export them through
 *    *collectors* — callbacks run at snapshot time — so the hot paths
 *    pay nothing for the registry until someone actually asks.
 *
 *  - **hierarchical trace spans** (RAII, via MCPAT_SPAN("phase"))
 *    recorded per thread and exported as Chrome trace_event JSON
 *    (chrome://tracing, Perfetto).  Collecting snapshots fold span
 *    durations into registry timers named "span.<name>", which is
 *    where the per-phase wall-clock in the run manifest comes from.
 *
 *  - a **run manifest**: one JSON object describing a run — wall clock
 *    per phase, every registry metric, cache hit rates per tier,
 *    organization-search counts, thread count, config checksum —
 *    written to a file (-metrics_out), embedded in the JSON report, or
 *    aggregated across a batch.
 *
 * Cost model: when disabled, every instrumentation site is one relaxed
 * atomic load and a branch — span names are never even constructed
 * (MCPAT_SPAN only evaluates its argument when enabled) and registry
 * metrics are untouched.  When enabled, spans cost two steady_clock
 * reads plus one short critical section on a per-thread buffer; sites
 * are placed at coarse boundaries (phases, component builds, array
 * solves), keeping the overhead under the 2% budget enforced by
 * bench_model_speed's instrumentation scoreboard.
 */

#ifndef MCPAT_COMMON_INSTRUMENT_HH
#define MCPAT_COMMON_INSTRUMENT_HH

#include <atomic>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <string>
#include <utility>
#include <vector>

#include "common/histogram.hh"

namespace mcpat {
namespace instr {

// ---------------------------------------------------------------------
// Global switches.
// ---------------------------------------------------------------------

/**
 * Master instrumentation switch.  Defaults to the MCPAT_INSTRUMENT
 * environment variable (unset or "0" means off); setEnabled() overrides
 * it at any time.  Every hot-path instrumentation site gates on this.
 */
bool enabled();
void setEnabled(bool on);

/**
 * Progress-meter switch (CLI -progress), independent of enabled():
 * batch/sweep loops may report progress without paying for tracing.
 * Off by default so CI logs stay clean.
 */
bool progressEnabled();
void setProgressEnabled(bool on);

// ---------------------------------------------------------------------
// Metrics registry.
// ---------------------------------------------------------------------

/** Monotonic event count (relaxed atomic; thread-safe). */
class Counter
{
  public:
    void add(std::uint64_t n = 1)
    {
        _value.fetch_add(n, std::memory_order_relaxed);
    }
    std::uint64_t value() const
    {
        return _value.load(std::memory_order_relaxed);
    }
    void reset() { _value.store(0, std::memory_order_relaxed); }

  private:
    std::atomic<std::uint64_t> _value{0};
};

/** Last-written level (thread-safe set/max/value). */
class Gauge
{
  public:
    void set(double v) { _value.store(v, std::memory_order_relaxed); }
    /** Raise to @p v if larger (high-water mark). */
    void setMax(double v)
    {
        double cur = _value.load(std::memory_order_relaxed);
        while (v > cur &&
               !_value.compare_exchange_weak(cur, v,
                                             std::memory_order_relaxed)) {
        }
    }
    double value() const
    {
        return _value.load(std::memory_order_relaxed);
    }
    void reset() { _value.store(0.0, std::memory_order_relaxed); }

  private:
    std::atomic<double> _value{0.0};
};

/** Accumulated duration plus event count (thread-safe). */
class Timer
{
  public:
    void addNanos(std::uint64_t ns, std::uint64_t events = 1)
    {
        _nanos.fetch_add(ns, std::memory_order_relaxed);
        _count.fetch_add(events, std::memory_order_relaxed);
    }
    std::uint64_t totalNanos() const
    {
        return _nanos.load(std::memory_order_relaxed);
    }
    std::uint64_t count() const
    {
        return _count.load(std::memory_order_relaxed);
    }
    double totalSeconds() const { return totalNanos() * 1e-9; }
    void reset()
    {
        _nanos.store(0, std::memory_order_relaxed);
        _count.store(0, std::memory_order_relaxed);
    }

  private:
    std::atomic<std::uint64_t> _nanos{0};
    std::atomic<std::uint64_t> _count{0};
};

enum class MetricKind { Counter, Gauge, Timer };

/** One registry metric at snapshot time. */
struct MetricSample
{
    std::string name;
    MetricKind kind = MetricKind::Counter;
    double value = 0.0;       ///< count / level / total seconds
    std::uint64_t count = 0;  ///< events (counters and timers)
};

/**
 * Process-global, thread-safe registry of named metrics.
 *
 * Metrics are registered lazily on first access and live for the
 * process lifetime, so returned references stay valid and sites may
 * cache them.  Snapshots are deterministic: samples are sorted by name
 * and every numeric value derives from the same relaxed-atomic state
 * two identical snapshots would read.
 */
class Registry
{
  public:
    static Registry &instance();

    Counter &counter(const std::string &name);
    Gauge &gauge(const std::string &name);
    Timer &timer(const std::string &name);
    Histogram &histogram(const std::string &name);

    /**
     * Register a pull-model exporter, run (in registration order) at
     * the start of every collecting snapshot().  Subsystems with their
     * own internal counters publish through these so the registry
     * reflects them without adding cost to their hot paths.  Returns
     * true (convenient for static-init registration).
     */
    bool addCollector(std::function<void(Registry &)> fn);

    /**
     * All metrics, sorted by name.  @p collect runs the registered
     * collectors first; pass false to observe only what instrumented
     * code pushed directly (the zero-overhead tests rely on this).
     */
    std::vector<MetricSample> snapshot(bool collect = true);

    /**
     * Deterministic snapshots of every registered histogram, sorted by
     * name.  Kept apart from snapshot() because a distribution does not
     * flatten into one MetricSample value.
     */
    std::vector<std::pair<std::string, HistogramSnapshot>>
    histogramSnapshots();

    /** Zero every metric (registrations and collectors are kept). */
    void reset();

  private:
    Registry() = default;
    struct Impl;
    Impl &impl();
};

// ---------------------------------------------------------------------
// Trace spans.
// ---------------------------------------------------------------------

/** One completed span, in trace-epoch-relative nanoseconds. */
struct TraceEvent
{
    std::string name;
    std::string arg;          ///< optional detail (e.g. array name)
    int tid = 0;              ///< stable per-thread ordinal
    std::uint64_t startNs = 0;
    std::uint64_t durNs = 0;
};

/**
 * RAII span.  Use through MCPAT_SPAN so the name expression is only
 * evaluated when instrumentation is enabled; a default-constructed Span
 * is inert.  On destruction an active span appends a TraceEvent to the
 * calling thread's buffer (collecting registry snapshots later fold
 * the durations into "span.<name>" timers) — nesting is captured by
 * the containment of the [start, start+dur) intervals, which is
 * exactly how the Chrome trace viewer stacks them.
 */
class Span
{
  public:
    Span() = default;
    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;
    ~Span();

    /** Arm the span; records the start timestamp. */
    void begin(std::string name, std::string arg = std::string());

  private:
    std::string _name;
    std::string _arg;
    std::uint64_t _startNs = 0;
    bool _active = false;
};

#define MCPAT_INSTR_CONCAT2_(a, b) a##b
#define MCPAT_INSTR_CONCAT_(a, b) MCPAT_INSTR_CONCAT2_(a, b)

/**
 * Open a trace span covering the rest of the enclosing scope.  The
 * name (and optional arg) expressions are not evaluated when
 * instrumentation is disabled.
 */
#define MCPAT_SPAN(...)                                                   \
    mcpat::instr::Span MCPAT_INSTR_CONCAT_(mcpat_span_, __LINE__);        \
    if (mcpat::instr::enabled())                                          \
        MCPAT_INSTR_CONCAT_(mcpat_span_, __LINE__).begin(__VA_ARGS__)

/** Nanoseconds since the process trace epoch (steady clock). */
std::uint64_t nowNanos();

/** All completed spans, sorted by (tid, startNs). */
std::vector<TraceEvent> collectTrace();

/** Drop all recorded spans and counter samples (buffers stay). */
void clearTrace();

/**
 * Name the calling thread for trace output.  writeChromeTrace emits a
 * "thread_name" metadata event per named thread so Perfetto labels
 * lanes ("pool-0", "serve-1", "recorder") instead of bare tids.
 * Cheap enough to call unconditionally at thread start.
 */
void setThreadName(const std::string &name);

/**
 * Append one time-series sample ("queue depth was 4 at t") to the
 * trace.  writeChromeTrace emits these as Chrome counter events
 * ("ph":"C"), which Perfetto renders as a value track aligned under
 * the spans.  The flight recorder is the main producer.
 */
void recordTraceCounter(const std::string &name, std::uint64_t tsNs,
                        double value);

/**
 * Serialize every recorded span as Chrome trace_event JSON (the
 * {"traceEvents": [...]} object form with complete "X" events), loadable
 * in chrome://tracing and Perfetto.  Timestamps are microseconds.
 */
void writeChromeTrace(std::ostream &os);

// ---------------------------------------------------------------------
// Run manifest.
// ---------------------------------------------------------------------

/** Per-run context the registry cannot know by itself. */
struct RunInfo
{
    std::string configPath;      ///< input file, empty if none
    std::string configChecksum;  ///< hex FNV-1a of the config bytes
    double wallSeconds = 0.0;    ///< end-to-end run wall clock
    bool valid = true;           ///< run completed without errors
};

/**
 * Write the run manifest: one JSON object with schema
 * "mcpat-run-manifest-v1" containing the RunInfo fields, a "phases"
 * object (every "span.*" registry timer: total_ms + count), and
 * "counters" / "gauges" / "timers" objects with every other metric.
 * Runs the registry collectors, so cache/prune/pool figures are
 * current.  @p indent shifts the whole object right (for embedding).
 */
void writeRunManifest(std::ostream &os, const RunInfo &info,
                      int indent = 0);

/** The manifest as a string (for embedding in the JSON report). */
std::string runManifestJson(const RunInfo &info, int indent = 0);

/** FNV-1a checksum of a file's bytes as "0x<16 hex>"; "" if unreadable. */
std::string fileChecksumHex(const std::string &path);

// ---------------------------------------------------------------------
// Progress meter.
// ---------------------------------------------------------------------

/**
 * One-line stderr progress reporting for batch/sweep loops: each
 * tick() prints "label: N/M (p%), elapsed E, eta T" when
 * progressEnabled() is set and is a no-op otherwise.  Thread-safe —
 * ticks may come from pool workers.
 *
 * Ticks beyond the declared total are clamped: a resumed run replays
 * journaled items it never planned for, and the meter must not report
 * 103% done or a negative ETA because of them.
 */
class ProgressMeter
{
  public:
    ProgressMeter(std::string label, std::size_t total,
                  std::ostream *os = nullptr);

    /** Mark one unit done; prints when progress is enabled. */
    void tick();

    /** Units done, clamped to the declared total. */
    std::size_t completed() const
    {
        const std::size_t done = _done.load(std::memory_order_relaxed);
        return _total && done > _total ? _total : done;
    }

  private:
    std::string _label;
    std::size_t _total;
    std::ostream *_os;        ///< defaults to std::cerr
    std::uint64_t _startNs;
    std::atomic<std::size_t> _done{0};
};

} // namespace instr
} // namespace mcpat

#endif // MCPAT_COMMON_INSTRUMENT_HH
