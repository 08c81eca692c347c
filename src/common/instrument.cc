/**
 * @file
 * Instrumentation layer implementation: registry storage, per-thread
 * span buffers, Chrome trace and run-manifest serialization.
 */

#include "common/instrument.hh"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iomanip>
#include <map>
#include <memory>
#include <mutex>
#include <ostream>
#include <sstream>
#include <unordered_map>

#include "common/diagnostics.hh"
#include "common/parallel.hh"
#include "common/serialize.hh"

namespace mcpat {
namespace instr {

namespace {

/** -1: unset (consult MCPAT_INSTRUMENT once); 0/1: explicit. */
std::atomic<int> g_enabledOverride{-1};
std::atomic<bool> g_progress{false};

bool
enabledFromEnv()
{
    static const bool on = [] {
        const char *env = std::getenv("MCPAT_INSTRUMENT");
        return env && std::strcmp(env, "0") != 0;
    }();
    return on;
}

// ---------------------------------------------------------------------
// Per-thread span buffers.
// ---------------------------------------------------------------------

/**
 * Spans complete on the thread that opened them, so each thread owns a
 * buffer guarded by its own mutex — contention only with the exporter.
 * Buffers are registered once per thread and never unregistered; the
 * shared_ptr keeps them alive past thread exit so collectTrace() after
 * a pool thread dies is safe.
 */
struct ThreadTraceBuffer
{
    std::mutex mutex;
    std::vector<TraceEvent> events;
    std::string name;  ///< Perfetto lane label; "" = default
    int tid = 0;
};

/** One "ph":"C" counter sample (flight recorder time series). */
struct CounterSample
{
    std::string name;
    std::uint64_t tsNs = 0;
    double value = 0.0;
};

struct TraceState
{
    std::mutex mutex;
    std::vector<std::shared_ptr<ThreadTraceBuffer>> buffers;
    std::vector<CounterSample> counters;
};

TraceState &
traceState()
{
    static TraceState *s = new TraceState;  // leaked: usable at exit
    return *s;
}

ThreadTraceBuffer &
threadBuffer()
{
    thread_local std::shared_ptr<ThreadTraceBuffer> buf = [] {
        auto b = std::make_shared<ThreadTraceBuffer>();
        TraceState &s = traceState();
        std::lock_guard<std::mutex> lock(s.mutex);
        b->tid = static_cast<int>(s.buffers.size());
        s.buffers.push_back(b);
        return b;
    }();
    return *buf;
}

std::chrono::steady_clock::time_point
traceEpoch()
{
    static const auto t0 = std::chrono::steady_clock::now();
    return t0;
}

} // namespace

// ---------------------------------------------------------------------
// Switches.
// ---------------------------------------------------------------------

bool
enabled()
{
    const int o = g_enabledOverride.load(std::memory_order_relaxed);
    if (o >= 0)
        return o != 0;
    return enabledFromEnv();
}

void
setEnabled(bool on)
{
    g_enabledOverride.store(on ? 1 : 0, std::memory_order_relaxed);
}

bool
progressEnabled()
{
    return g_progress.load(std::memory_order_relaxed);
}

void
setProgressEnabled(bool on)
{
    g_progress.store(on, std::memory_order_relaxed);
}

// ---------------------------------------------------------------------
// Registry.
// ---------------------------------------------------------------------

struct Registry::Impl
{
    std::mutex mutex;
    // node-stable maps: references handed out stay valid forever.
    std::map<std::string, std::unique_ptr<Counter>> counters;
    std::map<std::string, std::unique_ptr<Gauge>> gauges;
    std::map<std::string, std::unique_ptr<Timer>> timers;
    std::map<std::string, std::unique_ptr<Histogram>> histograms;
    std::vector<std::function<void(Registry &)>> collectors;
};

Registry::Impl &
Registry::impl()
{
    static Impl *i = new Impl;  // leaked: usable during static dtors
    return *i;
}

Registry &
Registry::instance()
{
    static Registry r;
    return r;
}

Counter &
Registry::counter(const std::string &name)
{
    Impl &im = impl();
    std::lock_guard<std::mutex> lock(im.mutex);
    auto &slot = im.counters[name];
    if (!slot)
        slot = std::make_unique<Counter>();
    return *slot;
}

Gauge &
Registry::gauge(const std::string &name)
{
    Impl &im = impl();
    std::lock_guard<std::mutex> lock(im.mutex);
    auto &slot = im.gauges[name];
    if (!slot)
        slot = std::make_unique<Gauge>();
    return *slot;
}

Timer &
Registry::timer(const std::string &name)
{
    Impl &im = impl();
    std::lock_guard<std::mutex> lock(im.mutex);
    auto &slot = im.timers[name];
    if (!slot)
        slot = std::make_unique<Timer>();
    return *slot;
}

Histogram &
Registry::histogram(const std::string &name)
{
    Impl &im = impl();
    std::lock_guard<std::mutex> lock(im.mutex);
    auto &slot = im.histograms[name];
    if (!slot)
        slot = std::make_unique<Histogram>();
    return *slot;
}

std::vector<std::pair<std::string, HistogramSnapshot>>
Registry::histogramSnapshots()
{
    Impl &im = impl();
    std::lock_guard<std::mutex> lock(im.mutex);
    std::vector<std::pair<std::string, HistogramSnapshot>> out;
    out.reserve(im.histograms.size());
    for (const auto &[name, h] : im.histograms)
        out.emplace_back(name, h->snapshot());
    return out;  // std::map iteration order is already name-sorted
}

bool
Registry::addCollector(std::function<void(Registry &)> fn)
{
    Impl &im = impl();
    std::lock_guard<std::mutex> lock(im.mutex);
    im.collectors.push_back(std::move(fn));
    return true;
}

std::vector<MetricSample>
Registry::snapshot(bool collect)
{
    Impl &im = impl();
    if (collect) {
        // Copy the collector list so collectors may register metrics
        // (which takes the same mutex) without deadlocking.
        std::vector<std::function<void(Registry &)>> collectors;
        {
            std::lock_guard<std::mutex> lock(im.mutex);
            collectors = im.collectors;
        }
        for (const auto &fn : collectors)
            fn(*this);

        // Fold span durations from the trace buffers into
        // "span.<name>" timers.  Aggregating here — rather than in the
        // span destructor — keeps the per-span cost to one push on a
        // per-thread buffer; the timers are recomputed from the full
        // trace each time, so reset them first.
        std::map<std::string,
                 std::pair<std::uint64_t, std::uint64_t>> agg;
        for (const auto &ev : collectTrace()) {
            auto &a = agg["span." + ev.name];
            a.first += ev.durNs;
            a.second += 1;
        }
        {
            std::lock_guard<std::mutex> lock(im.mutex);
            for (auto &[name, t] : im.timers)
                if (name.rfind("span.", 0) == 0)
                    t->reset();
        }
        for (const auto &[name, a] : agg)
            timer(name).addNanos(a.first, a.second);
    }
    std::vector<MetricSample> out;
    std::lock_guard<std::mutex> lock(im.mutex);
    out.reserve(im.counters.size() + im.gauges.size() +
                im.timers.size());
    for (const auto &[name, c] : im.counters) {
        MetricSample s;
        s.name = name;
        s.kind = MetricKind::Counter;
        s.value = static_cast<double>(c->value());
        s.count = c->value();
        out.push_back(std::move(s));
    }
    for (const auto &[name, g] : im.gauges) {
        MetricSample s;
        s.name = name;
        s.kind = MetricKind::Gauge;
        s.value = g->value();
        out.push_back(std::move(s));
    }
    for (const auto &[name, t] : im.timers) {
        MetricSample s;
        s.name = name;
        s.kind = MetricKind::Timer;
        s.value = t->totalSeconds();
        s.count = t->count();
        out.push_back(std::move(s));
    }
    // std::map iteration is already name-sorted per kind; interleave
    // kinds into one global order for deterministic snapshots.
    std::stable_sort(out.begin(), out.end(),
                     [](const MetricSample &a, const MetricSample &b) {
                         return a.name < b.name;
                     });
    return out;
}

void
Registry::reset()
{
    Impl &im = impl();
    std::lock_guard<std::mutex> lock(im.mutex);
    for (auto &[name, c] : im.counters)
        c->reset();
    for (auto &[name, g] : im.gauges)
        g->reset();
    for (auto &[name, t] : im.timers)
        t->reset();
    for (auto &[name, h] : im.histograms)
        h->reset();
}

// ---------------------------------------------------------------------
// Spans.
// ---------------------------------------------------------------------

std::uint64_t
nowNanos()
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - traceEpoch())
            .count());
}

void
Span::begin(std::string name, std::string arg)
{
    _name = std::move(name);
    _arg = std::move(arg);
    _startNs = nowNanos();
    _active = true;
}

Span::~Span()
{
    if (!_active)
        return;
    const std::uint64_t end = nowNanos();
    const std::uint64_t dur = end > _startNs ? end - _startNs : 0;

    TraceEvent ev;
    ev.name = std::move(_name);
    ev.arg = std::move(_arg);
    ev.startNs = _startNs;
    ev.durNs = dur;
    ThreadTraceBuffer &buf = threadBuffer();
    ev.tid = buf.tid;
    std::lock_guard<std::mutex> lock(buf.mutex);
    buf.events.push_back(std::move(ev));
}

std::vector<TraceEvent>
collectTrace()
{
    TraceState &s = traceState();
    std::vector<std::shared_ptr<ThreadTraceBuffer>> buffers;
    {
        std::lock_guard<std::mutex> lock(s.mutex);
        buffers = s.buffers;
    }
    std::vector<TraceEvent> out;
    for (const auto &b : buffers) {
        std::lock_guard<std::mutex> lock(b->mutex);
        out.insert(out.end(), b->events.begin(), b->events.end());
    }
    std::sort(out.begin(), out.end(),
              [](const TraceEvent &a, const TraceEvent &b) {
                  return a.tid != b.tid ? a.tid < b.tid
                                        : a.startNs < b.startNs;
              });
    return out;
}

void
clearTrace()
{
    TraceState &s = traceState();
    std::vector<std::shared_ptr<ThreadTraceBuffer>> buffers;
    {
        std::lock_guard<std::mutex> lock(s.mutex);
        buffers = s.buffers;
        s.counters.clear();
    }
    for (const auto &b : buffers) {
        std::lock_guard<std::mutex> lock(b->mutex);
        b->events.clear();
    }
}

void
setThreadName(const std::string &name)
{
    ThreadTraceBuffer &buf = threadBuffer();
    std::lock_guard<std::mutex> lock(buf.mutex);
    buf.name = name;
}

void
recordTraceCounter(const std::string &name, std::uint64_t tsNs,
                   double value)
{
    CounterSample sample;
    sample.name = name;
    sample.tsNs = tsNs;
    sample.value = value;
    TraceState &s = traceState();
    std::lock_guard<std::mutex> lock(s.mutex);
    s.counters.push_back(std::move(sample));
}

void
writeChromeTrace(std::ostream &os)
{
    const std::vector<TraceEvent> events = collectTrace();

    // Thread labels and counter samples, copied under the state lock.
    std::vector<std::pair<int, std::string>> threadNames;
    std::vector<CounterSample> counters;
    {
        TraceState &s = traceState();
        std::lock_guard<std::mutex> lock(s.mutex);
        for (const auto &b : s.buffers) {
            std::lock_guard<std::mutex> buflock(b->mutex);
            std::string name = b->name;
            if (name.empty())
                name = b->tid == 0
                           ? "main"
                           : "thread-" + std::to_string(b->tid);
            threadNames.emplace_back(b->tid, std::move(name));
        }
        counters = s.counters;
    }
    std::sort(counters.begin(), counters.end(),
              [](const CounterSample &a, const CounterSample &b) {
                  return a.tsNs != b.tsNs ? a.tsNs < b.tsNs
                                          : a.name < b.name;
              });

    os << "{\n  \"displayTimeUnit\": \"ms\",\n  \"traceEvents\": [";
    bool first = true;
    const auto sep = [&]() -> const char * {
        const char *s = first ? "\n" : ",\n";
        first = false;
        return s;
    };

    // Metadata first: process name, then one label per known thread.
    os << sep()
       << "    {\"name\": \"process_name\", \"ph\": \"M\", "
          "\"pid\": 1, \"tid\": 0, \"args\": {\"name\": \"mcpat\"}}";
    for (const auto &[tid, name] : threadNames) {
        os << sep() << "    {\"name\": \"thread_name\", \"ph\": "
           << "\"M\", \"pid\": 1, \"tid\": " << tid
           << ", \"args\": {\"name\": \"" << jsonEscapeString(name)
           << "\"}}";
    }

    for (const TraceEvent &ev : events) {
        os << sep() << "    {\"name\": \"" << jsonEscapeString(ev.name)
           << "\", \"cat\": \"mcpat\", \"ph\": \"X\", \"pid\": 1, "
              "\"tid\": "
           << ev.tid << ", \"ts\": " << jsonRoundTrip(ev.startNs * 1e-3)
           << ", \"dur\": " << jsonRoundTrip(ev.durNs * 1e-3);
        if (!ev.arg.empty())
            os << ", \"args\": {\"detail\": \"" << jsonEscapeString(ev.arg)
               << "\"}";
        os << "}";
    }

    // Counter events render as value tracks under the spans; Chrome's
    // convention nests the series value inside "args".
    for (const CounterSample &c : counters) {
        os << sep() << "    {\"name\": \"" << jsonEscapeString(c.name)
           << "\", \"cat\": \"mcpat\", \"ph\": \"C\", \"pid\": 1, "
              "\"tid\": 0, \"ts\": "
           << jsonRoundTrip(c.tsNs * 1e-3) << ", \"args\": {\"value\": "
           << jsonRoundTrip(c.value) << "}}";
    }
    os << (first ? "]\n}\n" : "\n  ]\n}\n");
}

// ---------------------------------------------------------------------
// Run manifest.
// ---------------------------------------------------------------------

void
writeRunManifest(std::ostream &os, const RunInfo &info, int indent)
{
    const std::string pad(indent, ' ');
    std::vector<MetricSample> samples =
        Registry::instance().snapshot(true);

    // Derived figure: pool utilization over this run's wall clock.
    {
        double busy_s = 0.0, threads = 0.0;
        for (const auto &s : samples) {
            if (s.name == "parallel.busy")
                busy_s = s.value;
            else if (s.name == "parallel.threads")
                threads = s.value;
        }
        if (info.wallSeconds > 0.0 && threads > 0.0) {
            MetricSample util;
            util.name = "parallel.pool_utilization";
            util.kind = MetricKind::Gauge;
            util.value = busy_s / (threads * info.wallSeconds);
            samples.push_back(std::move(util));
            std::sort(samples.begin(), samples.end(),
                      [](const MetricSample &a, const MetricSample &b) {
                          return a.name < b.name;
                      });
        }
    }

    os << pad << "{\n"
       << pad << "  \"schema\": \"mcpat-run-manifest-v1\",\n"
       << pad << "  \"config\": \"" << jsonEscapeString(info.configPath)
       << "\",\n"
       << pad << "  \"config_checksum\": \""
       << jsonEscapeString(info.configChecksum) << "\",\n"
       << pad << "  \"threads\": " << parallel::threadCount() << ",\n"
       << pad << "  \"wall_ms\": " << jsonRoundTrip(info.wallSeconds * 1e3)
       << ",\n"
       << pad << "  \"valid\": " << (info.valid ? "true" : "false")
       << ",\n";

    // Phases: every "span.*" timer, name prefix stripped.
    os << pad << "  \"phases\": {";
    bool first = true;
    for (const auto &s : samples) {
        if (s.kind != MetricKind::Timer ||
            s.name.rfind("span.", 0) != 0)
            continue;
        os << (first ? "\n" : ",\n") << pad << "    \""
           << jsonEscapeString(s.name.substr(5)) << "\": {\"total_ms\": "
           << jsonRoundTrip(s.value * 1e3) << ", \"count\": " << s.count
           << "}";
        first = false;
    }
    os << (first ? "},\n" : "\n" + pad + "  },\n");

    os << pad << "  \"counters\": {";
    first = true;
    for (const auto &s : samples) {
        if (s.kind != MetricKind::Counter)
            continue;
        os << (first ? "\n" : ",\n") << pad << "    \""
           << jsonEscapeString(s.name) << "\": " << s.count;
        first = false;
    }
    os << (first ? "},\n" : "\n" + pad + "  },\n");

    os << pad << "  \"gauges\": {";
    first = true;
    for (const auto &s : samples) {
        if (s.kind != MetricKind::Gauge)
            continue;
        os << (first ? "\n" : ",\n") << pad << "    \""
           << jsonEscapeString(s.name) << "\": " << jsonRoundTrip(s.value);
        first = false;
    }
    os << (first ? "},\n" : "\n" + pad + "  },\n");

    os << pad << "  \"timers\": {";
    first = true;
    for (const auto &s : samples) {
        if (s.kind != MetricKind::Timer ||
            s.name.rfind("span.", 0) == 0)
            continue;
        os << (first ? "\n" : ",\n") << pad << "    \""
           << jsonEscapeString(s.name) << "\": {\"total_ms\": "
           << jsonRoundTrip(s.value * 1e3) << ", \"count\": " << s.count
           << "}";
        first = false;
    }
    os << (first ? "},\n" : "\n" + pad + "  },\n");

    os << pad << "  \"histograms\": {";
    first = true;
    for (const auto &[name, h] :
         Registry::instance().histogramSnapshots()) {
        os << (first ? "\n" : ",\n") << pad << "    \""
           << jsonEscapeString(name) << "\": {\"count\": " << h.count
           << ", \"mean\": " << jsonRoundTrip(h.mean())
           << ", \"p50\": " << jsonRoundTrip(h.quantile(0.50))
           << ", \"p95\": " << jsonRoundTrip(h.quantile(0.95))
           << ", \"p99\": " << jsonRoundTrip(h.quantile(0.99))
           << ", \"min\": " << jsonRoundTrip(h.min)
           << ", \"max\": " << jsonRoundTrip(h.max) << "}";
        first = false;
    }
    os << (first ? "}\n" : "\n" + pad + "  }\n");
    os << pad << "}";
}

std::string
runManifestJson(const RunInfo &info, int indent)
{
    std::ostringstream os;
    writeRunManifest(os, info, indent);
    return os.str();
}

std::string
fileChecksumHex(const std::string &path)
{
    std::vector<std::uint8_t> bytes;
    if (!common::readFileBytes(path, bytes))
        return "";
    return "0x" + common::toHex64(common::fnv1a64(bytes));
}

// ---------------------------------------------------------------------
// Progress meter.
// ---------------------------------------------------------------------

ProgressMeter::ProgressMeter(std::string label, std::size_t total,
                             std::ostream *os)
    : _label(std::move(label)), _total(total), _os(os),
      _startNs(nowNanos())
{
}

void
ProgressMeter::tick()
{
    std::size_t done =
        _done.fetch_add(1, std::memory_order_relaxed) + 1;
    // A resumed run can replay journaled items beyond the planned
    // total; clamp so the meter never reports >100% or a negative ETA.
    if (_total && done > _total)
        done = _total;
    if (!progressEnabled())
        return;
    const double elapsed = (nowNanos() - _startNs) * 1e-9;
    const double frac =
        _total ? static_cast<double>(done) / _total : 1.0;
    const double eta =
        (frac > 0.0 && done < _total) ? elapsed * (1.0 - frac) / frac
                                      : 0.0;
    std::ostringstream line;
    line << _label << ": " << done << "/" << _total << " ("
         << std::fixed << std::setprecision(1) << 100.0 * frac
         << "%), elapsed " << std::setprecision(1) << elapsed
         << "s, eta " << std::setprecision(1) << eta << "s\n";
    // One formatted write per line keeps concurrent ticks readable.
    if (_os)
        *_os << line.str() << std::flush;
    else
        std::fputs(line.str().c_str(), stderr);
}

} // namespace instr
} // namespace mcpat
