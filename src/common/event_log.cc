/**
 * @file
 * Event-log implementation: level gate, sink state, record formatting.
 */

#include "common/event_log.hh"

#include <atomic>
#include <chrono>
#include <fstream>
#include <memory>
#include <mutex>
#include <sstream>

#include "common/diagnostics.hh"
#include "common/instrument.hh"
#include "common/serialize.hh"

#ifdef _WIN32
#include <process.h>
#else
#include <unistd.h>
#endif

namespace mcpat {
namespace elog {

namespace {

/**
 * The single hot-path gate: the minimum level the sink accepts, or
 * kClosed when no sink is open.  enabled() reads only this.
 */
constexpr int kClosed = static_cast<int>(Level::Error) + 1;
std::atomic<int> g_gate{kClosed};

/** Sink state behind the gate; only touched when open/emitting. */
struct Sink
{
    std::mutex mutex;
    std::unique_ptr<std::ofstream> out;
    std::string runId;
};

Sink &
sink()
{
    static Sink *s = new Sink;  // leaked: usable during static dtors
    return *s;
}

thread_local std::string t_requestId;

std::int64_t
wallMillis()
{
    return std::chrono::duration_cast<std::chrono::milliseconds>(
               std::chrono::system_clock::now().time_since_epoch())
        .count();
}

} // namespace

bool
parseLevel(const std::string &text, Level &out)
{
    if (text == "debug")
        out = Level::Debug;
    else if (text == "info")
        out = Level::Info;
    else if (text == "warn")
        out = Level::Warn;
    else if (text == "error")
        out = Level::Error;
    else
        return false;
    return true;
}

const char *
levelName(Level lv)
{
    switch (lv) {
      case Level::Debug:
        return "debug";
      case Level::Info:
        return "info";
      case Level::Warn:
        return "warn";
      case Level::Error:
        return "error";
    }
    return "info";
}

Field
Field::str(std::string key, std::string value)
{
    Field f;
    f.key = std::move(key);
    f.text = std::move(value);
    return f;
}

Field
Field::num(std::string key, double value)
{
    Field f;
    f.key = std::move(key);
    f.number = value;
    f.isNumber = true;
    return f;
}

bool
open(const std::string &path)
{
    Sink &s = sink();
    std::lock_guard<std::mutex> lock(s.mutex);
    auto out = std::make_unique<std::ofstream>(
        path, std::ios::out | std::ios::trunc);
    if (!*out)
        return false;
    s.out = std::move(out);
    // Run ID: checksum of PID and wall clock — unique enough to
    // separate processes in an aggregated stream, cheap to mint.
    std::ostringstream seed;
    seed <<
#ifdef _WIN32
        _getpid()
#else
        ::getpid()
#endif
         << ":" << wallMillis();
    const std::string bytes = seed.str();
    s.runId = "0x" + common::toHex64(common::fnv1a64(
                         reinterpret_cast<const std::uint8_t *>(
                             bytes.data()),
                         bytes.size()));
    const int cur = g_gate.load(std::memory_order_relaxed);
    g_gate.store(cur == kClosed ? static_cast<int>(Level::Info) : cur,
                 std::memory_order_relaxed);
    return true;
}

void
close()
{
    Sink &s = sink();
    std::lock_guard<std::mutex> lock(s.mutex);
    g_gate.store(kClosed, std::memory_order_relaxed);
    if (s.out)
        s.out->flush();
    s.out.reset();
    s.runId.clear();
}

void
setLevel(Level lv)
{
    Sink &s = sink();
    std::lock_guard<std::mutex> lock(s.mutex);
    if (s.out)
        g_gate.store(static_cast<int>(lv), std::memory_order_relaxed);
}

bool
enabled(Level lv)
{
    return static_cast<int>(lv) >=
           g_gate.load(std::memory_order_relaxed);
}

std::string
runId()
{
    Sink &s = sink();
    std::lock_guard<std::mutex> lock(s.mutex);
    return s.runId;
}

void
emit(Level lv, const std::string &component, const std::string &event,
     const std::string &message, const std::vector<Field> &fields)
{
    if (!enabled(lv))
        return;
    // Format outside the sink lock: only the final write serializes.
    std::ostringstream line;
    line << "{\"ts_ms\": " << wallMillis() << ", \"mono_ms\": "
         << jsonRoundTrip(instr::nowNanos() * 1e-6) << ", \"level\": \""
         << levelName(lv) << "\", \"component\": \""
         << jsonEscapeString(component) << "\", \"event\": \""
         << jsonEscapeString(event) << "\"";
    if (!t_requestId.empty())
        line << ", \"request\": \"" << jsonEscapeString(t_requestId) << "\"";
    line << ", \"message\": \"" << jsonEscapeString(message) << "\"";
    for (const Field &f : fields) {
        line << ", \"" << jsonEscapeString(f.key) << "\": ";
        if (f.isNumber)
            line << jsonRoundTrip(f.number);
        else
            line << "\"" << jsonEscapeString(f.text) << "\"";
    }

    Sink &s = sink();
    std::lock_guard<std::mutex> lock(s.mutex);
    if (!s.out)
        return;  // closed between the gate check and here
    *s.out << line.str() << ", \"run\": \"" << s.runId << "\"}\n";
    s.out->flush();  // a crash loses at most the in-flight line
}

ScopedRequestId::ScopedRequestId(const std::string &id)
    : _previous(t_requestId)
{
    t_requestId = id;
}

ScopedRequestId::~ScopedRequestId()
{
    t_requestId = _previous;
}

} // namespace elog
} // namespace mcpat
