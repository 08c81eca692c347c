/**
 * @file
 * Cooperative cancellation: deadlines, interrupts, and checkpoints.
 *
 * Long evaluations (a full-chip solve, a sweep, one batch item) need
 * two ways to stop early without killing the process:
 *
 *  - a **deadline**: `-eval_timeout_ms` bounds one evaluation's wall
 *    clock, so a pathological configuration cannot hang a server
 *    worker or stall a thousand-config batch;
 *  - an **interrupt**: SIGINT/SIGTERM request an orderly stop — finish
 *    nothing new, unwind what's running, flush results and journals.
 *
 * Both are carried by a CancelToken.  Code that can run long calls
 * cancel::checkpoint() at natural boundaries (per array-organization
 * solve, per design point in a sweep, between evaluation phases); a
 * tripped token throws Cancelled, which unwinds to the evaluation core
 * and becomes a structured diagnostic instead of a dead process.
 *
 * Tokens are *ambient*: an evaluation installs its token with
 * ScopedCurrent and everything downstream — including work distributed
 * over the parallel::parallelFor pool, which re-installs the
 * submitter's token in its workers — polls it without any signature
 * changes through the model layers.
 *
 * The process-wide stop flag is the only thing the signal handlers
 * touch (a lock-free atomic store, async-signal-safe); every token
 * honors it by default so one Ctrl-C reaches all in-flight work.
 */

#ifndef MCPAT_COMMON_CANCEL_HH
#define MCPAT_COMMON_CANCEL_HH

#include <atomic>
#include <chrono>
#include <stdexcept>
#include <string>

namespace mcpat {
namespace cancel {

/** Why a cancellation fired. */
enum class Kind
{
    None,       ///< not cancelled
    Timeout,    ///< a deadline elapsed
    Interrupt   ///< an explicit or signal-driven stop request
};

/** "timeout" or "interrupt" ("none" for Kind::None). */
const char *kindName(Kind k);

/**
 * Thrown by checkpoints when the governing token has tripped.  Derives
 * from std::runtime_error so generic catch sites degrade gracefully;
 * resilience-aware sites catch it first to report a structured
 * timeout/interrupt instead of a generic failure.
 */
class Cancelled : public std::runtime_error
{
  public:
    Cancelled(Kind kind, const std::string &what)
        : std::runtime_error(what), _kind(kind)
    {}

    Kind kind() const { return _kind; }

  private:
    Kind _kind;
};

/**
 * One cancellation scope: an optional wall-clock deadline, an explicit
 * cancel flag, an optional parent token (nested scopes), and the
 * process-wide stop flag (honored unless opted out).
 *
 * Thread safety: requestCancel() and the query methods may race freely
 * (the flag is atomic); deadline/parent configuration must happen
 * before the token is shared.
 */
class CancelToken
{
  public:
    CancelToken() = default;

    /** Arm a deadline @p ms from now; ms <= 0 leaves none armed. */
    void setDeadlineIn(double ms);

    /** The configured timeout in ms; 0 when no deadline is armed. */
    double timeoutMs() const { return _timeoutMs; }

    /** Trip the token explicitly (reported as Kind::Interrupt). */
    void requestCancel() { _cancelled.store(true, std::memory_order_relaxed); }

    /** Chain a parent scope; a tripped parent trips this token too. */
    void setParent(const CancelToken *parent) { _parent = parent; }

    /** Opt out of the process-wide stop flag (tests). */
    void setHonorGlobalStop(bool on) { _honorGlobalStop = on; }

    /** Why this token is tripped right now; Kind::None when it isn't. */
    Kind state() const;

    bool cancelled() const { return state() != Kind::None; }

    /** Throw Cancelled when tripped; cheap no-op otherwise. */
    void checkpoint() const;

  private:
    std::atomic<bool> _cancelled{false};
    bool _honorGlobalStop = true;
    bool _hasDeadline = false;
    double _timeoutMs = 0.0;
    std::chrono::steady_clock::time_point _deadline{};
    const CancelToken *_parent = nullptr;
};

// ---------------------------------------------------------------------
// Ambient token
// ---------------------------------------------------------------------

/** The calling thread's governing token; nullptr when none installed. */
const CancelToken *current();

/**
 * Install @p token as the calling thread's ambient token for this
 * scope (restores the previous one on destruction).  parallelFor
 * propagates the submitting thread's ambient token into its workers
 * for the duration of each job.
 */
class ScopedCurrent
{
  public:
    explicit ScopedCurrent(const CancelToken *token);
    ~ScopedCurrent();
    ScopedCurrent(const ScopedCurrent &) = delete;
    ScopedCurrent &operator=(const ScopedCurrent &) = delete;

  private:
    const CancelToken *_previous;
};

/**
 * Checkpoint against the ambient token: throws Cancelled when the
 * current token (or the process-wide stop flag, even with no token
 * installed) has tripped.  Safe and cheap to call anywhere.
 */
void checkpoint();

// ---------------------------------------------------------------------
// Process-wide stop flag (signal handlers)
// ---------------------------------------------------------------------

/**
 * Request an orderly process-wide stop.  Async-signal-safe: performs a
 * single lock-free atomic store.  @p signal is remembered (the first
 * one wins) so the front end can exit with the conventional
 * 128+signal status.
 */
void requestStop(int signal);

/** True once requestStop() has been called (and not cleared). */
bool stopRequested();

/** The first stop signal received; 0 when none. */
int stopSignal();

/** Clear the stop flag (tests, embedded reuse). */
void clearStop();

/**
 * Install async-signal-safe SIGINT/SIGTERM handlers that call
 * requestStop(sig).  Used by the batch front end so an interrupted
 * run flushes its completed results and finalizes its journal instead
 * of dying mid-write.
 */
void installStopHandlers();

} // namespace cancel
} // namespace mcpat

#endif // MCPAT_COMMON_CANCEL_HH
