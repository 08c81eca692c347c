/**
 * @file
 * Parallel-evaluation engine: a persistent thread pool with a
 * deterministic parallelFor.
 *
 * McPAT evaluations are embarrassingly parallel at several levels
 * (per-component chip assembly, case-study and sweep design points,
 * per-workload activity evaluation).  The array-organization search is
 * not one of them: a solve is a few tens of microseconds and nearly
 * always runs inside a component task, so it is a plain serial loop.
 * This utility parallelizes an index range over a shared worker pool while
 * keeping results bit-identical to the serial path: every index writes
 * into its own pre-allocated slot and all reductions happen serially in
 * index order on the calling thread, so no floating-point sum is ever
 * reassociated across threads.
 *
 * Thread count resolution order:
 *   1. parallel::setThreadCount(n) (CLI flag -threads, tests);
 *   2. the MCPAT_THREADS environment variable;
 *   3. std::thread::hardware_concurrency().
 *
 * Nested parallelFor calls (e.g. a chip build inside a parallel sweep
 * round) run inline on the calling worker, so arbitrary nesting is safe
 * and never oversubscribes or deadlocks.
 */

#ifndef MCPAT_COMMON_PARALLEL_HH
#define MCPAT_COMMON_PARALLEL_HH

#include <cstddef>
#include <functional>

namespace mcpat {
namespace parallel {

/**
 * Effective worker count for subsequent parallelFor calls (>= 1).
 * 1 means fully serial execution.
 */
int threadCount();

/**
 * Override the worker count.  @p n <= 0 resets to the environment /
 * hardware default.  Callable at any time; takes effect on the next
 * parallelFor.  Worker threads are created lazily and never destroyed
 * until process exit, so raising and lowering the count is cheap.
 */
void setThreadCount(int n);

/** True when the calling thread is inside a parallelFor body. */
bool inParallelRegion();

/**
 * Parse an MCPAT_THREADS-style value.  The whole token must be a
 * positive integer ("8"); partial matches that atoi would half-accept
 * ("8x", "2.5") and zero/negative counts return 0, meaning "fall back
 * to the hardware default".  @p text may be null (unset variable).
 */
int parseThreadCountEnv(const char *text);

/**
 * Run fn(i) for every i in [0, n), distributing indices over the pool,
 * and block until all complete.  The calling thread participates.
 *
 * Guarantees:
 *  - every index runs exactly once;
 *  - exceptions thrown by @p fn are rethrown on the calling thread
 *    (the first one encountered; remaining indices are skipped);
 *  - nested calls and threadCount() == 1 degrade to a plain serial
 *    loop on the calling thread.
 *
 * Determinism contract: @p fn must only write to per-index state
 * (e.g. slot i of a pre-sized vector).  Cross-index reductions belong
 * after the call, in index order.
 */
void parallelFor(std::size_t n, const std::function<void(std::size_t)> &fn);

} // namespace parallel
} // namespace mcpat

#endif // MCPAT_COMMON_PARALLEL_HH
