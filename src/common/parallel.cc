/**
 * @file
 * Thread-pool implementation behind parallel::parallelFor.
 */

#include "common/parallel.hh"

#include <atomic>
#include <condition_variable>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <limits>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "common/cancel.hh"
#include "common/event_log.hh"
#include "common/instrument.hh"
#include "common/strict_parse.hh"

namespace mcpat {
namespace parallel {

namespace {

/** Set while a thread is executing parallelFor work (nesting guard). */
thread_local bool t_inParallelRegion = false;

int
defaultThreadCount()
{
    if (const char *env = std::getenv("MCPAT_THREADS")) {
        const int n = parseThreadCountEnv(env);
        if (n >= 1)
            return n;
        // Warn once: atoi-style silent acceptance of "8x" (as 8) or
        // "abc" (as 0 -> hardware default) hid typos entirely.
        static bool warned = false;
        if (!warned) {
            warned = true;
            std::cerr << "mcpat: warning: ignoring MCPAT_THREADS='"
                      << env << "' (expected a positive integer); "
                         "using the hardware default\n";
            if (elog::enabled(elog::Level::Warn)) {
                elog::emit(elog::Level::Warn, "common.parallel",
                           "bad_thread_env",
                           "ignoring MCPAT_THREADS (expected a "
                           "positive integer); using the hardware "
                           "default",
                           {elog::Field::str("env_var",
                                             "MCPAT_THREADS"),
                            elog::Field::str("value", env)});
            }
        }
    }
    const unsigned hw = std::thread::hardware_concurrency();
    return hw >= 1 ? static_cast<int>(hw) : 1;
}

/** 0 = unset (use the environment / hardware default). */
std::atomic<int> g_threadCount{0};

/**
 * One parallelFor invocation.  Indices are claimed with an atomic
 * counter; completion is tracked with a second counter so the
 * submitting thread can wait for the exact moment all work retired.
 */
struct Job
{
    std::size_t n = 0;
    const std::function<void(std::size_t)> *fn = nullptr;
    /** Workers beyond this many skip the job (honors thread count). */
    int maxHelpers = 0;
    /** Submitter's ambient cancel token, re-installed in every worker
     *  so deadlines and interrupts reach distributed work. */
    const cancel::CancelToken *cancelToken = nullptr;
    std::atomic<std::size_t> next{0};
    std::atomic<std::size_t> done{0};
    std::atomic<int> helpers{0};
    std::atomic<bool> failed{false};
    std::mutex errorMutex;
    std::exception_ptr error;
};

/**
 * Persistent worker pool.  Workers sleep on a condition variable and
 * wake when a job is published; they never busy-wait between jobs.
 */
class Pool
{
  public:
    static Pool &
    instance()
    {
        static Pool p;
        return p;
    }

    void
    run(std::size_t n, const std::function<void(std::size_t)> &fn,
        int threads)
    {
        // One top-level job at a time keeps worker hand-off simple;
        // concurrent outer callers just serialize here.
        std::lock_guard<std::mutex> submit(_submitMutex);

        // Metrics are looked up by name once, on first instrumented
        // use, so no job pays a registry lookup (string, mutex, map).
        const bool instrumented = instr::enabled();
        if (instrumented) {
            static instr::Counter &jobs =
                instr::Registry::instance().counter("parallel.jobs");
            static instr::Gauge &depth =
                instr::Registry::instance().gauge(
                    "parallel.queue_depth_max");
            jobs.add();
            depth.setMax(static_cast<double>(n));
        }

        auto job = std::make_shared<Job>();
        job->n = n;
        job->fn = &fn;
        job->maxHelpers = threads - 1;
        job->cancelToken = cancel::current();

        ensureWorkers(std::min<std::size_t>(n, threads) - 1);
        {
            std::lock_guard<std::mutex> lock(_mutex);
            _job = job;
            ++_jobSeq;
        }
        _wake.notify_all();

        drain(*job);  // the submitting thread works too

        {
            // Time the submitter's wait for stragglers: the closest
            // thing this claim-based pool has to steal/imbalance cost.
            const std::uint64_t t0 =
                instrumented ? instr::nowNanos() : 0;
            std::unique_lock<std::mutex> lock(_mutex);
            _done.wait(lock, [&] { return job->done.load() == job->n; });
            _job.reset();
            if (instrumented) {
                static instr::Timer &wait =
                    instr::Registry::instance().timer("parallel.wait");
                wait.addNanos(instr::nowNanos() - t0);
            }
        }
        if (job->error)
            std::rethrow_exception(job->error);
    }

  private:
    Pool() = default;

    ~Pool()
    {
        {
            std::lock_guard<std::mutex> lock(_mutex);
            _shutdown = true;
        }
        _wake.notify_all();
        for (auto &w : _workers)
            w.join();
    }

    void
    ensureWorkers(std::size_t wanted)
    {
        std::lock_guard<std::mutex> lock(_mutex);
        while (_workers.size() < wanted) {
            const std::size_t ordinal = _workers.size();
            _workers.emplace_back([this, ordinal] {
                // Stable lane labels in trace output: pool-0, pool-1,
                // ... by spawn order, independent of raw tids.
                instr::setThreadName("pool-" +
                                     std::to_string(ordinal));
                workerLoop();
            });
        }
    }

    void
    workerLoop()
    {
        std::uint64_t seen = 0;
        for (;;) {
            std::shared_ptr<Job> job;
            {
                std::unique_lock<std::mutex> lock(_mutex);
                _wake.wait(lock, [&] {
                    return _shutdown || (_job && _jobSeq != seen);
                });
                if (_shutdown)
                    return;
                job = _job;
                seen = _jobSeq;
            }
            // Late workers beyond the requested thread count sit this
            // job out (the pool never shrinks, the job just ignores
            // surplus hands).
            if (job->helpers.fetch_add(1) < job->maxHelpers)
                drain(*job);
        }
    }

    /** Claim and execute indices until the job is exhausted. */
    void
    drain(Job &job)
    {
        const bool instrumented = instr::enabled();
        const std::uint64_t t0 = instrumented ? instr::nowNanos() : 0;
        // Adopt the submitter's cancel token so checkpoint() calls in
        // the loop body observe the same deadline on every thread.  On
        // the submitting thread this re-installs its own token (a
        // harmless no-op); on pool workers it replaces nullptr.
        cancel::ScopedCurrent adopt(job.cancelToken);
        t_inParallelRegion = true;
        std::size_t finished = 0;
        for (;;) {
            const std::size_t i =
                job.next.fetch_add(1, std::memory_order_relaxed);
            if (i >= job.n)
                break;
            if (!job.failed.load(std::memory_order_relaxed)) {
                try {
                    (*job.fn)(i);
                } catch (...) {
                    std::lock_guard<std::mutex> lock(job.errorMutex);
                    if (!job.failed.exchange(true))
                        job.error = std::current_exception();
                }
            }
            ++finished;
        }
        t_inParallelRegion = false;
        if (instrumented) {
            static instr::Counter &tasks =
                instr::Registry::instance().counter("parallel.tasks");
            static instr::Timer &busy =
                instr::Registry::instance().timer("parallel.busy");
            tasks.add(finished);
            busy.addNanos(instr::nowNanos() - t0, finished);
        }
        if (finished &&
            job.done.fetch_add(finished) + finished == job.n) {
            // Pair the notification with the mutex so the submitter
            // cannot miss it between its predicate check and wait.
            std::lock_guard<std::mutex> lock(_mutex);
            _done.notify_all();
        }
    }

    std::mutex _submitMutex;
    std::mutex _mutex;
    std::condition_variable _wake;
    std::condition_variable _done;
    std::vector<std::thread> _workers;
    std::shared_ptr<Job> _job;
    std::uint64_t _jobSeq = 0;
    bool _shutdown = false;
};

/** Publishes the effective worker count into every registry snapshot. */
[[maybe_unused]] const bool g_threads_collector_registered =
    instr::Registry::instance().addCollector([](instr::Registry &reg) {
        reg.gauge("parallel.threads")
            .set(static_cast<double>(threadCount()));
    });

} // namespace

int
parseThreadCountEnv(const char *text)
{
    if (!text)
        return 0;
    long long n = 0;
    if (!common::parseLongStrict(text, n))
        return 0;
    if (n < 1 || n > std::numeric_limits<int>::max())
        return 0;
    return static_cast<int>(n);
}

int
threadCount()
{
    const int n = g_threadCount.load(std::memory_order_relaxed);
    if (n >= 1)
        return n;
    static const int dflt = defaultThreadCount();
    return dflt;
}

void
setThreadCount(int n)
{
    g_threadCount.store(n >= 1 ? n : 0, std::memory_order_relaxed);
}

bool
inParallelRegion()
{
    return t_inParallelRegion;
}

void
parallelFor(std::size_t n, const std::function<void(std::size_t)> &fn)
{
    const int threads = threadCount();
    if (n == 0)
        return;
    if (n == 1 || threads <= 1 || t_inParallelRegion) {
        // Serial fallback: also taken for nested calls so inner
        // parallelism cannot deadlock on or oversubscribe the pool.
        if (instr::enabled()) {
            static instr::Counter &serial_tasks =
                instr::Registry::instance().counter(
                    "parallel.serial_tasks");
            serial_tasks.add(n);
        }
        const bool outer = t_inParallelRegion;
        t_inParallelRegion = true;
        try {
            for (std::size_t i = 0; i < n; ++i)
                fn(i);
        } catch (...) {
            t_inParallelRegion = outer;
            throw;
        }
        t_inParallelRegion = outer;
        return;
    }
    Pool::instance().run(n, fn, threads);
}

} // namespace parallel
} // namespace mcpat
