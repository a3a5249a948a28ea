/**
 * @file
 * Fixed-size worker thread pool with a sharded parallel-for.
 *
 * Two layers of API:
 *
 *  - submit(): enqueue an arbitrary task; wait() blocks until the queue
 *    drains.  Used for heterogeneous work (per-benchmark jobs).
 *  - parallelFor(): distribute indices [0, count) over the workers via a
 *    shared atomic cursor, so fast workers steal the remaining indices
 *    from slow ones (self-scheduling).  Used by the suite runner to fan
 *    predictor x workload cells out.
 *
 * A pool of size 1 still runs tasks on its single worker thread, so the
 * concurrency = 1 path exercises the same machinery as N > 1; callers
 * that want a true zero-thread serial path (e.g. for bit-identical
 * debugging under a debugger) should branch before reaching the pool.
 *
 * Exceptions thrown by tasks are captured; the first one is rethrown from
 * wait() / parallelFor() on the calling thread.
 */

#ifndef IMLI_SRC_UTIL_THREAD_POOL_HH
#define IMLI_SRC_UTIL_THREAD_POOL_HH

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace imli
{

class ThreadPool
{
  public:
    /**
     * @param threads worker count; 0 means hardwareThreads().
     */
    explicit ThreadPool(unsigned threads = 0);

    /** Joins the workers; pending tasks are completed first. */
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /** Number of worker threads. */
    unsigned size() const { return static_cast<unsigned>(workers.size()); }

    /** Enqueue one task. */
    void submit(std::function<void()> task);

    /**
     * Block until every submitted task has finished.  Rethrows the first
     * captured task exception (subsequent ones are dropped).
     */
    void wait();

    /**
     * Run @p body(i) for every i in [0, count), self-scheduled across the
     * workers; blocks until complete.  The calling thread does not execute
     * body itself.  Rethrows the first captured exception.
     */
    void parallelFor(std::size_t count,
                     const std::function<void(std::size_t)> &body);

    /** std::thread::hardware_concurrency with a floor of 1. */
    static unsigned hardwareThreads();

    /** Sanity cap on worker counts parsed from flags/env. */
    static constexpr unsigned long maxJobs = 1024;

    /**
     * Parse a worker-count string shared by --jobs and IMLI_JOBS:
     * "auto", "max" and "0" mean hardwareThreads(); digit strings are
     * clamped to maxJobs; anything else (including negatives, which
     * strtoul would wrap) yields @p def.
     */
    static unsigned parseJobs(const std::string &text, unsigned def);

    /**
     * Strict variant for environment overrides: same accepted forms as
     * parseJobs, but garbage and counts above maxJobs throw
     * std::runtime_error naming @p what (e.g. "IMLI_JOBS") — a typo in
     * an env var should fail loudly, not silently fall back or clamp.
     */
    static unsigned parseJobsStrict(const std::string &text,
                                    const std::string &what);

  private:
    void workerLoop();

    std::vector<std::thread> workers;
    std::deque<std::function<void()>> queue;
    std::mutex mutex;
    std::condition_variable workAvailable; //!< signalled on submit/stop
    std::condition_variable allIdle;       //!< signalled when queue drains
    std::size_t inFlight = 0;              //!< queued + currently running
    std::exception_ptr firstError;
    bool stopping = false;
};

} // namespace imli

#endif // IMLI_SRC_UTIL_THREAD_POOL_HH
