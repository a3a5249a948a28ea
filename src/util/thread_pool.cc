#include "src/util/thread_pool.hh"

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstdlib>
#include <limits>
#include <memory>
#include <stdexcept>
#include <utility>

namespace imli
{

ThreadPool::ThreadPool(unsigned threads)
{
    if (threads == 0)
        threads = hardwareThreads();
    workers.reserve(threads);
    try {
        for (unsigned i = 0; i < threads; ++i)
            workers.emplace_back([this] { workerLoop(); });
    } catch (...) {
        // A failed std::thread launch (resource exhaustion) must not
        // destroy joinable threads — that would std::terminate.  Wind
        // down the ones that did start and surface the original error.
        {
            std::unique_lock<std::mutex> lock(mutex);
            stopping = true;
        }
        workAvailable.notify_all();
        for (std::thread &t : workers)
            t.join();
        throw;
    }
}

ThreadPool::~ThreadPool()
{
    {
        std::unique_lock<std::mutex> lock(mutex);
        stopping = true;
    }
    workAvailable.notify_all();
    for (std::thread &t : workers)
        t.join();
}

void
ThreadPool::submit(std::function<void()> task)
{
    {
        std::unique_lock<std::mutex> lock(mutex);
        queue.push_back(std::move(task));
        ++inFlight;
    }
    workAvailable.notify_one();
}

void
ThreadPool::wait()
{
    std::unique_lock<std::mutex> lock(mutex);
    allIdle.wait(lock, [this] { return inFlight == 0; });
    if (firstError) {
        std::exception_ptr err = firstError;
        firstError = nullptr;
        std::rethrow_exception(err);
    }
}

void
ThreadPool::parallelFor(std::size_t count,
                        const std::function<void(std::size_t)> &body)
{
    if (count == 0)
        return;
    // One task per worker; each task pulls the next index off the shared
    // cursor, so indices are sharded dynamically (fast workers do more).
    auto cursor = std::make_shared<std::atomic<std::size_t>>(0);
    const std::size_t lanes =
        std::min<std::size_t>(count, workers.size());
    for (std::size_t lane = 0; lane < lanes; ++lane) {
        submit([cursor, count, &body] {
            for (std::size_t i = cursor->fetch_add(1); i < count;
                 i = cursor->fetch_add(1))
                body(i);
        });
    }
    wait();
}

unsigned
ThreadPool::hardwareThreads()
{
    const unsigned n = std::thread::hardware_concurrency();
    return n == 0 ? 1 : n;
}

namespace
{

enum class JobsParse
{
    HardwareThreads, //!< "auto", "max" or 0
    Value,           //!< a positive worker count (possibly saturated)
    Invalid,
};

JobsParse
parseJobsText(const std::string &text, unsigned long &value)
{
    if (text == "auto" || text == "max")
        return JobsParse::HardwareThreads;
    if (text.empty() ||
        text.find_first_not_of("0123456789") != std::string::npos)
        return JobsParse::Invalid;
    errno = 0;
    value = std::strtoul(text.c_str(), nullptr, 10);
    if (errno == ERANGE)
        value = std::numeric_limits<unsigned long>::max();
    if (value == 0)
        return JobsParse::HardwareThreads;
    return JobsParse::Value;
}

} // anonymous namespace

unsigned
ThreadPool::parseJobs(const std::string &text, unsigned def)
{
    unsigned long value = 0;
    switch (parseJobsText(text, value)) {
      case JobsParse::HardwareThreads:
        return hardwareThreads();
      case JobsParse::Invalid:
        return def;
      case JobsParse::Value:
        break;
    }
    return static_cast<unsigned>(std::min(value, maxJobs));
}

unsigned
ThreadPool::parseJobsStrict(const std::string &text, const std::string &what)
{
    unsigned long value = 0;
    switch (parseJobsText(text, value)) {
      case JobsParse::HardwareThreads:
        return hardwareThreads();
      case JobsParse::Invalid:
        throw std::runtime_error(
            what + ": invalid worker count \"" + text +
            "\" (expected a non-negative integer, \"auto\" or \"max\")");
      case JobsParse::Value:
        break;
    }
    if (value > maxJobs)
        throw std::runtime_error(
            what + ": worker count " + text + " exceeds the sanity cap of " +
            std::to_string(maxJobs));
    return static_cast<unsigned>(value);
}

void
ThreadPool::workerLoop()
{
    for (;;) {
        std::function<void()> task;
        {
            std::unique_lock<std::mutex> lock(mutex);
            workAvailable.wait(
                lock, [this] { return stopping || !queue.empty(); });
            if (queue.empty())
                return; // stopping and drained
            task = std::move(queue.front());
            queue.pop_front();
        }
        try {
            task();
        } catch (...) {
            std::unique_lock<std::mutex> lock(mutex);
            if (!firstError)
                firstError = std::current_exception();
        }
        {
            std::unique_lock<std::mutex> lock(mutex);
            if (--inFlight == 0)
                allIdle.notify_all();
        }
    }
}

} // namespace imli
