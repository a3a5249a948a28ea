#include "timing.hh"

#include <algorithm>
#include <atomic>
#include <fstream>
#include <stdexcept>
#include <thread>
#include <type_traits>
#include <utility>

namespace e2e
{

namespace
{

/** Keeps the calibration kernel's result observable. */
std::atomic<std::uint64_t> calibrationSink{0};

void
calibrationKernel(std::uint64_t seed)
{
    // On the stack: heap traffic here would change the allocator state
    // the measured phases run in.
    std::uint32_t table[1u << 14] = {};
    std::uint64_t x = 0x9E3779B97F4A7C15ull ^ seed, acc = 0;
    for (std::uint32_t i = 0; i < 4000000; ++i) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        std::uint32_t &entry = table[x & ((1u << 14) - 1)];
        acc += entry;
        entry += static_cast<std::uint32_t>(x >> 40) | 1u;
        if (entry & 0x100u)
            acc ^= x;
    }
    calibrationSink += acc;
}

/** Run @p fn, charging its duration to @p stat. */
template <typename Fn>
auto
timed(CallStat &stat, Fn &&fn)
{
    const Clock::time_point start = Clock::now();
    if constexpr (std::is_void_v<decltype(fn())>) {
        fn();
        stat.nanos += nanosSince(start);
        ++stat.calls;
    } else {
        auto result = fn();
        stat.nanos += nanosSince(start);
        ++stat.calls;
        return result;
    }
}

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    for (const char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        out += c;
    }
    return out;
}

} // anonymous namespace

void
PredictorCalls::add(const PredictorCalls &o)
{
    predict.add(o.predict);
    update.add(o.update);
    track.add(o.track);
    checkpoint.add(o.checkpoint);
    restore.add(o.restore);
    speculate.add(o.speculate);
    squashes += o.squashes;
}

std::uint64_t
PredictorCalls::nanos() const
{
    return predict.nanos + update.nanos + track.nanos + checkpoint.nanos +
           restore.nanos + speculate.nanos;
}

TimedPredictor::TimedPredictor(imli::PredictorPtr inner)
    : inner(std::move(inner))
{
    if (!this->inner)
        throw std::invalid_argument("TimedPredictor: null predictor");
}

bool
TimedPredictor::predict(std::uint64_t pc)
{
    return timed(stats.predict, [&] { return inner->predict(pc); });
}

void
TimedPredictor::update(std::uint64_t pc, bool taken, std::uint64_t target)
{
    timed(stats.update, [&] { inner->update(pc, taken, target); });
}

void
TimedPredictor::trackOtherInst(std::uint64_t pc, imli::BranchType type,
                               bool taken, std::uint64_t target)
{
    timed(stats.track,
          [&] { inner->trackOtherInst(pc, type, taken, target); });
}

void
TimedPredictor::prefetch(std::uint64_t pc) const
{
    inner->prefetch(pc);
}

bool
TimedPredictor::supportsSpeculation() const
{
    return inner->supportsSpeculation();
}

void
TimedPredictor::prepareSpeculation(unsigned max_inflight)
{
    inner->prepareSpeculation(max_inflight);
}

imli::SpecCheckpoint
TimedPredictor::checkpoint() const
{
    return timed(stats.checkpoint, [&] { return inner->checkpoint(); });
}

void
TimedPredictor::restore(const imli::SpecCheckpoint &cp)
{
    timed(stats.restore, [&] { inner->restore(cp); });
}

void
TimedPredictor::speculate(std::uint64_t pc, bool pred_taken,
                          std::uint64_t target)
{
    timed(stats.speculate,
          [&] { inner->speculate(pc, pred_taken, target); });
}

void
TimedPredictor::squashSpeculation()
{
    ++stats.squashes;
    inner->squashSpeculation();
}

std::uint64_t
TimedPredictor::stateDigest() const
{
    return inner->stateDigest();
}

void
TimedPredictor::attachProbes(imli::obs::MetricsScope &scope)
{
    inner->attachProbes(scope);
}

std::string
TimedPredictor::name() const
{
    return inner->name();
}

imli::StorageAccount
TimedPredictor::storage() const
{
    return inner->storage();
}

TimedSource::TimedSource(std::unique_ptr<imli::BranchSource> inner)
    : inner(std::move(inner))
{
    if (!this->inner)
        throw std::invalid_argument("TimedSource: null source");
}

const std::string &
TimedSource::name() const
{
    return inner->name();
}

imli::BranchSpan
TimedSource::nextChunk()
{
    const imli::BranchSpan span =
        timed(stats.nextChunk, [&] { return inner->nextChunk(); });
    stats.records += span.count;
    return span;
}

void
TimedSource::reset()
{
    inner->reset();
}

double
calibrationSeconds(unsigned threads)
{
    // Each thread times its own kernel, and the median over threads and
    // three repetitions is the result: a vCPU the host parks for a while
    // delays one thread, not the reading, just as the closed loop hands
    // its benchmarks to the other workers meanwhile.  The calling thread
    // is one of the threads, so calibrationSeconds(1) reads the CPU a
    // serial phase on this thread runs on.
    std::vector<double> samples(3 * threads);
    for (unsigned rep = 0; rep < 3; ++rep) {
        const auto run = [&samples, rep, threads](unsigned t) {
            const Clock::time_point start = Clock::now();
            calibrationKernel(t);
            samples[rep * threads + t] = secondsSince(start);
        };
        std::vector<std::thread> pool;
        for (unsigned t = 1; t < threads; ++t)
            pool.emplace_back(run, t);
        run(0);
        for (std::thread &thread : pool)
            thread.join();
    }
    std::nth_element(samples.begin(), samples.begin() + samples.size() / 2,
                     samples.end());
    return samples[samples.size() / 2];
}

SpanRecorder::SpanRecorder() : origin(Clock::now()) {}

long
SpanRecorder::begin(const std::string &name, long parent)
{
    const double now = secondsSince(origin);
    std::lock_guard<std::mutex> lock(mutex);
    recorded.push_back(Span{name, now, now, parent});
    return static_cast<long>(recorded.size()) - 1;
}

void
SpanRecorder::end(long index)
{
    const double now = secondsSince(origin);
    std::lock_guard<std::mutex> lock(mutex);
    recorded.at(static_cast<std::size_t>(index)).end = now;
}

std::vector<Span>
SpanRecorder::spans() const
{
    std::lock_guard<std::mutex> lock(mutex);
    return recorded;
}

double
SpanRecorder::total(const std::string &name) const
{
    double sum = 0.0;
    for (const Span &s : spans())
        if (s.name == name || s.name.rfind(name + ":", 0) == 0)
            sum += s.end - s.start;
    return sum;
}

std::vector<double>
SpanRecorder::selfTimes() const
{
    const std::vector<Span> all = spans();
    std::vector<std::vector<std::pair<double, double>>> children(all.size());
    for (const Span &s : all)
        if (s.parent >= 0)
            children[static_cast<std::size_t>(s.parent)].emplace_back(
                s.start, s.end);

    std::vector<double> self(all.size());
    for (std::size_t i = 0; i < all.size(); ++i) {
        // Children run in parallel on worker threads, so subtract the
        // union of their intervals (clipped to the parent), not the sum.
        auto &kids = children[i];
        std::sort(kids.begin(), kids.end());
        double covered = 0.0;
        double reach = all[i].start;
        for (const auto &[lo, hi] : kids) {
            const double from = std::max(lo, reach);
            const double to = std::min(hi, all[i].end);
            if (to > from)
                covered += to - from;
            reach = std::max(reach, std::min(hi, all[i].end));
        }
        self[i] = (all[i].end - all[i].start) - covered;
    }
    return self;
}

void
SpanRecorder::write(const std::string &path) const
{
    const std::vector<Span> all = spans();
    const std::vector<double> self = selfTimes();
    std::ofstream os(path);
    if (!os)
        throw std::runtime_error("cannot write spans to " + path);
    os << "[\n";
    for (std::size_t i = 0; i < all.size(); ++i) {
        os << "  {\"id\": " << i << ", \"name\": \""
           << jsonEscape(all[i].name) << "\", \"start_s\": " << all[i].start
           << ", \"end_s\": " << all[i].end << ", \"self_s\": " << self[i]
           << ", \"parent\": " << all[i].parent << '}'
           << (i + 1 < all.size() ? ",\n" : "\n");
    }
    os << "]\n";
    if (!os.flush())
        throw std::runtime_error("write failed on " + path);
}

} // namespace e2e
