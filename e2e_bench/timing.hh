/**
 * @file
 * Benchmark-side tracing: timing decorators at the two hot layer
 * boundaries (ConditionalPredictor, BranchSource) and a span recorder
 * for the coarse calls (open, characterize, construct, each benchmark
 * pass, runSweep, resume, Pareto).
 *
 * Nothing here is compiled into the library: the traced run wraps the
 * objects the library hands out, so the untraced run executes exactly
 * the code users run.  Each decorator owns its counters and is driven
 * by one thread at a time (a worker owns a benchmark's predictors and
 * source), so hot-path accounting takes no lock; the recorder is only
 * touched at coarse boundaries and takes one.
 */

#ifndef IMLI_E2E_BENCH_TIMING_HH
#define IMLI_E2E_BENCH_TIMING_HH

#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "src/predictors/predictor.hh"
#include "src/trace/branch_source.hh"

namespace e2e
{

using Clock = std::chrono::steady_clock;

/** Nanoseconds elapsed since @p start. */
inline std::uint64_t
nanosSince(Clock::time_point start)
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                             start)
            .count());
}

/** Seconds elapsed since @p start. */
inline double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

/**
 * Seconds the calibration kernel takes on one of @p threads threads
 * running it at once (the median over threads and three runs).  The
 * kernel is fixed integer work with a predictor's shape: xorshift-indexed
 * read-modify-write over a 64 KiB table and a data-dependent branch.  It
 * never calls the library, so it reads the host's speed and nothing else.
 */
double calibrationSeconds(unsigned threads);

/**
 * About calibrationSeconds(4) on the host the baseline was recorded on
 * (a 4-CPU 2.1 GHz Xeon KVM guest), the reference speed.  Shared hosts
 * change speed in steps of up to a quarter within minutes, and every
 * host-time metric moves with them; the end-to-end run scales each
 * measured phase's times by this constant / (calibration around the
 * phase), so they read as they would at the reference speed.  Steps in
 * core speed cancel out; steps in shared-cache or memory speed, which
 * the kernel's small table does not feel, only partly do.
 */
constexpr double kReferenceCalibrationSeconds = 0.0133;

/** Call count and total nanoseconds of one (layer, call) pair. */
struct CallStat
{
    std::uint64_t calls = 0;
    std::uint64_t nanos = 0;

    void add(const CallStat &o)
    {
        calls += o.calls;
        nanos += o.nanos;
    }
    double nsPerCall() const
    {
        return calls == 0 ? 0.0 : static_cast<double>(nanos) / calls;
    }
    double seconds() const { return nanos * 1e-9; }
};

/** Per-call statistics of one decorated predictor. */
struct PredictorCalls
{
    CallStat predict, update, track, checkpoint, restore, speculate;
    std::uint64_t squashes = 0;

    void add(const PredictorCalls &o);
    /** Total time spent inside the wrapped predictor. */
    std::uint64_t nanos() const;
};

/**
 * ConditionalPredictor decorator timing every hot call.  Forwards the
 * whole interface, the speculation contract and stateDigest included,
 * so a decorated predictor simulates bit-identically to a bare one.
 */
class TimedPredictor : public imli::ConditionalPredictor
{
  public:
    explicit TimedPredictor(imli::PredictorPtr inner);

    bool predict(std::uint64_t pc) override;
    void update(std::uint64_t pc, bool taken, std::uint64_t target) override;
    void trackOtherInst(std::uint64_t pc, imli::BranchType type, bool taken,
                        std::uint64_t target) override;
    void prefetch(std::uint64_t pc) const override;
    bool supportsSpeculation() const override;
    void prepareSpeculation(unsigned max_inflight) override;
    imli::SpecCheckpoint checkpoint() const override;
    void restore(const imli::SpecCheckpoint &cp) override;
    void speculate(std::uint64_t pc, bool pred_taken,
                   std::uint64_t target) override;
    void squashSpeculation() override;
    std::uint64_t stateDigest() const override;
    void attachProbes(imli::obs::MetricsScope &scope) override;
    std::string name() const override;
    imli::StorageAccount storage() const override;

    const PredictorCalls &calls() const { return stats; }

  private:
    imli::PredictorPtr inner;
    /** mutable: checkpoint() is const in the interface but is timed. */
    mutable PredictorCalls stats;
};

/** Per-call statistics of one decorated branch source. */
struct SourceCalls
{
    CallStat nextChunk;
    std::uint64_t records = 0;

    void add(const SourceCalls &o)
    {
        nextChunk.add(o.nextChunk);
        records += o.records;
    }
};

/** BranchSource decorator timing nextChunk and counting records. */
class TimedSource : public imli::BranchSource
{
  public:
    explicit TimedSource(std::unique_ptr<imli::BranchSource> inner);

    const std::string &name() const override;
    imli::BranchSpan nextChunk() override;
    void reset() override;

    const SourceCalls &calls() const { return stats; }

  private:
    std::unique_ptr<imli::BranchSource> inner;
    SourceCalls stats;
};

/** One coarse span: name, start/end (seconds from the recorder's origin)
 *  and the index of the span that caused it (-1 for a root). */
struct Span
{
    std::string name;
    double start = 0.0;
    double end = 0.0;
    long parent = -1;
};

/** Thread-safe, in-memory span store; written out when the run ends. */
class SpanRecorder
{
  public:
    SpanRecorder();

    /** Open a span under @p parent; returns its index. */
    long begin(const std::string &name, long parent = -1);
    /** Close span @p index. */
    void end(long index);

    /** Snapshot of every span recorded so far. */
    std::vector<Span> spans() const;

    /** Total duration of spans named @p name or "<name>:..." (seconds). */
    double total(const std::string &name) const;

    /**
     * Self time of every span: its duration minus the union of the
     * intervals its direct children cover.
     */
    std::vector<double> selfTimes() const;

    /** Write the spans as a JSON array to @p path. */
    void write(const std::string &path) const;

  private:
    Clock::time_point origin;
    mutable std::mutex mutex;
    std::vector<Span> recorded;  // guarded by mutex
};

/** RAII span. */
class ScopedSpan
{
  public:
    ScopedSpan(SpanRecorder *rec, const std::string &name, long parent = -1)
        : rec(rec), index(rec ? rec->begin(name, parent) : -1)
    {
    }
    ~ScopedSpan()
    {
        if (rec != nullptr)
            rec->end(index);
    }
    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

    long id() const { return index; }

  private:
    SpanRecorder *rec;
    long index;
};

} // namespace e2e

#endif // IMLI_E2E_BENCH_TIMING_HH
