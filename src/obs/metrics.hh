/**
 * @file
 * Zero-overhead metrics registry: named counters / histograms / gauges
 * with per-predictor scoping, behind nullable Probe handles.
 *
 * Discipline: the instrumentation is OFF by default, provably inert when
 * off, and never enters a journal fingerprint.  Three layers:
 *
 *  - Probe handles (ProbeCounter / ProbeHistogram): the only thing that
 *    lives on a hot path.  A probe is a single nullable pointer into a
 *    MetricsScope; unattached (the default) it compiles to one
 *    predictable never-taken branch, so a binary with probes compiled
 *    in but disabled is byte-identical in results and inside the
 *    existing perf-floor margin in throughput (both pinned by CI).
 *  - MetricsScope: one predictor's (or one (benchmark, config) cell's)
 *    named metric set.  Node-based std::map storage means a resolved
 *    probe pointer stays valid for the scope's lifetime even if the
 *    owning container moves, and iteration order is sorted — the
 *    byte-stable JSON key order for free.  Probes are resolved ONCE at
 *    attach time (ConditionalPredictor::attachProbes); no string lookup
 *    ever happens per branch.
 *  - MetricsRegistry: fixed per-(benchmark, config) cell slots,
 *    paralleling the suite runner's benchmark-major cell matrix.  Each
 *    worker writes only its own slots, so collection is lock-free and
 *    the merged export order is deterministic whatever the worker
 *    count — the "per-thread shards merged deterministically" model.
 *
 * Schema stability note: the JSON document written by
 * MetricsRegistry::writeJson is versioned via the top-level "schema"
 * key (currently "imli-metrics-1").  Within a schema version, key order
 * is fixed (object keys sorted, cells in slot order) and number
 * formatting is stable, so consumers may diff documents byte for byte.
 * Adding metric NAMES is backward-compatible; renaming or removing
 * names, or changing the document shape, requires a schema bump.
 */

#ifndef IMLI_SRC_OBS_METRICS_HH
#define IMLI_SRC_OBS_METRICS_HH

#include <cstdint>
#include <iosfwd>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace imli
{
namespace obs
{

class PhaseRecorder;

/**
 * Bucketed value distribution.  Linear histograms map value v to bucket
 * min(v, buckets-1) (the last bucket is the overflow clamp); Log2
 * histograms map v to bucket min(floor(log2(v+1)), buckets-1), so small
 * values keep resolution while large ones fold geometrically.
 */
class Histogram
{
  public:
    enum class Kind
    {
        Linear,
        Log2,
    };

    Histogram() = default;
    Histogram(Kind kind, std::size_t buckets)
        : kind_(kind), counts_(buckets, 0)
    {
    }

    void record(std::uint64_t value)
    {
        if (counts_.empty())
            return;
        std::size_t b;
        if (kind_ == Kind::Linear) {
            b = static_cast<std::size_t>(value);
        } else {
            b = 0;
            std::uint64_t v = value + 1;
            while (v > 1) {
                v >>= 1;
                ++b;
            }
        }
        if (b >= counts_.size())
            b = counts_.size() - 1;
        ++counts_[b];
    }

    Kind kind() const { return kind_; }
    const std::vector<std::uint64_t> &buckets() const { return counts_; }

    /** Sum of all bucket counts (number of recorded samples). */
    std::uint64_t total() const
    {
        std::uint64_t t = 0;
        for (std::uint64_t c : counts_)
            t += c;
        return t;
    }

  private:
    Kind kind_ = Kind::Linear;
    std::vector<std::uint64_t> counts_;
};

/**
 * Nullable counter handle.  Default-constructed it is detached: hit()
 * is one predictable branch and nothing else — the no-op-sized shape
 * the inertness pin relies on.  Attached, it increments the scope's
 * counter slot directly (no lookup, no indirection beyond one pointer).
 */
struct ProbeCounter
{
    std::uint64_t *slot = nullptr;

    void hit()
    {
        if (slot != nullptr)
            ++*slot;
    }

    void add(std::uint64_t n)
    {
        if (slot != nullptr)
            *slot += n;
    }

    bool attached() const { return slot != nullptr; }
};

/** Nullable histogram handle; same inertness shape as ProbeCounter. */
struct ProbeHistogram
{
    Histogram *sink = nullptr;

    void record(std::uint64_t value)
    {
        if (sink != nullptr)
            sink->record(value);
    }

    bool attached() const { return sink != nullptr; }
};

/**
 * One named metric set.  counter()/histogram() register (or re-find) a
 * metric and hand back a stable pointer for a Probe; registration is an
 * attach-time operation, never a hot-path one.  The current name
 * prefix (pushPrefix/popPrefix) scopes sub-predictor metrics — the
 * meta-chooser attaches each arm under "subN/".
 */
class MetricsScope
{
  public:
    /** Register (or find) the counter @p name; returns its slot. */
    std::uint64_t *counter(const std::string &name);

    /** Register (or find) the histogram @p name.  The kind and bucket
     *  count of the first registration win; a re-registration with a
     *  different shape throws std::invalid_argument. */
    Histogram *histogram(const std::string &name, Histogram::Kind kind,
                         std::size_t buckets);

    /** Set the gauge @p name (last write wins). */
    void setGauge(const std::string &name, double value);

    /** Enter a sub-predictor name scope: subsequent registrations are
     *  prefixed until the matching popPrefix(). */
    void pushPrefix(const std::string &prefix);
    void popPrefix();

    bool empty() const
    {
        return counters_.empty() && histograms_.empty() && gauges_.empty();
    }

    const std::map<std::string, std::uint64_t> &counters() const
    {
        return counters_;
    }
    const std::map<std::string, Histogram> &histograms() const
    {
        return histograms_;
    }
    const std::map<std::string, double> &gauges() const { return gauges_; }

    /** Counter value by full name (0 when absent) — test convenience. */
    std::uint64_t counterValue(const std::string &name) const;

    /**
     * Byte-stable JSON object body for this scope: "counters",
     * "histograms", "gauges" keys with sorted member names.  @p indent
     * is the leading whitespace of the object's own lines.
     */
    void writeJson(std::ostream &os, const std::string &indent) const;

  private:
    std::string qualify(const std::string &name) const;

    // Node-based maps: mapped-value addresses survive container moves,
    // which is what lets CellObs vectors hold scopes by value while
    // probes keep raw pointers into them.
    std::map<std::string, std::uint64_t> counters_;
    std::map<std::string, Histogram> histograms_;
    std::map<std::string, double> gauges_;
    std::vector<std::string> prefixes_;
};

/**
 * Per-cell observation state: the metric scope plus the optional phase
 * recorder, tagged with the cell identity and its wall time.  Owned by
 * a MetricsRegistry slot; filled by exactly one worker.
 */
struct CellObs
{
    std::string benchmark;
    std::string config;
    double wallSeconds = 0.0;
    MetricsScope scope;
    std::unique_ptr<PhaseRecorder> phase;

    CellObs();
    CellObs(CellObs &&) noexcept;
    CellObs &operator=(CellObs &&) noexcept;
    ~CellObs();
};

/**
 * The run-level collection point: fixed cell slots (resize once, before
 * any worker starts) plus run-level gauges.  Slot order is the export
 * order, so the JSON is deterministic for any worker count.
 */
class MetricsRegistry
{
  public:
    /** Phase-series window in branches; 0 disables phase recording. */
    std::uint64_t phaseInterval = 0;

    /** Size the cell slots; call once, before the fan-out. */
    void resize(std::size_t cells) { cells_.resize(cells); }

    std::size_t size() const { return cells_.size(); }
    CellObs &cell(std::size_t i) { return cells_[i]; }
    const CellObs &cell(std::size_t i) const { return cells_[i]; }

    /**
     * Run-level gauge.  Like every value in the JSON it must not depend
     * on thread scheduling: two identical runs differ only in
     * wall_seconds.
     */
    void setGauge(const std::string &name, double value);

    /**
     * The full metrics document (see the schema note in the file
     * header): schema tag, phase interval, run gauges, then one entry
     * per non-empty cell slot, in slot order.
     */
    void writeJson(std::ostream &os) const;

  private:
    std::vector<CellObs> cells_;
    std::map<std::string, double> gauges_;
};

} // namespace obs
} // namespace imli

#endif // IMLI_SRC_OBS_METRICS_HH
