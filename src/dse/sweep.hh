/**
 * @file
 * The DSE sweep engine: evaluate a set of config points (canonical spec
 * strings) over a benchmark suite on the streaming engine, journaling
 * every (benchmark, point) cell so interrupted sweeps resume.
 *
 * Architecture note (src/dse/): the sweep runs the suite runner's one
 * per-benchmark pass (runBenchmarkPass, fanned out by forEachBenchmark;
 * src/sim/suite_runner.hh) over each benchmark's pending points, so the
 * trace decode/generation cost is shared across points, resident memory
 * stays O(chunk) per worker, and every cell equals the suite runner's.
 * What the sweep adds is the pending-point selection, the journal, the
 * progress report and the timing sidecar.
 *
 * Journal model: a metadata line fingerprinting the run options
 * (branches per trace, warm-up — everything that changes the numbers),
 * then a CSV header, then one row per (benchmark, point) cell with
 * integer counters only (MPKI is recomputed from them, so a parsed row
 * is exactly the simulated cell).  During a run rows are appended and
 * flushed as cells complete; at completion the file is rewritten via
 * temp-file + atomic rename into canonical order (benchmark-major in
 * declared benchmark order, point-minor in declared point order).  The
 * final journal is therefore byte-identical whatever the worker count
 * and however often the sweep was killed and resumed.  On resume, rows
 * already journaled are trusted and their cells are not re-simulated; a
 * truncated trailing line (a kill mid-append) is dropped and its cell
 * re-simulated.  A journal whose metadata line does not match the
 * current options — or whose rows fall outside the sweep's
 * benchmarks x points matrix — is rejected: it belongs to a different
 * experiment and silently merging it would corrupt the averages.
 *
 * Shard / plan / merge (process-level orchestration): the same cell
 * space can be executed by independent worker PROCESSES.  planShards()
 * partitions the benchmark axis into contiguous ranges — the journal is
 * benchmark-major, so a benchmark range IS a contiguous journal row
 * range, and every fragment stays journal-compatible by construction.
 * runShard() executes one range, writing (and resuming) a journal
 * fragment at shardJournalPath(journal, index) that carries the FULL
 * sweep's metadata line, so fragments are validated with exactly the
 * resume fingerprint machinery.  mergeShardJournals() validates each
 * fragment (metadata, range membership, storage bits, duplicates),
 * re-aggregates the Pareto view incrementally as each shard lands, and
 * rewrites the canonical journal — byte-identical to the file a
 * single-process runSweep() would have produced.  runSweep() itself is
 * the one-range composition of the same code path (prepare -> execute
 * range [0, N) straight into the canonical journal), which is what
 * keeps pre-shard journals resumable and the bytes stable.
 */

#ifndef IMLI_SRC_DSE_SWEEP_HH
#define IMLI_SRC_DSE_SWEEP_HH

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "src/sim/simulator.hh"
#include "src/workloads/benchmark_spec.hh"

namespace imli
{

namespace obs
{
class MetricsRegistry;
} // namespace obs

/** One (benchmark, config point) measurement of a sweep. */
struct SweepCell
{
    std::string spec;       //!< canonical config point
    std::string benchmark;
    std::string suite;
    std::uint64_t storageBits = 0;  //!< the point's hardware budget
    std::uint64_t mispredictions = 0;
    std::uint64_t conditionals = 0;
    std::uint64_t instructions = 0;

    /** Mispredictions per kilo-instruction (recomputed, never stored). */
    double mpki() const;
};

/** Sweep driver options. */
struct SweepOptions
{
    std::size_t branchesPerTrace = 200000;
    std::size_t chunkBranches = 65536;
    /** Worker threads for the benchmark fan-out (forEachBenchmark):
     *  1 = serial in-caller, 0 = one per hardware thread. */
    unsigned jobs = 1;
    /**
     * Run-level simulation options for every point; a point whose spec
     * carries "sim.delay" additionally runs on the pipeline engine at
     * that depth (update timing as a sweep dimension).
     */
    SimOptions sim;
    /**
     * Journal file (required).  Created with a header line when absent;
     * an existing journal resumes the sweep it belongs to.  A journal
     * holding rows outside this sweep's (benchmarks x points) matrix is
     * rejected — it belongs to a different sweep.
     */
    std::string journalPath;
    /** Called per finished benchmark task: (name, points simulated). */
    std::function<void(const std::string &, std::size_t)> progress;
    /**
     * Observation registry (null = metrics off, the default).  When set,
     * runSweep sizes one CellObs slot per (benchmark, point) cell at
     * index b * npoints + p — the journal's benchmark-major order — and
     * attaches probes for every cell simulated THIS run.  Cells resumed
     * from the journal keep empty slots: their internals were observed
     * (or not) by the run that simulated them.  Never part of the
     * journal fingerprint — a journal recorded without metrics resumes
     * under a registry and vice versa (inertness is tested).
     */
    obs::MetricsRegistry *metrics = nullptr;
    /**
     * Optional timing-sidecar CSV path ("benchmark,seconds,
     * branches_per_sec", one row per benchmark simulated this run, in
     * declared order).  Written after the canonical journal rewrite and
     * deliberately NOT part of the journal or its fingerprint: wall
     * time is scheduling, not results.
     */
    std::string timingSidecarPath;
};

/** Results of a sweep: declared orders plus the full cell matrix. */
struct SweepResults
{
    std::vector<std::string> points;      //!< canonical specs, declared order
    std::vector<std::string> benchmarks;  //!< names, declared order
    /** Benchmark-major, point-minor; loaded and simulated cells merged. */
    std::vector<SweepCell> cells;
    /** Cells simulated by this run (the rest came from the journal). */
    std::size_t simulatedCells = 0;

    /** Cell for (benchmark, spec); throws std::out_of_range if absent. */
    const SweepCell &at(const std::string &benchmark,
                        const std::string &spec) const;

    /** Mean MPKI of @p spec over benchmarks in @p suite ("" = all). */
    double averageMpki(const std::string &spec,
                       const std::string &suite = "") const;
};

/**
 * Run (or resume) a sweep of @p points over @p benchmarks.  Points are
 * canonicalized and must be distinct; every benchmark is validated up
 * front.  See the file header for the journal/resume/determinism model.
 * Throws std::invalid_argument on bad inputs and std::runtime_error on
 * journal mismatches or I/O failures.
 */
SweepResults runSweep(const std::vector<BenchmarkSpec> &benchmarks,
                      const std::vector<std::string> &points,
                      const SweepOptions &options);

// -- Journal I/O (shared with the pareto layer and tests) -----------------

/**
 * The journal's metadata line: a fingerprint of everything that changes
 * the simulated numbers — the run options (branches, warm-up) and, when
 * the sweep includes recorded benchmarks, a content hash of their trace
 * files (a generated benchmark is fully determined by its name + the
 * options, but a recording's counters depend on the file bytes).
 * Resume refuses a journal whose metadata differs.
 */
std::string journalMeta(const std::vector<BenchmarkSpec> &benchmarks,
                        const SweepOptions &options);

/** The journal's fixed CSV header line (no trailing newline). */
std::string journalHeader();

/** One journal row for @p cell (no trailing newline; spec is quoted). */
std::string formatJournalRow(const SweepCell &cell);

/** Parse one journal row; throws std::runtime_error on malformed rows. */
SweepCell parseJournalRow(const std::string &line);

/**
 * Load every cell of a journal file.  A truncated trailing line (kill
 * mid-append) is silently dropped; a malformed row anywhere else, a bad
 * metadata/header line, or an unreadable file throws std::runtime_error.
 * When @p meta is non-null it receives the journal's metadata line.
 */
std::vector<SweepCell> loadJournal(const std::string &path,
                                   std::string *meta = nullptr);

// -- Shard / plan / merge (process-level orchestration) -------------------

/**
 * One shard: the contiguous benchmark range [beginBench, endBench) of a
 * sweep's declared benchmark order.  Because journal rows are
 * benchmark-major, the range also describes a contiguous block of
 * journal rows — a shard's fragment is a slice of the canonical journal.
 */
struct ShardRange
{
    std::size_t index = 0;       //!< shard number in [0, shardCount)
    std::size_t beginBench = 0;  //!< first benchmark index (inclusive)
    std::size_t endBench = 0;    //!< one past the last benchmark index

    std::size_t benchmarkCount() const { return endBench - beginBench; }
};

/** A sweep's cell space partitioned into shards. */
struct ShardPlan
{
    std::vector<std::string> benchmarks;  //!< names, declared order
    std::vector<std::string> points;      //!< canonical specs
    std::string meta;    //!< the full sweep's journal metadata line
    std::vector<ShardRange> shards;       //!< contiguous, covering, ordered
};

/**
 * Partition the (benchmark x point) cell space of a sweep into
 * @p shard_count contiguous benchmark ranges, as evenly as possible
 * (earlier shards take the remainder; with more shards than benchmarks
 * the surplus shards are empty).  Inputs are validated exactly like
 * runSweep — canonicalized points, distinct names, readable traces —
 * so a plan that prints is a plan that will run.  Deterministic: the
 * same inputs always produce the same partition, which is how
 * mergeShardJournals re-derives the plan.
 */
ShardPlan planShards(const std::vector<BenchmarkSpec> &benchmarks,
                     const std::vector<std::string> &points,
                     const SweepOptions &options, std::size_t shard_count);

/** Fragment journal path for shard @p shard_index: "<journal>.shard<i>". */
std::string shardJournalPath(const std::string &journal_path,
                             std::size_t shard_index);

/**
 * Execute one shard of a sweep: simulate the range's pending cells and
 * journal them to shardJournalPath(options.journalPath, range.index).
 * The fragment has the full sweep's metadata line and the standard
 * resume semantics (committed rows are kept, truncated tails dropped),
 * so a killed shard re-run completes its fragment.  @p benchmarks and
 * @p points are the FULL sweep's — every shard validates the whole
 * input, and the metadata fingerprint covers every recorded trace.
 */
SweepResults runShard(const std::vector<BenchmarkSpec> &benchmarks,
                      const std::vector<std::string> &points,
                      const SweepOptions &options, const ShardRange &range);

struct ParetoEntry;  // src/dse/pareto.hh

/** Merge progress: a shard just landed; entries are the Pareto
 *  aggregation over every cell merged so far (partial averages). */
using MergeProgress =
    std::function<void(const ShardRange &,
                       const std::vector<ParetoEntry> &)>;

/**
 * Validate and merge the @p shard_count shard fragments of a sweep into
 * the canonical journal at options.journalPath, byte-identical to a
 * single-process runSweep of the same inputs.  Each fragment must
 * exist, carry the full sweep's metadata line, and contain exactly rows
 * inside its range (storage bits and suites are checked like resume;
 * truncated tails are dropped by loadJournal).  After the last fragment,
 * any missing cell is an error naming the shard to re-run — a dropped
 * tail is completed by re-running its shard, then merging again.
 * @p on_shard (optional) is called as each shard lands with the
 * incrementally re-aggregated Pareto entries.
 */
SweepResults mergeShardJournals(const std::vector<BenchmarkSpec> &benchmarks,
                                const std::vector<std::string> &points,
                                const SweepOptions &options,
                                std::size_t shard_count,
                                const MergeProgress &on_shard = {});

} // namespace imli

#endif // IMLI_SRC_DSE_SWEEP_HH
