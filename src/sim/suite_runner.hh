/**
 * @file
 * Suite-level experiment driver: run a set of predictor configurations
 * over a benchmark suite on the streaming engine, with identical branch
 * streams across configurations for exact deltas.
 *
 * The one per-benchmark pass: runBenchmarkPass streams one benchmark
 * once through N specs (one simulateMany), and forEachBenchmark fans
 * such passes out over the benchmarks.  runSuite is the two composed;
 * the DSE sweep (src/dse/sweep.hh) runs the same pass over each
 * benchmark's pending points, and predictor_shootout and the Section
 * 4.3.2 sweeps (src/spec/delayed_update.hh) are runSuite calls, so
 * engine selection, probe wiring and timing live here alone.
 *
 * Memory model: no benchmark is ever materialized.  Each benchmark is a
 * BranchSource streamed chunk by chunk through simulateMany, so a
 * worker's resident trace memory is one chunk (options.chunkBranches
 * records, ~24 bytes each) plus a bounded backend overhang — O(chunk),
 * independent of benchmark length.  With J workers the whole run holds
 * O(chunk)·J records plus the predictor tables.  Stream cost
 * (generation or file decode) is paid once per benchmark, not once per
 * (benchmark, config) cell.
 *
 * Multi-backend note: streams open through TraceCorpus::open() —
 * GeneratorBranchSource for synthetic specs (overhang: the one kernel
 * round crossing the chunk boundary); recorded specs are decoded once
 * per process into the corpus's capped shared cache and served as
 * zero-copy spans (oversized traces fall back to CbpFileBranchSource /
 * FileBranchSource, whose reader buffer IS the chunk).  Mixed suites
 * keep the O(chunk)·J streaming bound plus the one shared decoded copy
 * per distinct recorded trace — not per worker, and the record sequence
 * (hence every result) is identical whether a stream was cached or
 * streamed.  Recorded streams ignore branchesPerTrace: a recording's
 * length is part of the scenario, so the whole file always plays.
 */

#ifndef IMLI_SRC_SIM_SUITE_RUNNER_HH
#define IMLI_SRC_SIM_SUITE_RUNNER_HH

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <string>
#include <vector>

#include "src/sim/simulator.hh"
#include "src/workloads/benchmark_spec.hh"

namespace imli
{

namespace obs
{
struct CellObs;
class MetricsRegistry;
} // namespace obs

/** One (benchmark, config) measurement. */
struct SuiteCell
{
    std::string benchmark;
    std::string suite;   //!< "CBP4" / "CBP3"
    std::string config;  //!< predictor spec string
    double mpki = 0.0;
    std::uint64_t mispredictions = 0;
    std::uint64_t conditionals = 0;
    std::uint64_t instructions = 0;
    /**
     * Wall-clock seconds of the single streamed pass that produced this
     * cell (shared by the benchmark's configs — the engine finishes them
     * together).  Timing only: NOT exported by the CSV/JSON cell
     * printers (whose byte-stable schema is pinned) and never part of a
     * journal fingerprint; printRunSummary, the metrics export and the
     * sweep timing sidecar read it.
     */
    double seconds = 0.0;
};

/** Results matrix: cells in benchmark-major, config-minor order. */
struct SuiteResults
{
    std::vector<std::string> configs;
    std::vector<SuiteCell> cells;
    /** Wall-clock seconds of the whole run (measured inside runSuite). */
    double wallSeconds = 0.0;

    /** Cell for (benchmark, config); throws if absent. */
    const SuiteCell &at(const std::string &benchmark,
                        const std::string &config) const;

    /**
     * Append @p shard's cells (benchmark partitioning).  Both results must
     * carry the same config list; throws std::invalid_argument otherwise.
     * Merging is deterministic: cell order is this-then-shard, so merging
     * shards in partition order reproduces the unsharded run exactly.
     */
    void merge(const SuiteResults &shard);

    /** Arithmetic-mean MPKI of @p config over benchmarks in @p suite
     *  ("" = all). */
    double averageMpki(const std::string &config,
                       const std::string &suite = "") const;

    /** Benchmarks sorted by |MPKI(configA) - MPKI(configB)| descending. */
    std::vector<std::string>
    rankByDelta(const std::string &config_a,
                const std::string &config_b) const;

    /** Names of all benchmarks, in run order. */
    std::vector<std::string> benchmarkNames() const;
};

/** Driver options. */
struct SuiteRunOptions
{
    std::size_t branchesPerTrace = 200000;
    /**
     * Records per streamed chunk.  Smaller chunks lower resident memory;
     * the chunk size never changes results (any value yields the same
     * record stream).
     */
    std::size_t chunkBranches = 65536;
    /**
     * Worker threads for the benchmark-level fan-out (each task streams
     * one benchmark through all configs in a single pass); 1 runs the
     * serial in-caller path, 0 means one worker per hardware thread.  Any
     * value yields bit-identical results (benchmarks are independent and
     * each writes its fixed benchmark-major slice of the cell matrix).
     */
    unsigned jobs = 1;
    /**
     * Per-simulation options (warm-up, per-PC collection, pipeline
     * engine / update delay) applied to every (benchmark, config) cell.
     * warmupBranches excludes the first N records of each benchmark's
     * stream from grading, per the CBP methodology note in simulator.hh.
     * A config whose spec carries a "sim.delay" override runs on the
     * pipeline engine at that depth regardless of these options, so one
     * suite can mix update-timing points.  sim.traceEvents goes to every
     * cell, so callers restrict the run to one cell before setting it —
     * interleaved cells would share the one stream.
     */
    SimOptions sim;
    /**
     * Progress callback (benchmark name, finished configs for that
     * benchmark).  The single-pass engine finishes a benchmark's configs
     * together, so the callback fires configs-many times in a row when a
     * benchmark completes; with jobs > 1 it is invoked under a mutex,
     * from worker threads, and benchmarks may interleave.
     */
    std::function<void(const std::string &, std::size_t)> progress;

    /**
     * Observation registry (null = metrics off, the default).  When set,
     * runSuite sizes one CellObs slot per (benchmark, config) cell —
     * same benchmark-major order as SuiteResults::cells — attaches each
     * cell predictor's probes to its slot's scope, fills per-cell wall
     * time, and (when registry->phaseInterval > 0) records a phase
     * series per cell.  Each worker writes only its own slots, so
     * collection is lock-free and export order is deterministic.
     */
    obs::MetricsRegistry *metrics = nullptr;
};

/**
 * Run every config (spec strings for makePredictor) over every benchmark:
 * forEachBenchmark over runBenchmarkPass, each pass writing its fixed
 * benchmark-major slice of the cell matrix, so at most jobs chunks are
 * alive at once (see the file header for the memory model).
 */
SuiteResults runSuite(const std::vector<BenchmarkSpec> &benchmarks,
                      const std::vector<std::string> &configs,
                      const SuiteRunOptions &options = SuiteRunOptions());

/**
 * The per-benchmark pass: build one predictor per config, pin each
 * engine through applySpecDelay over options.sim, open the stream with
 * TraceCorpus::open and grade every config in one simulateMany.
 * Returns one cell per config, in @p configs order; every cell's
 * seconds is the pass's wall time (stream open to last grade).
 * options.jobs and progress are not read here, and options.metrics only
 * for its phase interval: the caller owns the fan-out, the progress
 * report and the registry's slots.
 *
 * @p slots (empty = metrics off) holds one observation slot per config:
 * the pass attaches the config's probes to the slot's scope before the
 * first predict, records a phase series when options.metrics has a
 * phase interval, and fills the slot's wall time.
 */
std::vector<SuiteCell>
runBenchmarkPass(const BenchmarkSpec &spec,
                 const std::vector<std::string> &configs,
                 const SuiteRunOptions &options,
                 const std::vector<obs::CellObs *> &slots = {});

/**
 * The benchmark fan-out: call @p task(b) for every b in [0, count).
 * @p jobs 1 runs the tasks serially in the caller; otherwise they are
 * self-scheduled on a ThreadPool of min(jobs, count) workers, jobs 0
 * meaning one per hardware thread.  Tasks of different b may run
 * concurrently, so each must write only its own slots.
 */
void forEachBenchmark(std::size_t count, unsigned jobs,
                      const std::function<void(std::size_t)> &task);

/**
 * Parse a trace-length string (shared by --branches flags and the
 * IMLI_BRANCHES env override): a plain decimal count >= 1000.  Anything
 * else throws std::runtime_error naming @p what — a typo'd length would
 * silently measure the wrong experiment.
 */
std::size_t parseBranchCount(const std::string &text,
                             const std::string &what);

/**
 * Default trace length, honouring the IMLI_BRANCHES env override.
 * Throws std::runtime_error when the variable is set to anything but a
 * plain decimal count >= 1000.
 */
std::size_t defaultBranchesPerTrace();

/**
 * Default worker count, honouring the IMLI_JOBS env override ("auto",
 * "max" and 0 = all hardware threads); falls back to 1 (serial) when
 * unset.  Throws std::runtime_error on garbage values.
 */
unsigned defaultJobs();

class CommandLine;

/**
 * Parse the shared pipeline-engine CLI flag into @p sim:
 * "--update-delay N" (strict integer, 0..kMaxSpeculationDepth) selects
 * the pipeline engine, 0 being the immediate-engine bit-identity
 * oracle.  Shared by suite_report and predictor_shootout so the two
 * CLIs cannot drift.
 */
void applyPipelineFlags(const CommandLine &cli, SimOptions &sim);

} // namespace imli

#endif // IMLI_SRC_SIM_SUITE_RUNNER_HH
