/**
 * @file
 * The end-to-end benchmark: workload definitions, set-up, measured
 * rounds, correctness checks, the traced per-layer run and the metric
 * arithmetic.  Everything here drives the library through its public
 * functions only (selectSuiteBenchmarks / TraceCorpus, makePredictor,
 * runSuite, simulateMany, runSweep / loadJournal, the Pareto
 * aggregation); the program under test receives only the generated
 * inputs.
 */

#ifndef IMLI_E2E_BENCH_WORKLOADS_HH
#define IMLI_E2E_BENCH_WORKLOADS_HH

#include <cstdint>
#include <map>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "src/sim/suite_runner.hh"
#include "src/workloads/benchmark_spec.hh"

namespace e2e
{

class SpanRecorder;

/** One benchmark workload: a closed-loop batch over a fixed input set. */
struct Workload
{
    enum class Kind
    {
        Suite,  //!< runSuite over benchmarks x configs
        Sweep,  //!< runSweep into a fresh journal, resume, Pareto
    };

    std::string name;
    Kind kind = Kind::Suite;
    bool recorded = false;              //!< add REC-01..08 to the pool
    std::vector<std::string> patterns;  //!< glob selection; empty = all
    std::string className;              //!< predictability class; "" = none
    std::size_t branches = 200000;      //!< per generated benchmark
    std::vector<std::string> configs;   //!< suite configs / sweep points
    unsigned updateDelay = 0;           //!< > 0 selects the pipeline engine
    /** Members the selection must yield at the default seed (0 = any). */
    std::size_t expectedMembers = 0;
    /**
     * Drop the process-wide decoded-trace cache before every round, as a
     * fresh CLI process would start.  Off where the workload measures
     * what the cache saves (class selection decodes, the run re-opens).
     */
    bool coldStreamCache = true;
    /**
     * bench_s_tail percentile, fixed per workload so that every run
     * reports the same percentile: the tail rule (the highest percentile
     * with at least kTailBeyond samples beyond it) applied to the passes
     * of a few rounds.  Rounds continue until the pooled passes hold
     * kTailBeyond samples beyond it.
     */
    double tailPercentile = 85.0;
    /** Stream length of the traced run's component ladder. */
    std::size_t ladderBranches = 200000;
};

/** The benchmark's workloads, in presentation order. */
const std::vector<Workload> &workloads();

/** Workload by name; throws std::invalid_argument naming the known ones. */
const Workload &findWorkload(const std::string &name);

/** A small version of @p w for quick checks (same code paths). */
Workload smokeVersion(Workload w);

/** Seed under which generated specs keep their built-in seeds. */
constexpr std::uint64_t kDefaultSeed = 1;

/**
 * Apply the run seed to every Generated spec through BenchmarkSpec::seed
 * (kDefaultSeed is the identity); recorded specs are left untouched.
 */
void applySeed(std::vector<imli::BenchmarkSpec> &specs, std::uint64_t seed);

// ---- Tail statistics ------------------------------------------------------

/** Samples a tail percentile must leave beyond it. */
constexpr std::size_t kTailBeyond = 10;

/** Samples strictly beyond the nearest-rank @p percentile of @p n. */
std::size_t samplesBeyond(std::size_t n, double percentile);

/** Nearest-rank @p percentile of @p samples (0 when empty). */
double percentile(std::vector<double> samples, double percentile);

/** Median of @p samples (0 when empty). */
double median(std::vector<double> samples);

// ---- Inputs and set-up ----------------------------------------------------

/** What set-up hands the measured phase. */
struct Inputs
{
    std::vector<imli::BenchmarkSpec> benchmarks;
    std::vector<std::string> configs;         //!< canonical specs
    std::vector<std::uint64_t> storageBits;   //!< per config
    std::vector<std::uint64_t> fingerprints;  //!< per benchmark
};

/**
 * Everything before the first simulated record: corpus selection (with
 * characterization for class workloads), seeding, trace fingerprints,
 * spec canonicalization, and one predictor construction per config for
 * storage accounting.  Throws
 * std::runtime_error when the selection is empty or, at the default
 * seed, differs from the expected member count.  With @p spans set,
 * records one span per step under @p parent.
 */
Inputs setUp(const Workload &w, std::uint64_t seed,
             const std::string &recorded_dir, SpanRecorder *spans = nullptr,
             long parent = -1);

// ---- Cells and references -------------------------------------------------

/** Reference counters keyed by (benchmark, config). */
class Reference
{
  public:
    using Counters = std::tuple<std::uint64_t, std::uint64_t, std::uint64_t>;

    Reference() = default;
    explicit Reference(const std::vector<imli::SuiteCell> &cells);

    /** Load a cells CSV; an absent file gives an empty reference. */
    static Reference load(const std::string &path);

    bool empty() const { return cells.empty(); }
    /** (mispredictions, conditionals, instructions) or null. */
    const Counters *find(const std::string &benchmark,
                         const std::string &config) const;

  private:
    std::map<std::pair<std::string, std::string>, Counters> cells;
};

/** Write @p cells in suite_report's CSV format. */
void writeCellsCsv(std::ostream &os, const std::vector<imli::SuiteCell> &cells);

/** Parse the CSV written by writeCellsCsv / suite_report --csv. */
std::vector<imli::SuiteCell> readCellsCsv(std::istream &is);

/** Reference file of workload @p name at @p seed under @p dir. */
std::string referencePath(const std::string &dir, const std::string &name,
                          std::uint64_t seed);

/** Failed cells out of attempted ones, with the first few reasons. */
struct CheckResult
{
    std::size_t attempted = 0;
    std::size_t failed = 0;
    std::vector<std::string> problems;
};

/**
 * Check a round's cells.  The cell matrix must be benchmarks x configs
 * in benchmark-major order (anything else throws: a wrong matrix is a
 * broken workload, not a failed cell).  A cell fails when its counters
 * differ from @p seed_ref (the reference for this seed, when one
 * exists), from @p recorded_ref for recorded benchmarks (whose streams
 * no seed changes), or from @p previous (an earlier round or run of the
 * same inputs), or when they break a stream invariant: no graded
 * branch, more mispredictions than branches, or configs of one
 * benchmark disagreeing on the stream's counts.
 */
CheckResult checkCells(const std::vector<imli::SuiteCell> &cells,
                       const Inputs &inputs, const Reference &seed_ref,
                       const Reference &recorded_ref,
                       const std::vector<imli::SuiteCell> *previous);

// ---- Measured rounds ------------------------------------------------------

/** One untraced round of a workload. */
struct Round
{
    std::vector<imli::SuiteCell> cells;
    std::vector<double> benchSeconds;  //!< one streamed pass per benchmark
    double wallSeconds = 0.0;
    double cpuSeconds = 0.0;           //!< user + sys of the process
    std::uint64_t graded = 0;          //!< graded conditional branches
    std::string error;                 //!< non-empty when the round threw
    /** Benchmark completion times from round start (traced runs only). */
    std::vector<double> completions;
    std::uint64_t journalBytes = 0;    //!< Sweep workloads
};

/**
 * Run one round: runSuite for Suite workloads; runSweep into a fresh
 * journal under @p work_dir, a resume of the complete journal and the
 * Pareto aggregation for Sweep workloads.  An exception is caught and
 * reported in Round::error.  With @p spans set, the coarse calls get
 * spans and completion times are collected.
 */
Round runRound(const Workload &w, const Inputs &inputs, unsigned jobs,
               const std::string &work_dir, SpanRecorder *spans = nullptr);

// ---- Traced run -----------------------------------------------------------

/** Options shared by the untraced and traced runs. */
struct RunOptions
{
    std::uint64_t seed = kDefaultSeed;
    double seconds = 10.0;
    unsigned jobs = 4;
    std::string recordedDir;  //!< REC-01..08 traces
    std::string refDir;       //!< reference cell files
    std::string workDir;      //!< journals, spans, reports
};

/** One named metric value. */
struct Metric
{
    Metric(std::string name, double value, std::string unit,
           std::string note = "", std::vector<double> samples = {})
        : name(std::move(name)), value(value), unit(std::move(unit)),
          note(std::move(note)), samples(std::move(samples))
    {
    }

    std::string name;
    double value;
    std::string unit;
    std::string note;             //!< sample counts / percentile
    std::vector<double> samples;  //!< per-round values behind a median
};

/** What a run prints. */
struct Outcome
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<Metric> metrics;
    std::vector<std::string> problems;
    /** Canonical specs with their storage bits, and trace fingerprints,
     *  for provenance. */
    std::vector<std::pair<std::string, std::uint64_t>> specs;
    std::vector<std::pair<std::string, std::uint64_t>> fingerprints;
    /** Median host speed of the measured phases relative to the
     *  reference host (end-to-end run only; 0 when not measured). */
    double hostSpeed = 0.0;

    bool correct() const { return attempted > 0 && failed == 0; }
};

/**
 * The untraced run: repeated set-up (median reported as setup_s), then
 * rounds until @p options.seconds have passed and the pooled pass
 * samples support the workload's tail percentile.  Every set-up and
 * round sits between two calibrationSeconds() runs, and its host times
 * are reported at the reference host speed.
 */
Outcome measureEndToEnd(const Workload &w, const RunOptions &options);

/**
 * The traced run: set-up under spans, an untraced warm-up round, then
 * untraced and traced rounds in the order U T T U (traced rounds run
 * decorated predictors and sources under the benchmark's own
 * scheduler; the untraced ones give the scheduler metrics, the overhead
 * base and the counter cross-check), and the component ladder.
 */
Outcome measureLayers(const Workload &w, const RunOptions &options);

/** Specs of the component ladder, cheapest first. */
const std::vector<std::string> &ladderSpecs();

/** A spec string as a metric-name component ("tage-gsc+i" ->
 *  "tage-gsc_i"). */
std::string metricName(const std::string &spec);

} // namespace e2e

#endif // IMLI_E2E_BENCH_WORKLOADS_HH
