#include "src/sim/suite_runner.hh"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <memory>
#include <mutex>
#include <stdexcept>

#include "src/corpus/trace_corpus.hh"
#include "src/obs/metrics.hh"
#include "src/obs/phase_series.hh"
#include "src/predictors/zoo.hh"
#include "src/util/cli.hh"
#include "src/util/thread_pool.hh"

namespace imli
{

const SuiteCell &
SuiteResults::at(const std::string &benchmark,
                 const std::string &config) const
{
    for (const SuiteCell &cell : cells)
        if (cell.benchmark == benchmark && cell.config == config)
            return cell;
    throw std::out_of_range("no cell for " + benchmark + " / " + config);
}

double
SuiteResults::averageMpki(const std::string &config,
                          const std::string &suite) const
{
    double total = 0.0;
    std::size_t count = 0;
    for (const SuiteCell &cell : cells) {
        if (cell.config != config)
            continue;
        if (!suite.empty() && cell.suite != suite)
            continue;
        total += cell.mpki;
        ++count;
    }
    return count == 0 ? 0.0 : total / static_cast<double>(count);
}

std::vector<std::string>
SuiteResults::rankByDelta(const std::string &config_a,
                          const std::string &config_b) const
{
    struct Ranked
    {
        std::string name;
        double delta;
    };
    std::vector<Ranked> ranked;
    for (const std::string &name : benchmarkNames()) {
        const double delta =
            std::abs(at(name, config_a).mpki - at(name, config_b).mpki);
        ranked.push_back({name, delta});
    }
    std::sort(ranked.begin(), ranked.end(),
              [](const Ranked &a, const Ranked &b) {
                  return a.delta > b.delta;
              });
    std::vector<std::string> names;
    names.reserve(ranked.size());
    for (const Ranked &r : ranked)
        names.push_back(r.name);
    return names;
}

void
SuiteResults::merge(const SuiteResults &shard)
{
    if (configs.empty() && cells.empty()) {
        *this = shard;
        return;
    }
    if (shard.configs != configs)
        throw std::invalid_argument(
            "SuiteResults::merge: shards ran different config lists");
    cells.insert(cells.end(), shard.cells.begin(), shard.cells.end());
}

std::vector<std::string>
SuiteResults::benchmarkNames() const
{
    std::vector<std::string> names;
    for (const SuiteCell &cell : cells) {
        if (names.empty() || names.back() != cell.benchmark) {
            bool seen = false;
            for (const auto &n : names)
                if (n == cell.benchmark)
                    seen = true;
            if (!seen)
                names.push_back(cell.benchmark);
        }
    }
    return names;
}

std::vector<SuiteCell>
runBenchmarkPass(const BenchmarkSpec &spec,
                 const std::vector<std::string> &configs,
                 const SuiteRunOptions &options,
                 const std::vector<obs::CellObs *> &slots)
{
    std::vector<PredictorPtr> predictors;
    std::vector<SimOptions> simOptions;
    predictors.reserve(configs.size());
    simOptions.reserve(configs.size());
    for (const std::string &config : configs) {
        const ParsedSpec parsed = parseSpec(config);
        predictors.push_back(makePredictor(parsed));
        // Per-config engine selection: run-level options are the base, a
        // sim.delay spec override pins the config (see applySpecDelay).
        simOptions.push_back(applySpecDelay(parsed, options.sim));
    }

    // Observation wiring, before the first predict: each cell gets its
    // own scope slot (lock-free — the caller hands this pass its slots).
    for (std::size_t c = 0; c < slots.size(); ++c) {
        obs::CellObs &oc = *slots[c];
        oc.benchmark = spec.name;
        oc.config = configs[c];
        predictors[c]->attachProbes(oc.scope);
        if (options.metrics != nullptr && options.metrics->phaseInterval > 0)
            oc.phase = std::make_unique<obs::PhaseRecorder>(
                options.metrics->phaseInterval, &oc.scope);
        simOptions[c].metrics = &oc.scope;
        simOptions[c].phase = oc.phase.get();
    }

    const auto start = std::chrono::steady_clock::now();

    // The corpus factory: generator for synthetic specs; recorded traces
    // are decoded once per process and shared (falling back to streaming
    // file readers when oversized).  Either way the stream arrives chunk
    // by chunk, so the memory model is backend-independent.
    const std::unique_ptr<BranchSource> source = TraceCorpus::open(
        spec, options.branchesPerTrace, options.chunkBranches);
    const std::vector<SimResult> results =
        simulateMany(predictors, *source, simOptions);

    const double elapsed =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      start)
            .count();

    std::vector<SuiteCell> cells(configs.size());
    for (std::size_t c = 0; c < configs.size(); ++c) {
        SuiteCell &cell = cells[c];
        cell.benchmark = spec.name;
        cell.suite = spec.suite;
        cell.config = configs[c];
        cell.mpki = results[c].mpki();
        cell.mispredictions = results[c].mispredictions;
        cell.conditionals = results[c].conditionals;
        cell.instructions = results[c].instructions;
        cell.seconds = elapsed;
    }
    for (obs::CellObs *oc : slots) {
        oc->wallSeconds = elapsed;
        if (oc->phase != nullptr)
            oc->phase->finish();
    }
    return cells;
}

std::size_t
forEachBenchmark(std::size_t count, unsigned jobs,
                 const std::function<void(std::size_t)> &task)
{
    if (jobs == 0)
        jobs = ThreadPool::hardwareThreads();
    if (jobs <= 1 || count == 0) {
        for (std::size_t b = 0; b < count; ++b)
            task(b);
        return 0;
    }
    // More workers than benchmarks would never get a task.
    ThreadPool pool(
        static_cast<unsigned>(std::min<std::size_t>(jobs, count)));
    pool.parallelFor(count, task);
    return pool.queueHighWater();
}

SuiteResults
runSuite(const std::vector<BenchmarkSpec> &benchmarks,
         const std::vector<std::string> &configs,
         const SuiteRunOptions &options)
{
    // Fail on a broken spec (no kernels, missing / corrupt trace file)
    // before any simulation runs, not from a worker thread mid-suite.
    for (const BenchmarkSpec &spec : benchmarks)
        validateBenchmark(spec);

    SuiteResults results;
    results.configs = configs;
    const std::size_t nconfigs = configs.size();
    results.cells.resize(benchmarks.size() * nconfigs);

    // Fixed per-cell observation slots, sized before the fan-out so no
    // worker ever reallocates shared storage (see MetricsRegistry).
    if (options.metrics != nullptr)
        options.metrics->resize(benchmarks.size() * nconfigs);

    if (benchmarks.empty())
        return results;

    const auto runStart = std::chrono::steady_clock::now();
    std::mutex progressMutex;
    const std::size_t queueHighWater = forEachBenchmark(
        benchmarks.size(), options.jobs, [&](std::size_t b) {
            std::vector<obs::CellObs *> slots;
            if (options.metrics != nullptr)
                for (std::size_t c = 0; c < nconfigs; ++c)
                    slots.push_back(&options.metrics->cell(b * nconfigs + c));
            std::vector<SuiteCell> cells =
                runBenchmarkPass(benchmarks[b], configs, options, slots);
            std::move(cells.begin(), cells.end(),
                      results.cells.begin() + b * nconfigs);
            // The pass completes a benchmark's configs together, so
            // progress is reported per benchmark: configs-many calls in
            // a row.
            if (options.progress) {
                std::lock_guard<std::mutex> lock(progressMutex);
                for (std::size_t done = 1; done <= nconfigs; ++done)
                    options.progress(benchmarks[b].name, done);
            }
        });
    if (options.metrics != nullptr)
        options.metrics->setGauge("threadpool/queue_high_water",
                                  static_cast<double>(queueHighWater));
    results.wallSeconds = std::chrono::duration<double>(
                              std::chrono::steady_clock::now() - runStart)
                              .count();
    return results;
}

std::size_t
parseBranchCount(const std::string &text, const std::string &what)
{
    std::uint64_t v = 0;
    if (!parseDecimalU64(text, v))
        throw std::runtime_error(
            what + ": invalid branch count \"" + text +
            "\" (expected a plain decimal integer >= 1000)");
    if (v > std::numeric_limits<std::size_t>::max())
        throw std::runtime_error(
            what + ": branch count " + text + " is out of range");
    if (v < 1000)
        throw std::runtime_error(
            what + ": branch count " + text + " is too small (minimum 1000)");
    return static_cast<std::size_t>(v);
}

std::size_t
defaultBranchesPerTrace()
{
    const char *env = std::getenv("IMLI_BRANCHES");
    if (!env)
        return 200000;
    return parseBranchCount(env, "IMLI_BRANCHES");
}

unsigned
defaultJobs()
{
    if (const char *env = std::getenv("IMLI_JOBS"))
        return ThreadPool::parseJobsStrict(env, "IMLI_JOBS");
    return 1;
}

void
applyPipelineFlags(const CommandLine &cli, SimOptions &sim)
{
    if (!cli.has("update-delay"))
        return;
    const std::int64_t delay = cli.getInt("update-delay");
    if (delay < 0 || delay > static_cast<std::int64_t>(kMaxSpeculationDepth))
        throw std::runtime_error("--update-delay: need a value in [0, " +
                                 std::to_string(kMaxSpeculationDepth) + "]");
    sim.updateDelay = static_cast<unsigned>(delay);
    sim.pipeline = true;
}

} // namespace imli
