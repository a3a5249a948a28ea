/**
 * @file
 * Suite report: run arbitrary predictor configurations over the full
 * synthetic suite (or a subset) and print per-benchmark MPKI plus suite
 * averages.  The workhorse behind workload calibration and a template for
 * custom experiments.
 *
 * Usage: suite_report [--configs tage-gsc,tage-gsc+i]
 *                     [--suite CBP4|CBP3|REC] [--branches 200000]
 *                     [--benchmarks 'MM-*,WS03']  (glob patterns; a
 *                      pattern matching nothing errors with near-misses)
 *                     [--csv | --json]  (machine-readable cell dumps
 *                      with stable field order)
 *                     [--recorded DIR]  (append the REC-01..REC-08
 *                      recorded scenarios from DIR/rec-0N.cbp — a mixed
 *                      generated + recorded run)
 *                     [--class NAME]  (keep only benchmarks of one
 *                      characterization-derived predictability class —
 *                      high-entropy, loopy, flat, ... — measured at the
 *                      run's --branches budget; an unknown name errors
 *                      with the known classes and a near-miss hint.  See
 *                      src/corpus/characterize.hh for the definitions)
 *                     [--char-cache DIR]  (persist per-trace
 *                      characterizations under DIR, keyed by content
 *                      fingerprint, so repeated --class runs skip the
 *                      characterization pass)
 *                     [--jobs N]   (0/auto = all hardware threads)
 *                     [--update-delay N]  (speculative pipeline engine:
 *                      predictor tables train at commit, N in-flight
 *                      branches after prediction; N=0 is bit-identical
 *                      to the default immediate engine.  Per-config
 *                      delays also work via the spec key, e.g. --configs
 *                      'tage-gsc+i,tage-gsc+i@sim.delay=63')
 *                     [--metrics FILE]  (export predictor-internals
 *                      metrics as JSON; see src/obs/metrics.hh.  Off by
 *                      default and provably inert when off: prediction
 *                      output is byte-identical either way)
 *                     [--phase-interval N]  (with --metrics: record a
 *                      phase-sliced time series every N branches)
 *                     [--trace-events FILE]  (pipeline engine only, one
 *                      benchmark x one config: Chrome trace-event JSON
 *                      of fetch/predict/commit/squash, loadable in
 *                      Perfetto / chrome://tracing)
 *                     [--progress]  (per-benchmark heartbeat on stderr)
 *
 * Configs may carry design-space overrides ("tage-gsc@sic.logsize=10");
 * see src/predictors/zoo.hh for the grammar and `explorer` for sweeps.
 */

#include <fstream>
#include <iostream>
#include <memory>
#include <mutex>

#include "src/corpus/trace_corpus.hh"
#include "src/obs/metrics.hh"
#include "src/obs/trace_event.hh"
#include "src/predictors/zoo.hh"
#include "src/sim/report.hh"
#include "src/sim/suite_runner.hh"
#include "src/util/cli.hh"
#include "src/util/thread_pool.hh"

using namespace imli;

namespace
{

const char kUsage[] =
    "usage: suite_report [--configs SPECS] [--suite CBP4|CBP3|REC]\n"
    "                    [--benchmarks GLOBS] [--branches N]"
    " [--csv | --json]\n"
    "                    [--recorded DIR] [--class NAME]"
    " [--char-cache DIR] [--jobs N]\n"
    "                    [--update-delay N] [--metrics FILE]\n"
    "                    [--phase-interval N] [--trace-events FILE]"
    " [--progress]\n";

} // anonymous namespace

int
main(int argc, char **argv)
try {
    CommandLine cli(argc, argv);
    if (cli.has("help")) {
        std::cout << kUsage;
        return 0;
    }
    // --csv/--json are output-mode booleans; a path value ("--json
    // out.json") would be silently swallowed by getBool, so fail loudly.
    cli.rejectValuedBool("csv");
    cli.rejectValuedBool("json");
    if (cli.getBool("csv") && cli.getBool("json")) {
        std::cerr << "error: pick one of --csv or --json\n";
        return 1;
    }
    // splitSpecList keeps override commas ("a@x=1,y=2") inside their spec.
    const std::vector<std::string> configs =
        splitSpecList(cli.getString("configs", "tage-gsc,tage-gsc+i"));
    const std::string which = cli.getString("suite", "");
    const std::string only = cli.getString("benchmarks", "");

    // Flags parse strictly, like the env overrides; env defaults are only
    // consulted when the flag is absent, so an explicit flag still works
    // under a malformed env var.
    const std::size_t branchesPerTrace =
        cli.has("branches")
            ? parseBranchCount(cli.getString("branches"), "--branches")
            : defaultBranchesPerTrace();

    // The candidate pool, via the corpus layer: the 80 generated members
    // plus the recorded scenarios when --recorded names their directory,
    // filtered by --suite / --benchmarks globs / --class (suite_runner
    // schedules both backends identically).  Every selection problem —
    // pattern matching nothing (with near-miss suggestions), unknown
    // class, invalid recorded dir, empty result — throws with the shared
    // recordedHint appended, so "MM4" vs "MM-4" fails loudly and --suite
    // REC without --recorded DIR points at the missing flag.
    std::vector<BenchmarkSpec> benchmarks;
    try {
        CorpusQuery query;
        query.recordedDir = cli.getString("recorded", "");
        query.suite = which;
        query.patterns = splitCommaList(only);
        query.className = cli.getString("class", "");
        query.characterizationCacheDir = cli.getString("char-cache", "");
        query.targetBranches = branchesPerTrace;
        benchmarks = selectSuiteBenchmarks(query);
    } catch (const std::exception &e) {
        std::cerr << "error: " << e.what() << '\n';
        return 1;
    }

    SuiteRunOptions options;
    options.branchesPerTrace = branchesPerTrace;
    options.jobs = cli.has("jobs")
                       ? ThreadPool::parseJobsStrict(cli.getString("jobs"),
                                                     "--jobs")
                       : defaultJobs();
    // Pipeline engine selection: --update-delay N (strict; 0 is the
    // bit-identity oracle).
    applyPipelineFlags(cli, options.sim);

    // Observation layer: entirely absent unless requested, so the default
    // path keeps its inertness guarantee (no registry, no probes).
    obs::MetricsRegistry registry;
    if (cli.has("metrics")) {
        if (cli.has("phase-interval")) {
            const std::int64_t n = cli.getInt("phase-interval");
            if (n < 1)
                throw std::runtime_error(
                    "--phase-interval: need a branch interval >= 1");
            registry.phaseInterval = static_cast<std::size_t>(n);
        }
        options.metrics = &registry;
    } else if (cli.has("phase-interval")) {
        throw std::runtime_error(
            "--phase-interval requires --metrics FILE");
    }

    cli.rejectValuedBool("progress");
    std::size_t heartbeatDone = 0;
    std::mutex heartbeatMutex; // progress fires from worker threads
    if (cli.getBool("progress")) {
        const std::size_t totalCells = benchmarks.size() * configs.size();
        options.progress = [&, totalCells](const std::string &name,
                                           std::size_t) {
            std::lock_guard<std::mutex> lock(heartbeatMutex);
            ++heartbeatDone;
            std::cerr << "[suite_report] " << heartbeatDone << "/"
                      << totalCells << " cells (" << name << ")\n";
        };
    }

    // Every flag has been read: a leftover one is a typo or a removed
    // option, so fail before opening any output or simulating anything.
    const bool wantTraceEvents = cli.has("trace-events");
    cli.rejectUnreadFlags();

    std::ofstream traceFile;
    std::unique_ptr<obs::TraceEventWriter> traceWriter;
    if (wantTraceEvents) {
        // One stream, one cell: interleaved cells would share the writer,
        // and the immediate engine emits no events at all.
        if (!options.sim.usePipeline())
            throw std::runtime_error(
                "--trace-events requires the pipeline engine "
                "(--update-delay N)");
        if (benchmarks.size() != 1 || configs.size() != 1)
            throw std::runtime_error(
                "--trace-events requires exactly one benchmark and one "
                "config (got " + std::to_string(benchmarks.size()) +
                " benchmarks x " + std::to_string(configs.size()) +
                " configs)");
        const std::string path = cli.getString("trace-events");
        traceFile.open(path, std::ios::binary);
        if (!traceFile)
            throw std::runtime_error(
                "--trace-events: cannot open " + path + " for writing");
        traceWriter = std::make_unique<obs::TraceEventWriter>(traceFile);
        options.sim.traceEvents = traceWriter.get();
    }

    const SuiteResults results = runSuite(benchmarks, configs, options);

    if (traceWriter) {
        traceWriter->close();
        if (!traceFile)
            throw std::runtime_error(
                "--trace-events: write failed on " +
                cli.getString("trace-events"));
    }
    if (cli.has("metrics")) {
        const std::string path = cli.getString("metrics");
        std::ofstream out(path, std::ios::binary);
        if (!out)
            throw std::runtime_error(
                "--metrics: cannot open " + path + " for writing");
        registry.writeJson(out);
        if (!out)
            throw std::runtime_error("--metrics: write failed on " + path);
    }

    if (cli.getBool("csv")) {
        printCellsCsv(std::cout, results);
        return 0;
    }
    if (cli.getBool("json")) {
        printCellsJson(std::cout, results);
        return 0;
    }

    printPerBenchmark(std::cout, results, results.benchmarkNames(), configs,
                      "Per-benchmark MPKI");
    printRunSummary(std::cout, results, options.jobs);

    bool has_recorded = false;
    for (const BenchmarkSpec &b : benchmarks)
        has_recorded = has_recorded || b.suite == "REC";

    std::cout << "Suite averages (MPKI):\n";
    for (const std::string &config : configs) {
        std::cout << "  " << config << ": "
                  << "CBP4 " << results.averageMpki(config, "CBP4")
                  << ", CBP3 " << results.averageMpki(config, "CBP3");
        if (has_recorded)
            std::cout << ", REC " << results.averageMpki(config, "REC");
        std::cout << ", all " << results.averageMpki(config) << '\n';
    }
    return 0;
} catch (const std::exception &e) {
    // Bad env overrides (IMLI_BRANCHES/IMLI_JOBS) or unknown specs: fail
    // with the message, not a raw terminate().
    std::cerr << "error: " << e.what() << '\n';
    return 1;
}
