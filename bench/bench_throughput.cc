/**
 * @file
 * Throughput microbenchmarks (google-benchmark): simulation speed of each
 * predictor configuration, IMLI state maintenance cost, checkpoint cost
 * and trace generation speed.  Not a paper experiment — the engineering
 * numbers behind the suite runtimes.
 */

#include <benchmark/benchmark.h>

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <set>
#include <string>

#include "src/core/imli_components.hh"
#include "src/history/history_manager.hh"
#include "src/predictors/host_speculation.hh"
#include "src/predictors/tage.hh"
#include "src/predictors/zoo.hh"
#include "src/sim/simulator.hh"
#include "src/sim/suite_runner.hh"
#include "src/spec/checkpoint.hh"
#include "src/trace/cbp_reader.hh"
#include "src/util/thread_pool.hh"
#include "src/workloads/generator_source.hh"
#include "src/workloads/suite.hh"

using namespace imli;

namespace
{

const Trace &
sharedTrace()
{
    static const Trace trace =
        generateTrace(findBenchmark("SPEC2K6-12"), 100000);
    return trace;
}

void
predictorThroughput(benchmark::State &state, const std::string &spec)
{
    const Trace &trace = sharedTrace();
    for (auto _ : state) {
        PredictorPtr pred = makePredictor(spec);
        const SimResult r = simulate(*pred, trace);
        benchmark::DoNotOptimize(r.mispredictions);
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                            static_cast<std::int64_t>(trace.size()));
    state.SetLabel("branches/s");
}

} // anonymous namespace

#define IMLI_PREDICTOR_BENCH(name, spec)                                   \
    static void name(benchmark::State &state)                              \
    {                                                                      \
        predictorThroughput(state, spec);                                  \
    }                                                                      \
    BENCHMARK(name)->Unit(benchmark::kMillisecond)

IMLI_PREDICTOR_BENCH(BM_Bimodal, "bimodal");
IMLI_PREDICTOR_BENCH(BM_Gshare, "gshare");
IMLI_PREDICTOR_BENCH(BM_Gehl, "gehl");
IMLI_PREDICTOR_BENCH(BM_GehlImli, "gehl+i");
IMLI_PREDICTOR_BENCH(BM_TageGsc, "tage-gsc");
IMLI_PREDICTOR_BENCH(BM_TageGscImli, "tage-gsc+i");
IMLI_PREDICTOR_BENCH(BM_TageGscImliLocal, "tage-gsc+i+l");
IMLI_PREDICTOR_BENCH(BM_TageGscLoop, "tage-gsc+loop");
IMLI_PREDICTOR_BENCH(BM_TageGscIttageLoop, "tage-gsc+itl");
IMLI_PREDICTOR_BENCH(BM_TageGscWormhole, "tage-gsc+wh");
IMLI_PREDICTOR_BENCH(BM_IttageLoopStandalone, "itl");
IMLI_PREDICTOR_BENCH(BM_MetaChooser, "meta(tage-gsc,gehl,gshare)");
IMLI_PREDICTOR_BENCH(BM_MetaChooserFusion,
                     "meta(tage-gsc,gehl,gshare)@meta.policy=fusion");

static void
BM_TageArenaLookup(benchmark::State &state)
{
    // The raw TAGE hot loop, isolated from the composed predictor: one
    // predict + update pair per branch against the arena-backed tagged
    // tables.  This is the row the arena layout and the branch-light
    // provider selection move; compare against BM_TageGsc to see how
    // much of the composed cost is TAGE itself.
    HistoryManager hist(host_spec::historyCapacity(640));
    TagePredictor::Config cfg;
    TagePredictor tage(cfg, hist);
    const Trace &trace = sharedTrace();
    std::uint64_t mask = 0;
    for (auto _ : state) {
        for (const BranchRecord &rec : trace.branches()) {
            if (!isConditional(rec.type))
                continue;
            const TagePredictor::Prediction p = tage.predict(rec.pc);
            tage.update(rec.pc, rec.taken, p.taken);
            hist.push(rec.taken, rec.pc);
            mask ^= static_cast<std::uint64_t>(p.taken);
        }
        benchmark::DoNotOptimize(mask);
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                            static_cast<std::int64_t>(trace.size()));
    state.SetLabel("branches/s");
}
BENCHMARK(BM_TageArenaLookup)->Unit(benchmark::kMillisecond);

static void
BM_PipelineCommit(benchmark::State &state)
{
    // Pipeline-engine throughput at update delay Arg.  Each commit's
    // checkpoint and restores are fold-snapshot copies, so a correct
    // commit costs the same at any depth; what grows with the delay is
    // the replay of the squashed window after each misprediction.
    const Trace &trace = sharedTrace();
    SimOptions opt;
    opt.pipeline = true;
    opt.updateDelay = static_cast<unsigned>(state.range(0));
    std::uint64_t mispredictions = 0;
    for (auto _ : state) {
        PredictorPtr pred = makePredictor("tage-gsc+i");
        const SimResult r = simulate(*pred, trace, opt);
        mispredictions = r.mispredictions;
        benchmark::DoNotOptimize(mispredictions);
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                            static_cast<std::int64_t>(trace.size()));
    state.SetLabel("branches/s");
}
BENCHMARK(BM_PipelineCommit)
    ->Unit(benchmark::kMillisecond)
    ->Arg(0)
    ->Arg(8)
    ->Arg(63);

static void
BM_ImliStateMaintenance(benchmark::State &state)
{
    // The pure per-branch cost of the IMLI machinery: context fill +
    // resolution (counter heuristic + outer-history write).
    ImliComponents imli;
    ScContext ctx;
    std::uint64_t pc = 0x400000;
    bool taken = true;
    for (auto _ : state) {
        imli.fillContext(ctx, pc);
        imli.onResolved(pc, pc - 0x80, taken);
        benchmark::DoNotOptimize(ctx.imliCount);
        pc += 0x20;
        if (pc > 0x400400)
            pc = 0x400000;
        taken = !taken;
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_ImliStateMaintenance);

static void
BM_ImliCheckpointRoundTrip(benchmark::State &state)
{
    // Checkpoint save + restore: the hardware-cheap operation the paper
    // contrasts with the in-flight window search.
    ImliComponents imli;
    for (auto _ : state) {
        const auto cp = imli.save();
        imli.onResolved(0x400020, 0x400000, true);
        imli.restore(cp);
        benchmark::DoNotOptimize(cp.counter);
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_ImliCheckpointRoundTrip);

static void
BM_SpeculativeModel(benchmark::State &state)
{
    SpeculativeImliModel spec;
    std::uint64_t i = 0;
    for (auto _ : state) {
        const bool actual = (i % 3) != 0;
        const bool predicted = (i % 7) != 0 ? actual : !actual;
        spec.onBranch(0x400020, 0x400000, predicted, actual);
        ++i;
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_SpeculativeModel);

static void
BM_SuiteRunner(benchmark::State &state)
{
    // End-to-end suite-runner throughput at a given worker count (the
    // Arg): 8 benchmarks x 2 configs, short traces.  The jobs = 1 row is
    // the serial baseline future scaling PRs are measured against.
    const std::vector<std::string> names = {
        "SPEC2K6-04", "SPEC2K6-12", "MM-4", "CLIENT02",
        "MM07",       "WS04",       "WS03", "SERVER-1"};
    std::vector<BenchmarkSpec> specs;
    for (const std::string &n : names)
        specs.push_back(findBenchmark(n));
    const std::vector<std::string> configs = {"tage-gsc", "tage-gsc+i"};
    SuiteRunOptions opt;
    opt.branchesPerTrace = 20000;
    opt.jobs = static_cast<unsigned>(state.range(0));
    std::uint64_t branches = 0;
    for (auto _ : state) {
        const SuiteResults r = runSuite(specs, configs, opt);
        branches = 0;
        for (const SuiteCell &cell : r.cells)
            branches += cell.conditionals;
        benchmark::DoNotOptimize(branches);
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                            static_cast<std::int64_t>(branches));
    state.SetLabel("branches/s");
}
// UseRealTime: the work runs on pool worker threads, so calling-thread
// CPU time (the default clock) would read near zero for jobs > 1.  The
// job counts are deduplicated so machines where hardwareThreads() is
// already in the sweep don't get a double-registered row.
static void
suiteRunnerJobArgs(benchmark::internal::Benchmark *b)
{
    const std::set<int> jobs = {
        1, 2, 4, 8, static_cast<int>(imli::ThreadPool::hardwareThreads())};
    for (int j : jobs)
        b->Arg(j);
}
BENCHMARK(BM_SuiteRunner)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime()
    ->Apply(suiteRunnerJobArgs);

static void
BM_SimulateMaterialized(benchmark::State &state)
{
    // Reference point for the streaming rows: generate + materialize the
    // trace, then simulate — the pre-streaming engine's per-cell cost.
    const BenchmarkSpec spec = findBenchmark("SPEC2K6-12");
    std::uint64_t conditionals = 0;
    for (auto _ : state) {
        const Trace trace = generateTrace(spec, 100000);
        PredictorPtr pred = makePredictor("tage-gsc");
        const SimResult r = simulate(*pred, trace);
        conditionals = r.conditionals;
        benchmark::DoNotOptimize(conditionals);
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                            100000);
    state.SetLabel("branches/s");
}
BENCHMARK(BM_SimulateMaterialized)->Unit(benchmark::kMillisecond);

static void
BM_SimulateStreaming(benchmark::State &state)
{
    // Same work on the streaming path: generator -> chunk -> predictor,
    // no materialized trace.  Arg is the chunk size in records.
    const BenchmarkSpec spec = findBenchmark("SPEC2K6-12");
    const std::size_t chunk = static_cast<std::size_t>(state.range(0));
    std::uint64_t conditionals = 0;
    for (auto _ : state) {
        GeneratorBranchSource source(spec, 100000, chunk);
        PredictorPtr pred = makePredictor("tage-gsc");
        const SimResult r = simulate(*pred, source);
        conditionals = r.conditionals;
        benchmark::DoNotOptimize(conditionals);
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                            100000);
    state.SetLabel("branches/s");
}
BENCHMARK(BM_SimulateStreaming)
    ->Unit(benchmark::kMillisecond)
    ->Arg(4096)
    ->Arg(65536);

static void
BM_SimulateMany(benchmark::State &state)
{
    // Single-pass multi-config: Arg configs share one streamed pass, so
    // generation cost is amortized Arg-fold.  Compare branches/s against
    // Arg independent BM_SimulateStreaming runs.
    const BenchmarkSpec spec = findBenchmark("SPEC2K6-12");
    const std::size_t nconfigs = static_cast<std::size_t>(state.range(0));
    std::uint64_t conditionals = 0;
    for (auto _ : state) {
        std::vector<PredictorPtr> predictors;
        for (std::size_t i = 0; i < nconfigs; ++i)
            predictors.push_back(makePredictor("tage-gsc"));
        GeneratorBranchSource source(spec, 100000);
        const std::vector<SimResult> rs = simulateMany(predictors, source);
        conditionals = rs.back().conditionals;
        benchmark::DoNotOptimize(conditionals);
    }
    // Simulated branches: every config replays the whole stream.
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                            100000 *
                            static_cast<std::int64_t>(nconfigs));
    state.SetLabel("branches/s");
}
BENCHMARK(BM_SimulateMany)
    ->Unit(benchmark::kMillisecond)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8);

namespace
{

std::string cbpBenchPath;

void
removeCbpBenchFile()
{
    std::remove(cbpBenchPath.c_str());
}

} // anonymous namespace

static void
BM_SimulateCbpSource(benchmark::State &state)
{
    // External-trace ingestion throughput: fixed-width CBP records are
    // decoded chunk by chunk and simulated.  Compare against
    // BM_SimulateStreaming (generator backend) to see what replaying a
    // recording costs relative to generating the same stream.
    static const std::string path = [] {
        cbpBenchPath = "/tmp/imli_bench_" + std::to_string(::getpid()) +
                       ".cbp";
        GeneratorBranchSource source(findBenchmark("SPEC2K6-12"), 100000);
        writeCbpFile(source, cbpBenchPath);
        std::atexit(removeCbpBenchFile);
        return cbpBenchPath;
    }();
    std::uint64_t conditionals = 0;
    std::uint64_t records = 0;
    for (auto _ : state) {
        CbpFileBranchSource source(path);
        PredictorPtr pred = makePredictor("tage-gsc");
        const SimResult r = simulate(*pred, source);
        conditionals = r.conditionals;
        records = source.decodedRecords();
        benchmark::DoNotOptimize(conditionals);
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                            static_cast<std::int64_t>(records));
    state.SetLabel("branches/s");
}
BENCHMARK(BM_SimulateCbpSource)->Unit(benchmark::kMillisecond);

static void
BM_TraceGeneration(benchmark::State &state)
{
    const BenchmarkSpec spec = findBenchmark("MM07");
    for (auto _ : state) {
        const Trace t = generateTrace(spec, 50000);
        benchmark::DoNotOptimize(t.size());
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                            50000);
    state.SetLabel("branches/s");
}
BENCHMARK(BM_TraceGeneration)->Unit(benchmark::kMillisecond);

/**
 * Custom main: refuse to benchmark a debug build.  A CMAKE_BUILD_TYPE
 * omission once recorded a full BENCH_throughput.json from -O0 binaries
 * with asserts on — numbers off by an order of magnitude that looked
 * perfectly plausible in isolation.  Without NDEBUG this binary now
 * exits loudly instead of measuring; IMLI_BENCH_ALLOW_DEBUG=1 overrides
 * for debugging the benchmarks themselves, and the build type is stamped
 * into the JSON context either way so a recorded file can always be
 * audited.
 */
int
main(int argc, char **argv)
{
#ifdef NDEBUG
    benchmark::AddCustomContext("imli_build_type", "release");
#else
    benchmark::AddCustomContext("imli_build_type", "debug");
    if (std::getenv("IMLI_BENCH_ALLOW_DEBUG") == nullptr) {
        std::cerr
            << "bench_throughput: this binary was compiled without NDEBUG "
               "(a debug build).\nBenchmark numbers from it are "
               "meaningless for recording; rebuild with\n"
               "-DCMAKE_BUILD_TYPE=Release, or set "
               "IMLI_BENCH_ALLOW_DEBUG=1 to run anyway\n(the JSON context "
               "will carry imli_build_type: \"debug\").\n";
        return 1;
    }
    std::cerr << "bench_throughput: WARNING: debug build "
                 "(IMLI_BENCH_ALLOW_DEBUG set) — do not record these "
                 "numbers.\n";
#endif
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv))
        return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
}
