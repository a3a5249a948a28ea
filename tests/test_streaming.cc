/**
 * @file
 * Streaming-engine tests: the pull-based BranchSource backends must be
 * record-identical to the materialized path, simulateMany must match N
 * independent simulate() runs, the suite runner must produce the exact
 * cell matrix of a materialized reference run at any worker count, and
 * the generator-backed path must keep resident trace memory at O(chunk)
 * rather than O(trace).
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstring>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "src/history/folded_history.hh"
#include "src/history/history_manager.hh"
#include "src/predictors/zoo.hh"
#include "src/sim/simulator.hh"
#include "src/sim/suite_runner.hh"
#include "src/trace/branch_source.hh"
#include "src/trace/cbp_reader.hh"
#include "src/trace/trace_io.hh"
#include "src/workloads/generator_source.hh"
#include "src/workloads/suite.hh"

using namespace imli;

namespace
{

void
expectSameRecords(const Trace &a, const Trace &b)
{
    ASSERT_EQ(a.size(), b.size());
    ASSERT_EQ(a.instructionCount(), b.instructionCount());
    ASSERT_EQ(a.conditionalCount(), b.conditionalCount());
    for (std::size_t i = 0; i < a.size(); ++i)
        ASSERT_TRUE(a[i] == b[i]) << "record " << i;
}

void
expectSameResult(const SimResult &a, const SimResult &b)
{
    EXPECT_EQ(a.traceName, b.traceName);
    EXPECT_EQ(a.predictorName, b.predictorName);
    EXPECT_EQ(a.conditionals, b.conditionals);
    EXPECT_EQ(a.mispredictions, b.mispredictions);
    EXPECT_EQ(a.instructions, b.instructions);
    EXPECT_EQ(a.perPcMispredictions, b.perPcMispredictions);
}

/** Exact comparison of two results matrices, doubles compared bitwise. */
void
expectBitIdentical(const SuiteResults &a, const SuiteResults &b)
{
    ASSERT_EQ(a.configs, b.configs);
    ASSERT_EQ(a.cells.size(), b.cells.size());
    for (std::size_t i = 0; i < a.cells.size(); ++i) {
        const SuiteCell &x = a.cells[i];
        const SuiteCell &y = b.cells[i];
        EXPECT_EQ(x.benchmark, y.benchmark) << "cell " << i;
        EXPECT_EQ(x.suite, y.suite) << "cell " << i;
        EXPECT_EQ(x.config, y.config) << "cell " << i;
        EXPECT_EQ(x.mispredictions, y.mispredictions) << "cell " << i;
        EXPECT_EQ(x.conditionals, y.conditionals) << "cell " << i;
        EXPECT_EQ(x.instructions, y.instructions) << "cell " << i;
        EXPECT_EQ(std::memcmp(&x.mpki, &y.mpki, sizeof(double)), 0)
            << "cell " << i << ": mpki differs in bit pattern";
    }
}

std::string
tempPath(const std::string &leaf)
{
    // Process-unique: ctest runs each discovered test in its own process,
    // possibly in parallel, and shared paths would race.
    return ::testing::TempDir() + leaf + "." + std::to_string(::getpid());
}

} // anonymous namespace

// ---------------------------------------------------------------------
// Source backends reproduce the materialized record stream exactly.
// ---------------------------------------------------------------------

TEST(GeneratorSource, DrainMatchesGenerateTraceAtOddChunkSizes)
{
    const BenchmarkSpec bench = findBenchmark("MM07");
    const Trace reference = generateTrace(bench, 12000);
    for (std::size_t chunk : {std::size_t(1), std::size_t(7),
                              std::size_t(997), std::size_t(1u << 20)}) {
        GeneratorBranchSource source(bench, 12000, chunk);
        const Trace drained = drainSource(source);
        EXPECT_EQ(drained.name(), reference.name());
        expectSameRecords(reference, drained);
        EXPECT_EQ(source.emittedRecords(), reference.size());
    }
}

TEST(GeneratorSource, ResetReplaysTheIdenticalStream)
{
    GeneratorBranchSource source(findBenchmark("WS03"), 6000, 251);
    const Trace first = drainSource(source);
    EXPECT_TRUE(source.nextChunk().empty()) << "exhausted source";
    source.reset();
    const Trace second = drainSource(source);
    expectSameRecords(first, second);
}

TEST(GeneratorSource, BufferStaysChunkBoundedNotTraceSized)
{
    // 60000-record stream, 2048-record chunks: the buffer must never
    // approach the stream length — only chunk + the one kernel round that
    // crossed the boundary (rounds are a few thousand records at most).
    GeneratorBranchSource source(findBenchmark("MM07"), 60000, 2048);
    const Trace drained = drainSource(source);
    ASSERT_GE(drained.size(), 60000u);
    EXPECT_LE(source.peakBufferedRecords(), 2048u + 8192u);
}

TEST(TraceSource, ChunksAliasTheTraceAndCoverIt)
{
    const Trace trace = generateTrace(findBenchmark("WS03"), 3000);
    TraceBranchSource source(trace, 100);
    std::size_t covered = 0;
    for (BranchSpan span = source.nextChunk(); !span.empty();
         span = source.nextChunk()) {
        EXPECT_LE(span.count, 100u);
        EXPECT_EQ(span.records, trace.branches().data() + covered)
            << "spans must alias the trace storage, not copy it";
        covered += span.count;
    }
    EXPECT_EQ(covered, trace.size());

    const Trace none("empty");
    TraceBranchSource empty(none);
    EXPECT_TRUE(empty.nextChunk().empty());
}

TEST(FileSource, DrainMatchesReadTraceFileAndResets)
{
    const Trace trace = generateTrace(findBenchmark("SPEC2K6-12"), 8000);
    const std::string path = tempPath("imli_file_source.imt");
    writeTraceFile(trace, path);

    FileBranchSource source(path, 313);
    EXPECT_EQ(source.name(), trace.name());
    EXPECT_EQ(source.totalRecords(), trace.size());
    const Trace drained = drainSource(source);
    expectSameRecords(readTraceFile(path), drained);
    expectSameRecords(trace, drained);

    // Rewind mid-stream: a fresh full pass must still be exact.
    source.reset();
    (void)source.nextChunk();
    source.reset();
    expectSameRecords(trace, drainSource(source));
}

TEST(FileSource, StreamingWriterProducesByteIdenticalFiles)
{
    const BenchmarkSpec bench = findBenchmark("MM-4");
    const Trace trace = generateTrace(bench, 7000);
    const std::string materialized = tempPath("imli_writer_mat.imt");
    const std::string streamed = tempPath("imli_writer_stream.imt");
    writeTraceFile(trace, materialized);

    GeneratorBranchSource source(bench, 7000, 509);
    EXPECT_EQ(writeTraceFile(source, streamed), trace.size());

    std::ifstream a(materialized, std::ios::binary);
    std::ifstream b(streamed, std::ios::binary);
    const std::string bytes_a((std::istreambuf_iterator<char>(a)),
                              std::istreambuf_iterator<char>());
    const std::string bytes_b((std::istreambuf_iterator<char>(b)),
                              std::istreambuf_iterator<char>());
    EXPECT_EQ(bytes_a, bytes_b);
}

// ---------------------------------------------------------------------
// Simulation equivalence: every known predictor spec, on generated and
// file-round-tripped sources.
// ---------------------------------------------------------------------

class StreamingSpecEquivalence : public ::testing::TestWithParam<std::string>
{
};

TEST_P(StreamingSpecEquivalence, GeneratedAndFileSourcesMatchMaterialized)
{
    const BenchmarkSpec bench = findBenchmark("WS03");
    const Trace trace = generateTrace(bench, 4000);
    const std::string path = tempPath("imli_spec_equivalence.imt");
    writeTraceFile(trace, path);

    SimOptions opt;
    opt.collectPerPc = true;
    PredictorPtr materialized = makePredictor(GetParam());
    const SimResult base = simulate(*materialized, trace, opt);

    PredictorPtr generated = makePredictor(GetParam());
    GeneratorBranchSource gen(bench, 4000, 513);
    expectSameResult(base, simulate(*generated, gen, opt));

    PredictorPtr file = makePredictor(GetParam());
    FileBranchSource round_tripped(path, 257);
    expectSameResult(base, simulate(*file, round_tripped, opt));
}

INSTANTIATE_TEST_SUITE_P(AllSpecs, StreamingSpecEquivalence,
                         ::testing::ValuesIn(knownSpecs()));

// ---------------------------------------------------------------------
// Chunk-boundary edge cases.
// ---------------------------------------------------------------------

TEST(StreamingChunks, BoundaryCasesMatchWholeTracePass)
{
    const Trace trace = generateTrace(findBenchmark("CLIENT02"), 5000);
    struct Case
    {
        std::size_t chunk;
        std::uint64_t warmup;
    };
    const std::vector<Case> cases = {
        {1, 0},                  // chunk size 1
        {trace.size() + 100, 0}, // chunk larger than the whole trace
        {64, 100},               // warm-up ends inside the second chunk
        {64, 64},                // warm-up ends exactly on a boundary
        {64, trace.size() + 5},  // warm-up longer than the stream
    };
    for (const Case &c : cases) {
        SimOptions opt;
        opt.warmupBranches = c.warmup;
        opt.collectPerPc = true;
        PredictorPtr a = makePredictor("tage-gsc");
        const SimResult whole = simulate(*a, trace, opt);
        PredictorPtr b = makePredictor("tage-gsc");
        TraceBranchSource chunked(trace, c.chunk);
        const SimResult streamed = simulate(*b, chunked, opt);
        expectSameResult(whole, streamed);
        if (c.warmup >= trace.size())
            EXPECT_EQ(streamed.conditionals, 0u);
    }
}

// ---------------------------------------------------------------------
// simulateMany: single-pass multi-predictor == N independent passes.
// ---------------------------------------------------------------------

TEST(SimulateMany, MatchesIndependentRunsPerPredictor)
{
    const std::vector<std::string> specs = {"bimodal", "gshare", "tage-gsc",
                                            "tage-gsc+i", "gehl+i"};
    const BenchmarkSpec bench = findBenchmark("SPEC2K6-04");

    std::vector<PredictorPtr> owners;
    std::vector<ConditionalPredictor *> raw;
    for (const std::string &s : specs) {
        owners.push_back(makePredictor(s));
        raw.push_back(owners.back().get());
    }
    GeneratorBranchSource source(bench, 9000, 777);
    const std::vector<SimResult> many = simulateMany(raw, source);
    ASSERT_EQ(many.size(), specs.size());

    for (std::size_t i = 0; i < specs.size(); ++i) {
        PredictorPtr lone = makePredictor(specs[i]);
        GeneratorBranchSource fresh(bench, 9000, 4096);
        expectSameResult(simulate(*lone, fresh), many[i]);
    }
}

// ---------------------------------------------------------------------
// Shared fold bank: the immediate-engine hosts of one pass follow one
// pass-level bank and still end exactly where running alone leaves them.
// ---------------------------------------------------------------------

namespace
{

/** The mix: sweep-dse's eight points plus every kind that must not share. */
std::vector<std::string>
sharedBankMix()
{
    std::vector<std::string> specs;
    for (const char *sic : {"8", "9", "10", "11"})
        for (const char *gsc : {"9", "10"})
            specs.push_back(std::string("tage-gsc+i@sic.logsize=") + sic +
                            ",gsc.logsize=" + gsc);
    for (const char *other : {"tage-gsc", "gehl+i", "tage-gsc+i@sim.delay=63",
                              "meta(tage-gsc,gshare)"})
        specs.push_back(other);
    return specs;
}

/**
 * Each of @p specs run alone over @p trace on its spec's engine (the
 * first one warmed over @p warmup beforehand, when given) matches its
 * copy in @p shared: the same result @p many holds, the same state.
 */
void
expectEachMatchesItsLoneRun(const std::vector<std::string> &specs,
                            const std::vector<PredictorPtr> &shared,
                            const std::vector<SimResult> &many,
                            const Trace &trace, const Trace *warmup)
{
    const Trace more = generateTrace(findBenchmark("MM-4"), 3000);
    for (std::size_t i = 0; i < specs.size(); ++i) {
        const ParsedSpec parsed = parseSpec(specs[i]);
        PredictorPtr lone = makePredictor(parsed);
        if (warmup != nullptr && i == 0)
            (void)simulate(*lone, *warmup);
        TraceBranchSource source(trace);
        expectSameResult(simulate(*lone, source,
                                  applySpecDelay(parsed, SimOptions())),
                         many[i]);
        EXPECT_EQ(lone->stateDigest(), shared[i]->stateDigest()) << specs[i];

        // The state left behind is the lone run's too: both go on over
        // a second stream, on the pipeline engine (checkpoints and
        // restores of the fold bank) for the hosts.
        SimOptions next;
        next.updateDelay = 8;
        expectSameResult(simulate(*lone, more, next),
                         simulate(*shared[i], more, next));
        EXPECT_EQ(lone->stateDigest(), shared[i]->stateDigest()) << specs[i];
    }
}

} // anonymous namespace

TEST(SharedFoldBank, HostSlotsAreDeduplicated)
{
    for (const char *spec : {"tage-gsc", "tage-gsc+i"}) {
        PredictorPtr p = makePredictor(spec);
        ASSERT_NE(p->foldBank(), nullptr) << spec;
        EXPECT_EQ(p->foldBank()->foldCount(), 41u) << spec;
        EXPECT_EQ(p->foldBank()->slotCount(), 36u) << spec;
    }
    EXPECT_EQ(makePredictor("gshare")->foldBank(), nullptr);
    EXPECT_EQ(makePredictor("meta(tage-gsc,gshare)")->foldBank(), nullptr);
}

TEST(SharedFoldBank, MixedPassMatchesLoneRunsAtAnOddChunkSize)
{
    const std::vector<std::string> specs = sharedBankMix();
    const Trace trace = generateTrace(findBenchmark("SPEC2K6-12"), 7000);
    std::vector<PredictorPtr> predictors;
    std::vector<SimOptions> options;
    for (const std::string &s : specs) {
        const ParsedSpec parsed = parseSpec(s);
        predictors.push_back(makePredictor(parsed));
        options.push_back(applySpecDelay(parsed, SimOptions()));
        options.back().collectPerPc = true;
    }
    // 1000-record chunks: the 256-record sub-spans straddle chunk ends.
    TraceBranchSource source(trace, 1000);
    std::vector<SimResult> many = simulateMany(predictors, source, options);
    ASSERT_EQ(many.size(), specs.size());
    for (const PredictorPtr &p : predictors)
        if (p->foldBank() != nullptr)
            EXPECT_FALSE(p->foldBank()->following());
    for (SimResult &r : many)
        r.perPcMispredictions.clear(); // the lone runs do not collect
    expectEachMatchesItsLoneRun(specs, predictors, many, trace, nullptr);
}

TEST(SharedFoldBank, WarmedPredictorKeepsItsOwnBank)
{
    // The first predictor already ran over another stream: its history
    // is not the pass's, so it must not follow, and the rest still
    // share among themselves.
    const std::vector<std::string> specs = sharedBankMix();
    const Trace warmup = generateTrace(findBenchmark("WS03"), 2000);
    const Trace trace = generateTrace(findBenchmark("SPEC2K6-12"), 5000);
    std::vector<PredictorPtr> predictors;
    std::vector<SimOptions> options;
    for (const std::string &s : specs) {
        const ParsedSpec parsed = parseSpec(s);
        predictors.push_back(makePredictor(parsed));
        options.push_back(applySpecDelay(parsed, SimOptions()));
    }
    (void)simulate(*predictors[0], warmup);
    TraceBranchSource source(trace, 1000);
    const std::vector<SimResult> many =
        simulateMany(predictors, source, options);
    expectEachMatchesItsLoneRun(specs, predictors, many, trace, &warmup);
}

namespace
{

/**
 * A host-shaped predictor that checks, at every predict(), that its
 * folds read the values a from-scratch recompute gives, and records
 * whether it was following a pass bank at the time.
 */
class FoldProbePredictor : public ConditionalPredictor
{
  public:
    explicit FoldProbePredictor(std::vector<std::pair<unsigned, unsigned>>
                                    shapes)
        : hist(1024), shapes(std::move(shapes))
    {
        for (const auto &[length, width] : this->shapes)
            ids.push_back(hist.createFold(length, width));
    }

    bool predict(std::uint64_t pc) override
    {
        followed += hist.following();
        for (std::size_t i = 0; i < ids.size(); ++i) {
            FoldedHistory ref(shapes[i].first, shapes[i].second);
            ref.recompute(hist.history());
            wrong += hist.foldValue(ids[i]) != ref.value();
        }
        return (pc & 4) != 0;
    }
    void update(std::uint64_t pc, bool taken, std::uint64_t) override
    {
        hist.push(pushedHistoryBit(BranchType::CondDirect, taken), pc);
    }
    void trackOtherInst(std::uint64_t pc, BranchType type, bool taken,
                        std::uint64_t) override
    {
        hist.push(pushedHistoryBit(type, taken), pc);
    }
    HistoryManager *foldBank() override { return &hist; }
    std::string name() const override { return "fold-probe"; }
    StorageAccount storage() const override { return StorageAccount(); }

    HistoryManager hist;
    std::vector<std::pair<unsigned, unsigned>> shapes;
    std::vector<int> ids;
    std::uint64_t followed = 0;
    std::uint64_t wrong = 0;
};

} // anonymous namespace

TEST(SharedFoldBank, FollowersReadTheirOwnFoldsFromThePassBank)
{
    FoldProbePredictor a({{37, 9}, {200, 11}, {5, 12}});
    FoldProbePredictor b({{200, 11}, {64, 7}, {37, 9}, {1, 1}});
    PredictorPtr host = makePredictor("tage-gsc");
    const Trace trace = generateTrace(findBenchmark("MM-4"), 3000);
    TraceBranchSource source(trace, 700);
    const std::vector<SimResult> many =
        simulateMany(std::vector<ConditionalPredictor *>{&a, &b, host.get()},
                     source);
    EXPECT_EQ(a.followed, many[0].conditionals);
    EXPECT_EQ(b.followed, many[1].conditionals);
    EXPECT_EQ(a.wrong, 0u);
    EXPECT_EQ(b.wrong, 0u);
    EXPECT_FALSE(a.hist.following());

    // Alone, a predictor keeps its own bank.
    FoldProbePredictor alone({{37, 9}});
    TraceBranchSource again(trace, 700);
    (void)simulate(alone, again);
    EXPECT_EQ(alone.followed, 0u);
    EXPECT_EQ(alone.wrong, 0u);
}

TEST(SimulateMany, EmptyPredictorListIsSafe)
{
    GeneratorBranchSource source(findBenchmark("WS03"), 2000);
    EXPECT_TRUE(
        simulateMany(std::vector<ConditionalPredictor *>{}, source).empty());
}

// ---------------------------------------------------------------------
// Suite runner: the streamed single-pass engine reproduces a fully
// materialized reference run cell for cell, at any worker count.
// ---------------------------------------------------------------------

namespace
{

/** The pre-streaming engine, inlined as the reference: materialize each
 *  benchmark, then simulate every config over the shared trace. */
SuiteResults
materializedReference(const std::vector<BenchmarkSpec> &benchmarks,
                      const std::vector<std::string> &configs,
                      std::size_t branches, const SimOptions &sim)
{
    SuiteResults results;
    results.configs = configs;
    for (const BenchmarkSpec &spec : benchmarks) {
        const Trace trace = generateTrace(spec, branches);
        for (const std::string &config : configs) {
            PredictorPtr predictor = makePredictor(config);
            const SimResult r = simulate(*predictor, trace, sim);
            SuiteCell cell;
            cell.benchmark = spec.name;
            cell.suite = spec.suite;
            cell.config = config;
            cell.mpki = r.mpki();
            cell.mispredictions = r.mispredictions;
            cell.conditionals = r.conditionals;
            cell.instructions = r.instructions;
            results.cells.push_back(cell);
        }
    }
    return results;
}

} // anonymous namespace

TEST(StreamingSuiteRunner, ByteIdenticalToMaterializedAtAnyJobCount)
{
    const std::vector<BenchmarkSpec> benchmarks = {
        findBenchmark("MM-4"), findBenchmark("WS03"),
        findBenchmark("SPEC2K6-04"), findBenchmark("CLIENT02")};
    const std::vector<std::string> configs = {"bimodal", "gshare",
                                              "tage-gsc+i"};
    const SuiteResults reference =
        materializedReference(benchmarks, configs, 8000, SimOptions());

    for (unsigned jobs : {1u, 2u, 4u, 8u}) {
        SuiteRunOptions opt;
        opt.branchesPerTrace = 8000;
        opt.jobs = jobs;
        opt.chunkBranches = 1000; // force several chunks per benchmark
        const SuiteResults streamed = runSuite(benchmarks, configs, opt);
        expectBitIdentical(reference, streamed);
    }
}

TEST(StreamingSuiteRunner, SimOptionsPlumbThrough)
{
    const std::vector<BenchmarkSpec> benchmarks = {findBenchmark("WS03")};
    const std::vector<std::string> configs = {"tage-gsc"};

    SimOptions warm;
    warm.warmupBranches = 2000;
    SuiteRunOptions opt;
    opt.branchesPerTrace = 6000;
    opt.sim = warm;
    const SuiteResults warmed = runSuite(benchmarks, configs, opt);
    expectBitIdentical(materializedReference(benchmarks, configs, 6000,
                                             warm),
                       warmed);

    // Warm-up really skips grading: fewer counted instructions than the
    // cold run over the same stream.
    opt.sim = SimOptions();
    const SuiteResults cold = runSuite(benchmarks, configs, opt);
    EXPECT_LT(warmed.cells[0].instructions, cold.cells[0].instructions);
    EXPECT_LT(warmed.cells[0].conditionals, cold.cells[0].conditionals);
}

TEST(StreamingSuiteRunner, ResidentTraceMemoryIsChunkBoundPerWorker)
{
    // The acceptance criterion for the streaming refactor: during a suite
    // run the engine must never hold a materialized trace.  The generator
    // sources account every buffered record globally; the high-water mark
    // over the whole run must stay at workers x O(chunk), far below even
    // one benchmark's full trace.
    const std::vector<BenchmarkSpec> benchmarks = {
        findBenchmark("MM07"), findBenchmark("SPEC2K6-12"),
        findBenchmark("WS04"), findBenchmark("SERVER-1")};
    const std::vector<std::string> configs = {"bimodal", "gshare"};

    SuiteRunOptions opt;
    opt.branchesPerTrace = 60000;
    opt.chunkBranches = 2048;
    opt.jobs = 2;

    GeneratorBranchSource::resetPeakLiveRecords();
    const SuiteResults r = runSuite(benchmarks, configs, opt);
    ASSERT_EQ(r.cells.size(), benchmarks.size() * configs.size());

    // Per live source: chunk + at most one boundary-crossing kernel round
    // (bounded well under 8192 records).  Anything near 60000 would mean
    // a benchmark got materialized.
    const std::uint64_t per_worker_bound = 2048 + 8192;
    EXPECT_LE(GeneratorBranchSource::peakLiveRecords(),
              opt.jobs * per_worker_bound);
    EXPECT_LT(GeneratorBranchSource::peakLiveRecords(),
              opt.branchesPerTrace);
}

// ---------------------------------------------------------------------
// Mixed generated + recorded suites: the multi-backend scheduler must
// stay bit-identical at any worker count, and the recorded cells must
// match a direct simulation of their trace files.
// ---------------------------------------------------------------------

namespace
{

/** Generated members plus the full recorded suite from tests/data. */
std::vector<BenchmarkSpec>
mixedSuite()
{
    std::vector<BenchmarkSpec> benchmarks = {
        findBenchmark("MM-4"), findBenchmark("WS03"),
        findBenchmark("SPEC2K6-04")};
    for (BenchmarkSpec &rec : recordedSuite(IMLI_TEST_DATA_DIR))
        benchmarks.push_back(std::move(rec));
    return benchmarks;
}

} // anonymous namespace

TEST(MixedSuiteRunner, BitIdenticalAcrossJobCounts)
{
    const std::vector<BenchmarkSpec> benchmarks = mixedSuite();
    const std::vector<std::string> configs = {"bimodal", "tage-gsc+i"};

    SuiteRunOptions opt;
    opt.branchesPerTrace = 6000;
    opt.chunkBranches = 1000; // several chunks per benchmark, both paths
    opt.jobs = 1;
    const SuiteResults reference = runSuite(benchmarks, configs, opt);
    ASSERT_EQ(reference.cells.size(), benchmarks.size() * configs.size());

    for (unsigned jobs : {2u, 4u, 8u}) {
        opt.jobs = jobs;
        expectBitIdentical(reference, runSuite(benchmarks, configs, opt));
    }
}

TEST(MixedSuiteRunner, RecordedCellsMatchDirectFileSimulation)
{
    const std::vector<BenchmarkSpec> benchmarks = mixedSuite();
    const std::vector<std::string> configs = {"tage-gsc"};
    SuiteRunOptions opt;
    opt.branchesPerTrace = 6000;
    opt.jobs = 2;
    const SuiteResults results = runSuite(benchmarks, configs, opt);

    for (const BenchmarkSpec &spec : benchmarks) {
        if (spec.backend != TraceBackend::RecordedCbp)
            continue;
        PredictorPtr predictor = makePredictor("tage-gsc");
        CbpFileBranchSource source(spec.tracePath, spec.name);
        const SimResult direct = simulate(*predictor, source);
        const SuiteCell &cell = results.at(spec.name, "tage-gsc");
        EXPECT_EQ(cell.suite, "REC");
        EXPECT_EQ(cell.mispredictions, direct.mispredictions) << spec.name;
        EXPECT_EQ(cell.conditionals, direct.conditionals) << spec.name;
        EXPECT_EQ(cell.instructions, direct.instructions) << spec.name;
    }
}

TEST(MixedSuiteRunner, RecordedCellsMatchTheirGeneratingSpecs)
{
    // The recorded files were synthesized from recordedScenarios(): a
    // suite run that replays the files must produce the exact cells of a
    // run that generates the same specs on the fly.  This closes the
    // loop between the two backends end to end.
    const std::vector<std::string> configs = {"tage-gsc+i"};
    SuiteRunOptions opt;
    opt.branchesPerTrace = recordedScenarioBranches;
    const SuiteResults replayed =
        runSuite(recordedSuite(IMLI_TEST_DATA_DIR), configs, opt);
    const SuiteResults generated =
        runSuite(recordedScenarios(), configs, opt);
    expectBitIdentical(generated, replayed);
}

TEST(MixedSuiteRunner, BrokenRecordedSpecFailsBeforeAnySimulation)
{
    std::vector<BenchmarkSpec> benchmarks = {findBenchmark("WS03")};
    benchmarks.push_back(
        makeRecordedBenchmark("REC-GONE", "REC", "/nonexistent/gone.cbp"));

    SuiteRunOptions opt;
    opt.branchesPerTrace = 2000;
    bool progressed = false;
    opt.progress = [&](const std::string &, std::size_t) {
        progressed = true;
    };
    EXPECT_THROW(runSuite(benchmarks, {"bimodal"}, opt),
                 std::runtime_error);
    EXPECT_FALSE(progressed) << "validation must precede simulation";
}
