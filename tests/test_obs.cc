/**
 * @file
 * Tests for the observability layer (src/obs): probe handle no-op
 * safety, scope/prefix bookkeeping, the inertness guarantee (attaching
 * probes must not change predictor state or results), metrics content
 * over a real benchmark, the phase-series recorder, the trace-event
 * writer, the pipeline squash-depth histogram, suite wall-clock
 * plumbing, and the registry's byte-stable JSON export.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/obs/metrics.hh"
#include "src/obs/phase_series.hh"
#include "src/obs/trace_event.hh"
#include "src/predictors/zoo.hh"
#include "src/sim/pipeline_simulator.hh"
#include "src/sim/simulator.hh"
#include "src/sim/suite_runner.hh"
#include "src/workloads/benchmark_spec.hh"
#include "src/workloads/generator_source.hh"
#include "src/workloads/suite.hh"

using namespace imli;
using obs::Histogram;
using obs::MetricsRegistry;
using obs::MetricsScope;
using obs::PhaseRecorder;
using obs::ProbeCounter;
using obs::ProbeHistogram;
using obs::TraceEventWriter;

// ---------------------------------------------------------------------------
// Probe handles and histograms
// ---------------------------------------------------------------------------

TEST(ObsProbe, DetachedProbesAreNoOps)
{
    ProbeCounter counter;
    EXPECT_FALSE(counter.attached());
    counter.hit();     // must not crash
    counter.add(100);  // must not crash

    ProbeHistogram hist;
    EXPECT_FALSE(hist.attached());
    hist.record(42);   // must not crash
}

TEST(ObsProbe, AttachedCounterIncrementsItsSlot)
{
    MetricsScope scope;
    ProbeCounter counter;
    counter.slot = scope.counter("x/hits");
    ASSERT_TRUE(counter.attached());
    counter.hit();
    counter.hit();
    counter.add(3);
    EXPECT_EQ(scope.counterValue("x/hits"), 5u);
}

TEST(ObsHistogram, LinearClampsToLastBucket)
{
    Histogram h(Histogram::Kind::Linear, 4);
    h.record(0);
    h.record(1);
    h.record(3);
    h.record(9);  // overflow -> last bucket
    ASSERT_EQ(h.buckets().size(), 4u);
    EXPECT_EQ(h.buckets()[0], 1u);
    EXPECT_EQ(h.buckets()[1], 1u);
    EXPECT_EQ(h.buckets()[2], 0u);
    EXPECT_EQ(h.buckets()[3], 2u);
    EXPECT_EQ(h.total(), 4u);
}

TEST(ObsHistogram, Log2FoldsGeometrically)
{
    Histogram h(Histogram::Kind::Log2, 5);
    // bucket = min(floor(log2(v + 1)), 4)
    h.record(0);    // log2(1) = 0
    h.record(1);    // log2(2) = 1
    h.record(2);    // log2(3) -> 1
    h.record(3);    // log2(4) = 2
    h.record(6);    // log2(7) -> 2
    h.record(7);    // log2(8) = 3
    h.record(1000); // clamps to 4
    EXPECT_EQ(h.buckets()[0], 1u);
    EXPECT_EQ(h.buckets()[1], 2u);
    EXPECT_EQ(h.buckets()[2], 2u);
    EXPECT_EQ(h.buckets()[3], 1u);
    EXPECT_EQ(h.buckets()[4], 1u);
}

// ---------------------------------------------------------------------------
// MetricsScope bookkeeping
// ---------------------------------------------------------------------------

TEST(ObsScope, PrefixQualifiesRegistrations)
{
    MetricsScope scope;
    scope.pushPrefix("sub0/");
    std::uint64_t *inner = scope.counter("tage/alloc");
    scope.popPrefix();
    std::uint64_t *outer = scope.counter("tage/alloc");
    ++*inner;
    ++*outer;
    ++*outer;
    EXPECT_EQ(scope.counterValue("sub0/tage/alloc"), 1u);
    EXPECT_EQ(scope.counterValue("tage/alloc"), 2u);
}

TEST(ObsScope, ReRegistrationReturnsTheSameSlot)
{
    MetricsScope scope;
    EXPECT_EQ(scope.counter("a"), scope.counter("a"));
    Histogram *h = scope.histogram("h", Histogram::Kind::Linear, 8);
    EXPECT_EQ(scope.histogram("h", Histogram::Kind::Linear, 8), h);
    // A shape mismatch is an attach-time bug, reported loudly.
    EXPECT_THROW(scope.histogram("h", Histogram::Kind::Log2, 8),
                 std::invalid_argument);
    EXPECT_THROW(scope.histogram("h", Histogram::Kind::Linear, 4),
                 std::invalid_argument);
}

TEST(ObsScope, PopPrefixOnEmptyStackThrows)
{
    MetricsScope scope;
    EXPECT_THROW(scope.popPrefix(), std::logic_error);
}

TEST(ObsScope, CounterValueOfUnknownNameIsZero)
{
    MetricsScope scope;
    EXPECT_EQ(scope.counterValue("never/registered"), 0u);
}

// ---------------------------------------------------------------------------
// Inertness: attaching probes must not perturb the simulation
// ---------------------------------------------------------------------------

TEST(ObsInertness, StateDigestAndResultsUnchangedByProbes)
{
    // Representative slice of the zoo: TAGE+SC+IMLI (the full composite
    // path), loop + ittage-loop side predictors, and the meta-chooser
    // (which fans probes out to its subs under prefixes).  The d63 +i+l
    // case runs the pipeline engine, where the local in-flight window is
    // live and its search probe fires.
    struct Case
    {
        std::string spec;
        unsigned updateDelay;
    };
    const std::vector<Case> cases = {
        {"tage-gsc+i", 0},   {"tage-gsc+i+l", 0},
        {"tage-gsc+itl", 0}, {"meta(tage-gsc,gehl,gshare)", 0},
        {"tage-gsc+i+l", 63},
    };
    for (const Case &c : cases) {
        const std::string label =
            c.spec + " d" + std::to_string(c.updateDelay);
        PredictorPtr plain = makePredictor(c.spec);
        PredictorPtr probed = makePredictor(c.spec);
        MetricsScope scope;
        probed->attachProbes(scope);

        SimOptions opts;
        opts.updateDelay = c.updateDelay;
        GeneratorBranchSource s1(findBenchmark("MM-4"), 15000);
        GeneratorBranchSource s2(findBenchmark("MM-4"), 15000);
        const SimResult a = simulate(*plain, s1, opts);
        const SimResult b = simulate(*probed, s2, opts);

        EXPECT_EQ(a.conditionals, b.conditionals) << label;
        EXPECT_EQ(a.mispredictions, b.mispredictions) << label;
        EXPECT_EQ(a.instructions, b.instructions) << label;
        EXPECT_EQ(plain->stateDigest(), probed->stateDigest()) << label;
        // The probed run did actually observe something (the composite
        // and meta paths register counters), so the equality above is
        // not vacuous.
        EXPECT_FALSE(scope.empty()) << label;
    }
}

TEST(ObsInertness, SuiteResultsIdenticalMetricsOnVsOff)
{
    const std::vector<BenchmarkSpec> benchmarks =
        selectBenchmarks(fullSuite(), {"MM-1", "WS03"});
    const std::vector<std::string> configs = {"tage-gsc", "tage-gsc+i"};

    SuiteRunOptions off;
    off.branchesPerTrace = 12000;
    const SuiteResults base = runSuite(benchmarks, configs, off);

    MetricsRegistry registry;
    registry.phaseInterval = 4000;
    SuiteRunOptions on = off;
    on.metrics = &registry;
    const SuiteResults observed = runSuite(benchmarks, configs, on);

    ASSERT_EQ(base.cells.size(), observed.cells.size());
    for (std::size_t i = 0; i < base.cells.size(); ++i) {
        EXPECT_EQ(base.cells[i].mispredictions,
                  observed.cells[i].mispredictions);
        EXPECT_EQ(base.cells[i].conditionals,
                  observed.cells[i].conditionals);
        EXPECT_EQ(base.cells[i].instructions,
                  observed.cells[i].instructions);
        EXPECT_EQ(base.cells[i].mpki, observed.cells[i].mpki);
    }
}

// ---------------------------------------------------------------------------
// Metrics content over a real benchmark
// ---------------------------------------------------------------------------

TEST(ObsContent, TageResolutionPartitionsConditionals)
{
    PredictorPtr predictor = makePredictor("tage-gsc+i");
    MetricsScope scope;
    predictor->attachProbes(scope);
    GeneratorBranchSource source(findBenchmark("MM-1"), 20000);
    const SimResult result = simulate(*predictor, source);

    // Every committed conditional resolves exactly one way: provider,
    // alt, or base.
    const std::uint64_t resolved =
        scope.counterValue("tage/resolved_provider") +
        scope.counterValue("tage/resolved_alt") +
        scope.counterValue("tage/resolved_base");
    EXPECT_EQ(resolved, result.conditionals);
    EXPECT_GT(scope.counterValue("tage/resolved_provider"), 0u);

    // Mispredictions drive allocations; MM-1 at 20k branches always
    // allocates at least once.
    EXPECT_GT(scope.counterValue("tage/alloc_success"), 0u);

    // The SC sees every conditional once: agree + disagree partition.
    const std::uint64_t sc = scope.counterValue("sc/agree") +
                             scope.counterValue("sc/disagree");
    EXPECT_EQ(sc, result.conditionals);
    // Reversals are a subset of disagreements.
    EXPECT_LE(scope.counterValue("sc/reverse"),
              scope.counterValue("sc/disagree"));

    // The IMLI counter histogram saw every conditional too.
    const auto &hists = scope.histograms();
    const auto it = hists.find("imli/count");
    ASSERT_NE(it, hists.end());
    EXPECT_EQ(it->second.total(), result.conditionals);
}

TEST(ObsContent, MetaChooserArmHistogramCoversEveryUpdate)
{
    PredictorPtr predictor = makePredictor("meta(tage-gsc,gehl,gshare)");
    MetricsScope scope;
    predictor->attachProbes(scope);
    GeneratorBranchSource source(findBenchmark("MM-4"), 15000);
    const SimResult result = simulate(*predictor, source);

    const auto it = scope.histograms().find("meta/arm");
    ASSERT_NE(it, scope.histograms().end());
    EXPECT_EQ(it->second.total(), result.conditionals);
    // Three subs: arms 3..7 must stay empty under tournament/ucb.
    for (std::size_t b = 3; b < it->second.buckets().size(); ++b)
        EXPECT_EQ(it->second.buckets()[b], 0u) << "arm " << b;
    // Sub-predictor probes land under their subN/ prefixes.
    EXPECT_GT(scope.counterValue("sub0/tage/resolved_provider") +
                  scope.counterValue("sub0/tage/resolved_base"),
              0u);
}

TEST(ObsContent, LoopAndItlConfidenceProbesFire)
{
    for (const char *spec : {"tage-gsc+i+l", "tage-gsc+itl"}) {
        PredictorPtr predictor = makePredictor(spec);
        MetricsScope scope;
        predictor->attachProbes(scope);
        GeneratorBranchSource source(findBenchmark("MM-4"), 20000);
        simulate(*predictor, source);
        const bool loop = scope.counterValue("loop/conf_up") > 0;
        const bool itl = scope.counterValue("itl/conf_up") > 0;
        EXPECT_TRUE(loop || itl)
            << spec << ": no confidence transitions observed";
    }
}

namespace
{

/** Run @p spec over MM07 at @p delay with its probes on @p scope. */
SimResult
runProbed(const std::string &spec, unsigned delay, MetricsScope &scope)
{
    PredictorPtr predictor = makePredictor(spec);
    predictor->attachProbes(scope);
    SimOptions opts;
    opts.updateDelay = delay;
    GeneratorBranchSource source(findBenchmark("MM07"), 10000);
    return simulate(*predictor, source, opts);
}

} // anonymous namespace

TEST(ObsContent, LocalWindowComparesCountTheFetchSearch)
{
    // One window search per fetched conditional: every graded branch
    // plus the re-fetches after squashes.
    MetricsScope d63;
    const SimResult r63 = runProbed("tage-gsc+l", 63, d63);
    const std::uint64_t compares63 =
        d63.counterValue("local/window_compares");
    EXPECT_GT(compares63, 0u);
    EXPECT_GT(d63.counterValue("local/window_searches"), r63.conditionals);

    // A shallower window holds fewer in-flight entries to compare.
    MetricsScope d8;
    runProbed("tage-gsc+l", 8, d8);
    EXPECT_LT(d8.counterValue("local/window_compares"), compares63);

    // The immediate engine has no in-flight window.
    MetricsScope imm;
    runProbed("tage-gsc+l", 0, imm);
    EXPECT_EQ(imm.counterValue("local/window_compares"), 0u);
    EXPECT_EQ(imm.counterValue("local/window_searches"), 0u);

    // Without a local component nothing registers under local/.
    MetricsScope imli;
    runProbed("tage-gsc+i", 63, imli);
    for (const auto &counter : imli.counters())
        EXPECT_NE(counter.first.rfind("local/", 0), 0u) << counter.first;
}

// ---------------------------------------------------------------------------
// Phase-series recorder
// ---------------------------------------------------------------------------

TEST(ObsPhase, WindowsCloseAtTheConfiguredInterval)
{
    PhaseRecorder rec(1000, nullptr);
    for (int i = 0; i < 2500; ++i)
        rec.onRecord(true, i % 10 == 0, 4);
    rec.finish();

    ASSERT_EQ(rec.windows().size(), 3u);
    EXPECT_EQ(rec.windows()[0].branches, 1000u);
    EXPECT_EQ(rec.windows()[1].branches, 1000u);
    EXPECT_EQ(rec.windows()[2].branches, 500u);
    EXPECT_EQ(rec.windows()[0].mispredictions, 100u);
    EXPECT_EQ(rec.windows()[0].instructions, 4000u);
    EXPECT_DOUBLE_EQ(rec.windows()[0].accuracy(), 0.9);
}

TEST(ObsPhase, NonConditionalRecordsCountInstructionsOnly)
{
    PhaseRecorder rec(10, nullptr);
    rec.onRecord(false, false, 7);  // a jump: instructions, no branch
    for (int i = 0; i < 10; ++i)
        rec.onRecord(true, false, 1);
    rec.finish();
    ASSERT_EQ(rec.windows().size(), 1u);
    EXPECT_EQ(rec.windows()[0].branches, 10u);
    EXPECT_EQ(rec.windows()[0].instructions, 17u);
}

TEST(ObsPhase, CounterDeltasArePerWindow)
{
    MetricsScope scope;
    std::uint64_t *slot = scope.counter("p/hits");
    PhaseRecorder rec(5, &scope);
    for (int w = 0; w < 2; ++w)
        for (int i = 0; i < 5; ++i) {
            *slot += (w + 1);  // window 0: +1 each, window 1: +2 each
            rec.onRecord(true, false, 1);
        }
    rec.finish();
    ASSERT_EQ(rec.windows().size(), 2u);
    EXPECT_EQ(rec.windows()[0].counterDeltas.at("p/hits"), 5u);
    EXPECT_EQ(rec.windows()[1].counterDeltas.at("p/hits"), 10u);
}

TEST(ObsPhase, CsvHeaderAndRowShape)
{
    MetricsScope scope;
    std::uint64_t *slot = scope.counter("x");
    PhaseRecorder rec(2, &scope);
    for (int i = 0; i < 4; ++i) {
        ++*slot;
        rec.onRecord(true, i == 0, 10);
    }
    rec.finish();
    std::ostringstream os;
    rec.writeCsv(os);
    const std::string csv = os.str();
    EXPECT_NE(csv.find("window,branches,mispredictions,instructions,"
                       "mpki,accuracy,delta:x"),
              std::string::npos)
        << csv;
    // Two windows -> header + 2 rows = 3 newline-terminated lines.
    std::size_t lines = 0;
    for (char c : csv)
        lines += c == '\n';
    EXPECT_EQ(lines, 3u);
}

// ---------------------------------------------------------------------------
// Trace-event writer
// ---------------------------------------------------------------------------

TEST(ObsTrace, EmitsWellFormedCompleteEvents)
{
    std::ostringstream os;
    {
        TraceEventWriter writer(os);
        writer.emit("fetch", "\"pc\": 64");
        writer.emit("commit", "\"pc\": 64, \"taken\": true");
        EXPECT_EQ(writer.events(), 2u);
        writer.close();
        writer.close();  // idempotent
    }
    const std::string json = os.str();
    EXPECT_EQ(json.front(), '[');
    EXPECT_EQ(json.substr(json.size() - 2), "]\n");
    EXPECT_NE(json.find("\"ph\": \"X\""), std::string::npos);
    EXPECT_NE(json.find("\"ts\": 0"), std::string::npos);
    EXPECT_NE(json.find("\"ts\": 1"), std::string::npos);
    EXPECT_NE(json.find("\"name\": \"fetch\""), std::string::npos);
    EXPECT_NE(json.find("\"args\": {\"pc\": 64, \"taken\": true}"),
              std::string::npos);
}

TEST(ObsTrace, PipelineEmitsDeterministicEventStream)
{
    const auto run = [](std::ostream &os) {
        TraceEventWriter writer(os);
        PredictorPtr predictor = makePredictor("tage-gsc+i");
        SimOptions opts;
        opts.pipeline = true;
        opts.updateDelay = 8;
        opts.traceEvents = &writer;
        GeneratorBranchSource source(findBenchmark("MM-1"), 5000);
        simulate(*predictor, source, opts);
        writer.close();
    };
    std::ostringstream a, b;
    run(a);
    run(b);
    EXPECT_FALSE(a.str().empty());
    EXPECT_EQ(a.str(), b.str());  // virtual timestamps: byte-identical
    for (const char *name : {"\"fetch\"", "\"predict\"", "\"commit\""})
        EXPECT_NE(a.str().find(name), std::string::npos) << name;
}

// ---------------------------------------------------------------------------
// Pipeline squash-depth histogram
// ---------------------------------------------------------------------------

TEST(ObsPipeline, SquashDepthHistogramTotalEqualsSquashes)
{
    MetricsScope scope;
    PredictorPtr predictor = makePredictor("tage-gsc+i");
    SimOptions opts;
    opts.pipeline = true;
    opts.updateDelay = 8;
    opts.metrics = &scope;
    PipelineSimulator pipe(*predictor, opts);

    GeneratorBranchSource source(findBenchmark("MM-4"), 15000);
    for (BranchSpan chunk = source.nextChunk(); !chunk.empty();
         chunk = source.nextChunk())
        for (const BranchRecord &rec : chunk)
            pipe.onRecord(rec);
    pipe.drain();

    const auto it = scope.histograms().find("pipeline/squash_depth");
    ASSERT_NE(it, scope.histograms().end());
    EXPECT_EQ(it->second.total(), pipe.stats().squashes);
    EXPECT_GT(pipe.stats().squashes, 0u);
}

// ---------------------------------------------------------------------------
// Suite runner plumbing: wall time, gauges, registry export
// ---------------------------------------------------------------------------

namespace
{

/** The metrics JSON of @p registry without its wall_seconds lines. */
std::string
jsonWithoutWallSeconds(const MetricsRegistry &registry,
                       std::size_t &wall_lines)
{
    std::ostringstream os;
    registry.writeJson(os);
    std::istringstream in(os.str());
    std::string kept;
    wall_lines = 0;
    for (std::string line; std::getline(in, line);) {
        if (line.find("\"wall_seconds\"") != std::string::npos)
            ++wall_lines;
        else
            kept += line + '\n';
    }
    return kept;
}

} // anonymous namespace

TEST(ObsSuite, WallClockPopulatedAndJobsRunsDifferOnlyInWallSeconds)
{
    const std::vector<BenchmarkSpec> benchmarks =
        selectBenchmarks(fullSuite(), {"MM-1", "MM-4", "WS03"});
    const std::vector<std::string> configs = {"tage-gsc+i", "gehl+i"};
    const auto run = [&](MetricsRegistry &registry) {
        registry.phaseInterval = 3000;
        SuiteRunOptions options;
        options.branchesPerTrace = 10000;
        options.jobs = 2;
        options.metrics = &registry;
        return runSuite(benchmarks, configs, options);
    };
    MetricsRegistry registry;
    const SuiteResults results = run(registry);

    EXPECT_GT(results.wallSeconds, 0.0);
    ASSERT_EQ(results.cells.size(), 6u);
    EXPECT_GT(results.cells[0].seconds, 0.0);
    ASSERT_EQ(registry.size(), 6u);
    EXPECT_GT(registry.cell(0).wallSeconds, 0.0);
    EXPECT_EQ(registry.cell(0).benchmark, "MM-1");
    EXPECT_EQ(registry.cell(0).config, "tage-gsc+i");
    ASSERT_NE(registry.cell(0).phase, nullptr);
    // 10000 branches at interval 3000: at least 3 windows closed.
    EXPECT_GE(registry.cell(0).phase->windows().size(), 3u);
    for (std::size_t w = 0;
         w + 1 < registry.cell(0).phase->windows().size(); ++w)
        EXPECT_EQ(registry.cell(0).phase->windows()[w].branches, 3000u);

    std::ostringstream os;
    registry.writeJson(os);
    const std::string json = os.str();
    EXPECT_NE(json.find("\"schema\": \"imli-metrics-1\""),
              std::string::npos);
    EXPECT_NE(json.find("\"tage/resolved_provider\""), std::string::npos);
    EXPECT_NE(json.find("\"phases\""), std::string::npos);

    // Nothing in the document depends on thread scheduling: a second
    // identical run differs in the per-cell wall_seconds lines only.
    MetricsRegistry again;
    (void)run(again);
    std::size_t wallLines = 0, wallLinesAgain = 0;
    EXPECT_EQ(jsonWithoutWallSeconds(registry, wallLines),
              jsonWithoutWallSeconds(again, wallLinesAgain));
    EXPECT_EQ(wallLines, 6u);
    EXPECT_EQ(wallLinesAgain, 6u);
}

TEST(ObsRegistry, JsonSkipsEmptySlotsAndIsDeterministic)
{
    const auto build = [](MetricsRegistry &registry) {
        registry.resize(3);
        obs::CellObs &cell = registry.cell(1);  // slots 0 and 2 stay empty
        cell.benchmark = "B";
        cell.config = "c";
        cell.wallSeconds = 1.5;
        ++*cell.scope.counter("z");
        ++*cell.scope.counter("a");
        cell.scope.histogram("h", Histogram::Kind::Linear, 2)->record(1);
        registry.setGauge("g", 2.0);
    };
    MetricsRegistry r1, r2;
    build(r1);
    build(r2);
    std::ostringstream o1, o2;
    r1.writeJson(o1);
    r2.writeJson(o2);
    EXPECT_EQ(o1.str(), o2.str());

    const std::string json = o1.str();
    // One exported cell despite three slots.
    std::size_t cells = 0;
    for (std::size_t at = json.find("\"benchmark\"");
         at != std::string::npos;
         at = json.find("\"benchmark\"", at + 1))
        ++cells;
    EXPECT_EQ(cells, 1u);
    // Sorted counter keys: "a" before "z".
    EXPECT_LT(json.find("\"a\""), json.find("\"z\""));
}
