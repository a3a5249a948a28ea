/**
 * @file
 * Tests of the end-to-end benchmark itself: the tail rule, the failure
 * accounting, seeding, the timing decorators and a smoke-size run of
 * every workload.  Build and run with `python3 e2e_bench/run.py
 * --selftest`.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <set>
#include <sstream>

#include "src/corpus/trace_corpus.hh"
#include "src/predictors/zoo.hh"
#include "src/sim/simulator.hh"
#include "src/workloads/suite.hh"
#include "timing.hh"
#include "workloads.hh"

namespace
{

using namespace e2e;

const std::string kRecorded = std::string(E2E_ROOT) + "/tests/data";

TEST(TailRule, FourRoundsReachEveryWorkloadsTailPercentile)
{
    EXPECT_EQ(samplesBeyond(80, 85), 12u);
    EXPECT_EQ(samplesBeyond(80, 90), 8u);
    EXPECT_EQ(samplesBeyond(1000, 99.9), 1u);

    for (const Workload &w : workloads())
        EXPECT_GE(samplesBeyond(4 * w.expectedMembers, w.tailPercentile),
                  kTailBeyond)
            << w.name;
}

TEST(TailRule, NearestRankValues)
{
    std::vector<double> v;
    for (int i = 1; i <= 80; ++i)
        v.push_back(i);
    EXPECT_EQ(percentile(v, 85), 68.0);
    EXPECT_EQ(percentile(v, 50), 40.0);
    EXPECT_EQ(median(v), 40.5);
    EXPECT_EQ(median({3.0, 1.0, 2.0}), 2.0);
}

/** A 4-benchmark x 2-config input set with self-consistent cells. */
struct Fixture
{
    Inputs inputs;
    std::vector<imli::SuiteCell> cells;

    Fixture()
    {
        inputs.configs = {"tage-gsc", "tage-gsc+i"};
        for (int b = 0; b < 4; ++b) {
            imli::BenchmarkSpec spec;
            spec.name = "B" + std::to_string(b);
            inputs.benchmarks.push_back(spec);
            for (int c = 0; c < 2; ++c) {
                imli::SuiteCell cell;
                cell.suite = "CBP4";
                cell.benchmark = spec.name;
                cell.config = inputs.configs[c];
                cell.mispredictions = 100 + b * 10 + c;
                cell.conditionals = 1000 + b;
                cell.instructions = 5000 + b;
                cells.push_back(cell);
            }
        }
    }
};

TEST(FailRatio, OneCorruptReferenceCellIsOneOverN)
{
    Fixture f;
    std::vector<imli::SuiteCell> corrupt = f.cells;
    EXPECT_EQ(checkCells(f.cells, f.inputs, Reference(corrupt), Reference(),
                         nullptr)
                  .failed,
              0u);

    corrupt[5].mispredictions += 1;
    const CheckResult r =
        checkCells(f.cells, f.inputs, Reference(corrupt), Reference(), nullptr);
    EXPECT_EQ(r.attempted, 8u);
    EXPECT_EQ(r.failed, 1u);

    // A disagreement with an earlier round of the same inputs counts too.
    const CheckResult again =
        checkCells(f.cells, f.inputs, Reference(), Reference(), &corrupt);
    EXPECT_EQ(again.failed, 1u);
}

TEST(FailRatio, WrongMatrixThrows)
{
    Fixture f;
    std::vector<imli::SuiteCell> cells = f.cells;
    cells.pop_back();
    EXPECT_THROW(checkCells(cells, f.inputs, Reference(), Reference(),
                            nullptr),
                 std::runtime_error);
    std::swap(f.cells[0], f.cells[2]);
    EXPECT_THROW(checkCells(f.cells, f.inputs, Reference(), Reference(),
                            nullptr),
                 std::runtime_error);
}

TEST(References, CsvRoundTripsQuotedSpecs)
{
    Fixture f;
    f.cells[1].config = "tage-gsc+i@gsc.logsize=9,sic.logsize=8";
    std::ostringstream os;
    writeCellsCsv(os, f.cells);
    std::istringstream is(os.str());
    const std::vector<imli::SuiteCell> back = readCellsCsv(is);
    ASSERT_EQ(back.size(), f.cells.size());
    EXPECT_EQ(back[1].config, f.cells[1].config);
    EXPECT_EQ(back[7].mispredictions, f.cells[7].mispredictions);
}

TEST(Seeds, NewSeedChangesGeneratedStreamsOnly)
{
    std::vector<imli::BenchmarkSpec> base = {
        imli::findBenchmark("SPEC2K6-12"),
        imli::makeRecordedBenchmark("REC-01", "REC",
                                    kRecorded + "/rec-01.cbp")};
    std::vector<imli::BenchmarkSpec> same = base, other = base;
    applySeed(same, kDefaultSeed);
    applySeed(other, 7);

    const auto fp = [](const imli::BenchmarkSpec &s) {
        return imli::TraceCorpus::fingerprint(s, 20000);
    };
    EXPECT_EQ(fp(same[0]), fp(base[0]));
    EXPECT_NE(fp(other[0]), fp(base[0]));
    EXPECT_EQ(fp(other[1]), fp(base[1]));
}

/** Bare and decorated tage-gsc+i over one stream at @p delay. */
void
expectDecoratorTransparent(unsigned delay)
{
    std::vector<imli::BenchmarkSpec> spec = {
        imli::findBenchmark("SPEC2K6-12")};
    const imli::Trace trace =
        imli::drainSource(*imli::TraceCorpus::open(spec[0], 20000));
    imli::SimOptions options;
    options.updateDelay = delay;

    const imli::PredictorPtr bare = imli::makePredictor("tage-gsc+i");
    imli::TraceBranchSource bareSource(trace);
    const imli::SimResult a = imli::simulate(*bare, bareSource, options);

    TimedPredictor timed(imli::makePredictor("tage-gsc+i"));
    TimedSource timedSource(std::make_unique<imli::TraceBranchSource>(trace));
    const imli::SimResult b = imli::simulate(timed, timedSource, options);

    EXPECT_EQ(a.mispredictions, b.mispredictions);
    EXPECT_EQ(a.conditionals, b.conditionals);
    EXPECT_EQ(a.instructions, b.instructions);
    EXPECT_EQ(bare->stateDigest(), timed.stateDigest());
    EXPECT_NE(timed.stateDigest(), 0u);
    EXPECT_EQ(timedSource.calls().records, trace.size());
    EXPECT_GE(timed.calls().predict.calls, a.conditionals);
    EXPECT_EQ(timed.calls().update.calls, a.conditionals);
    if (delay == 0) {
        EXPECT_EQ(timed.calls().restore.calls, 0u);
    } else {
        EXPECT_GT(timed.calls().restore.calls, 0u);
        EXPECT_GE(timed.calls().speculate.calls, a.conditionals);
    }
}

TEST(Decorators, TransparentImmediate) { expectDecoratorTransparent(0); }
TEST(Decorators, TransparentDelay63) { expectDecoratorTransparent(63); }

TEST(Spans, SelfTimeSubtractsUnionOfChildren)
{
    SpanRecorder rec;
    {
        ScopedSpan parent(&rec, "parent");
        {
            ScopedSpan a(&rec, "child:a", parent.id());
        }
        {
            ScopedSpan b(&rec, "child:b", parent.id());
        }
    }
    const std::vector<Span> spans = rec.spans();
    const std::vector<double> self = rec.selfTimes();
    ASSERT_EQ(spans.size(), 3u);
    const double children = rec.total("child");
    EXPECT_NEAR(self[0], (spans[0].end - spans[0].start) - children, 1e-9);
    EXPECT_GE(self[0], 0.0);
}

TEST(Names, MetricNamesUseTheAllowedAlphabet)
{
    EXPECT_EQ(metricName("tage-gsc+i"), "tage-gsc_i");
    EXPECT_EQ(metricName("meta(tage-gsc,gehl,gshare)"),
              "meta_tage-gsc_gehl_gshare");
}

RunOptions
smokeOptions()
{
    RunOptions opt;
    opt.seconds = 0;
    opt.jobs = 2;
    opt.recordedDir = kRecorded;
    opt.workDir = std::filesystem::current_path().string();
    return opt;
}

TEST(Smoke, EveryWorkloadRunsCorrectWithNonZeroMetrics)
{
    for (const Workload &full : workloads()) {
        const Outcome out = measureEndToEnd(smokeVersion(full), smokeOptions());
        EXPECT_TRUE(out.correct()) << full.name;
        ASSERT_EQ(out.metrics.size(), 7u) << full.name;
        for (const Metric &m : out.metrics)
            EXPECT_GT(m.value, 0.0) << full.name << " " << m.name;
    }
}

TEST(Smoke, TracedRunReportsTheSameMetricsEverywhere)
{
    std::set<std::string> names;
    for (const Workload &full : workloads()) {
        const Outcome out = measureLayers(smokeVersion(full), smokeOptions());
        EXPECT_TRUE(out.correct()) << full.name;
        std::set<std::string> these;
        double restoreCalls = -1, constructs = -1, sweepSeconds = -1;
        for (const Metric &m : out.metrics) {
            these.insert(m.name);
            if (m.name == "sim.pipeline.restore_calls")
                restoreCalls = m.value;
            if (m.name == "predictors.constructs")
                constructs = m.value;
            if (m.name == "dse.sweep_s")
                sweepSeconds = m.value;
        }
        if (names.empty())
            names = these;
        EXPECT_EQ(these, names) << full.name;
        EXPECT_GT(constructs, 0) << full.name;
        EXPECT_EQ(restoreCalls > 0, full.updateDelay > 0) << full.name;
        EXPECT_EQ(sweepSeconds > 0, full.kind == Workload::Kind::Sweep)
            << full.name;
    }
}

} // anonymous namespace
