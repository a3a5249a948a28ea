/**
 * @file
 * Tests for the speculative-state module: checkpoint-recovery equivalence
 * of the IMLI state (the paper's Section 4.2.1/4.3.2 hardware argument)
 * and the in-flight-window cost model.
 */

#include <gtest/gtest.h>

#include "src/core/imli_components.hh"
#include "src/spec/checkpoint.hh"
#include "src/spec/delayed_update.hh"
#include "src/spec/fetch_model.hh"
#include "src/util/rng.hh"
#include "src/workloads/suite.hh"

using namespace imli;

// ---------------------------------------------------------------------------
// SpeculativeImliModel: recovery equivalence property.
// ---------------------------------------------------------------------------

class SpecRecoveryProperty : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(SpecRecoveryProperty, RecoveredStateMatchesOracle)
{
    // Drive the speculative model with randomly wrong predictions over a
    // random loopy branch stream; after every branch the architectural
    // state must equal the non-speculative oracle.
    Xoroshiro128 rng(GetParam());
    SpeculativeImliModel spec;
    ImliComponents oracle;

    for (int i = 0; i < 20000; ++i) {
        const std::uint64_t pc = 0x1000 + rng.below(24) * 0x20;
        const bool backward = rng.bernoulli(0.4);
        const std::uint64_t target =
            backward ? pc - 0x100 : pc + 0x40;
        const bool actual = rng.bernoulli(0.6);
        const bool predicted =
            rng.bernoulli(0.85) ? actual : !actual; // ~15% mispredictions

        spec.onBranch(pc, target, predicted, actual);
        oracle.onResolved(pc, target, actual);

        ASSERT_EQ(spec.counter().value(), oracle.counter().value())
            << "counter diverged at step " << i;
        ASSERT_EQ(spec.outerHistory().savePipe(),
                  oracle.outerHistory().savePipe())
            << "PIPE diverged at step " << i;
    }
    EXPECT_GT(spec.recoveries(), 1000u) << "the test actually recovered";
    EXPECT_EQ(spec.checkpointsTaken(), 20000u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SpecRecoveryProperty,
                         ::testing::Values(1u, 2u, 3u, 17u, 99u));

TEST(SpecModel, CheckpointWidthMatchesPaper)
{
    SpeculativeImliModel spec;
    EXPECT_EQ(spec.checkpointBits(), 26u); // 10-bit counter + 16-bit PIPE
}

TEST(SpecModel, PerfectPredictionNeverRecovers)
{
    SpeculativeImliModel spec;
    Xoroshiro128 rng(4);
    for (int i = 0; i < 1000; ++i) {
        const bool taken = rng.bernoulli(0.5);
        spec.onBranch(0x200, 0x100, taken, taken);
    }
    EXPECT_EQ(spec.recoveries(), 0u);
}

TEST(SpecModel, DelayedTableUpdateStillConverges)
{
    // With a 63-branch table-update delay the PIPE/counter recovery is
    // unaffected (they are precise); only the table lags.
    SpeculativeImliModel::Config cfg;
    cfg.tableUpdateDelay = 63;
    SpeculativeImliModel spec(cfg);
    ImliCounter oracle(10);
    Xoroshiro128 rng(5);
    for (int i = 0; i < 5000; ++i) {
        const bool actual = rng.bernoulli(0.7);
        const bool predicted = rng.bernoulli(0.9) ? actual : !actual;
        spec.onBranch(0x300, 0x100, predicted, actual);
        oracle.onConditionalBranch(0x300, 0x100, actual);
        ASSERT_EQ(spec.counter().value(), oracle.value());
    }
}

// ---------------------------------------------------------------------------
// Fetch model: checkpoint vs in-flight search cost.
// ---------------------------------------------------------------------------

TEST(FetchModel, CountsSearchesPerConditional)
{
    const Trace t = generateTrace(findBenchmark("MM-4"), 20000);
    const SpeculationCostReport r = measureSpeculationCost(t);
    EXPECT_EQ(r.windowSearches, r.conditionalBranches);
    EXPECT_GT(r.windowEntriesVisited, r.windowSearches)
        << "associative search visits multiple entries";
    EXPECT_EQ(r.checkpointTotalBits,
              r.conditionalBranches * r.checkpointWidthBits);
}

TEST(FetchModel, CheckpointWidthVsWindowStorage)
{
    const Trace t = generateTrace(findBenchmark("WS03"), 10000);
    FetchModelConfig cfg;
    cfg.windowSize = 64;
    const SpeculationCostReport r = measureSpeculationCost(t, cfg);
    // The paper's argument: per-branch checkpoint width is tens of bits;
    // the in-flight window holds kilobits of live speculative history.
    EXPECT_LT(r.checkpointWidthBits, 64u);
    EXPECT_GT(r.windowStorageBits, 1000u);
    EXPECT_GT(r.avgEntriesPerSearch(), 4.0);
    EXPECT_LE(r.avgEntriesPerSearch(), 64.0);
    EXPECT_FALSE(r.toString().empty());
}

TEST(FetchModel, WindowSizeScalesSearchCost)
{
    const Trace t = generateTrace(findBenchmark("WS03"), 10000);
    FetchModelConfig small;
    small.windowSize = 8;
    FetchModelConfig large;
    large.windowSize = 128;
    const auto rs = measureSpeculationCost(t, small);
    const auto rl = measureSpeculationCost(t, large);
    EXPECT_LT(rs.windowEntriesVisited, rl.windowEntriesVisited);
}

// ---------------------------------------------------------------------------
// Delayed-update sweep plumbing (full experiment lives in bench/).
// ---------------------------------------------------------------------------

namespace
{

SuiteRunOptions
sweepRun(std::size_t branches, unsigned jobs = 1)
{
    SuiteRunOptions options;
    options.branchesPerTrace = branches;
    options.jobs = jobs;
    return options;
}

} // anonymous namespace

TEST(DelayedUpdate, SweepProducesOnePointPerDelay)
{
    std::vector<BenchmarkSpec> benchmarks = {findBenchmark("SPEC2K6-12")};
    const auto points =
        runDelayedUpdateSweep(benchmarks, {0, 63}, "tage-gsc", sweepRun(20000));
    ASSERT_EQ(points.size(), 2u);
    EXPECT_EQ(points[0].delay, 0u);
    EXPECT_EQ(points[1].delay, 63u);
    EXPECT_GT(points[0].mpkiCbp4, 0.0);
    // The paper's claim: delayed update is nearly free.  Even on a single
    // IMLI-heavy benchmark the loss must be small.
    EXPECT_LT(points[1].mpkiCbp4 - points[0].mpkiCbp4, 0.5);
}

TEST(DelayedUpdate, PipelineSweepPinnedAtAnyJobs)
{
    // Averages pinned bit for bit (hex-float literals): the values the
    // sweep produced when it drove its own simulateMany loop, before it
    // became a runSuite call.  Any jobs count must reproduce them.
    const std::vector<BenchmarkSpec> benchmarks = {
        findBenchmark("MM-4"), findBenchmark("SPEC2K6-12")};
    struct Pin
    {
        const char *host;
        double host0, imli0, host63, imli63;
    };
    const Pin pins[] = {
        {"tage-gsc", 0x1.9d44b119cfbf7p+2, 0x1.ccb60c57c21fep+1,
         0x1.9e3859b98ddcdp+2, 0x1.e1d62a27af33p+1},
        {"gehl", 0x1.a19ef4d7ba4dep+2, 0x1.ccd903c08410dp+1,
         0x1.9c7126f2507dcp+2, 0x1.d28787eafefa2p+1},
    };
    for (const Pin &pin : pins) {
        for (unsigned jobs : {1u, 4u}) {
            const auto points = runPipelineDelaySweep(
                benchmarks, {0, 63}, pin.host, sweepRun(5000, jobs));
            ASSERT_EQ(points.size(), 2u);
            EXPECT_EQ(points[0].delay, 0u);
            EXPECT_EQ(points[1].delay, 63u);
            EXPECT_EQ(points[0].mpkiHost, pin.host0) << pin.host << jobs;
            EXPECT_EQ(points[0].mpkiImli, pin.imli0) << pin.host << jobs;
            EXPECT_EQ(points[1].mpkiHost, pin.host63) << pin.host << jobs;
            EXPECT_EQ(points[1].mpkiImli, pin.imli63) << pin.host << jobs;
        }
    }
    EXPECT_THROW(runPipelineDelaySweep(benchmarks, {0}, "alpha21264",
                                       sweepRun(1000)),
                 std::invalid_argument);
}

TEST(DelayedUpdate, RejectsUnknownHost)
{
    std::vector<BenchmarkSpec> benchmarks = {findBenchmark("MM-4")};
    EXPECT_THROW(
        runDelayedUpdateSweep(benchmarks, {0}, "alpha21264", sweepRun(1000)),
        std::invalid_argument);
}
