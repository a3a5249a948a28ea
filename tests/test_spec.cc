/**
 * @file
 * Tests for the Section 4.3.2 delayed-update sweeps.  Speculative-state
 * recovery is tested on the pipeline engine itself (test_pipeline.cc).
 */

#include <gtest/gtest.h>

#include "src/spec/delayed_update.hh"
#include "src/workloads/suite.hh"

using namespace imli;

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
