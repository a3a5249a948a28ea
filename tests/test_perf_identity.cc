/**
 * @file
 * Refactor-neutrality pins for the performance work on the hot loop:
 * the arena table layout, branchless counters and branch-light
 * selection must never move a simulated number.  The anchor is a set of
 * misprediction counts recorded from the pre-refactor binary over
 * generated and recorded benchmarks; on top of that, pipeline-engine
 * identity across jobs at several delays, and the removed sim.prefetch
 * spec key staying rejected.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/predictors/zoo.hh"
#include "src/sim/simulator.hh"
#include "src/sim/suite_runner.hh"
#include "src/workloads/benchmark_spec.hh"
#include "src/workloads/suite.hh"

using namespace imli;

namespace
{

SimOptions
pipelineOptions(unsigned delay)
{
    SimOptions opts;
    opts.updateDelay = delay;
    opts.pipeline = true;
    return opts;
}

} // anonymous namespace

// ---------------------------------------------------------------------------
// The pre-refactor anchor: pinned misprediction counts
// ---------------------------------------------------------------------------

TEST(PerfIdentity, PinnedSuiteCountsMatchPreRefactorRecording)
{
    // These counts were recorded with the binary built from the commit
    // immediately before the arena/branchless/prefetch rewrite (default
    // 200000-branch traces, jobs 1).  They pin the entire simulated
    // surface — TAGE tables, SC/SIC/OH counters, history folds — so any
    // "optimization" that moves a bit anywhere fails here, not in a
    // paper table.  Legitimate modelling changes must re-record these
    // numbers and say so; layout or scheduling changes must not.
    struct Pin
    {
        const char *benchmark;
        const char *config;
        std::uint64_t mispredictions;
        std::uint64_t conditionals;
        std::uint64_t instructions;
    };
    const Pin pins[] = {
        {"SPEC2K6-12", "tage-gsc", 18304, 210062, 1378736},
        {"SPEC2K6-12", "tage-gsc+i", 14032, 210062, 1378736},
        {"MM-4", "tage-gsc", 2740, 202826, 1339386},
        {"MM-4", "tage-gsc+i", 1735, 202826, 1339386},
        {"WS03", "tage-gsc", 7131, 210928, 1416312},
        {"WS03", "tage-gsc+i", 5632, 210928, 1416312},
        {"REC-02", "tage-gsc", 2694, 7620, 41947},
        {"REC-02", "tage-gsc+i", 1228, 7620, 41947},
    };

    std::vector<BenchmarkSpec> benchmarks = {
        findBenchmark("SPEC2K6-12"), findBenchmark("MM-4"),
        findBenchmark("WS03"),
        makeRecordedBenchmark("REC-02", "REC",
                              std::string(IMLI_TEST_DATA_DIR) +
                                  "/rec-02.cbp")};
    SuiteRunOptions options; // defaults: 200000 branches, jobs 1
    const SuiteResults results =
        runSuite(benchmarks, {"tage-gsc", "tage-gsc+i"}, options);

    for (const Pin &pin : pins) {
        const SuiteCell &cell = results.at(pin.benchmark, pin.config);
        EXPECT_EQ(cell.mispredictions, pin.mispredictions)
            << pin.benchmark << " / " << pin.config;
        EXPECT_EQ(cell.conditionals, pin.conditionals)
            << pin.benchmark << " / " << pin.config;
        EXPECT_EQ(cell.instructions, pin.instructions)
            << pin.benchmark << " / " << pin.config;
    }
}

// ---------------------------------------------------------------------------
// Pipeline-engine identity at several delays (batched commit sandwich)
// ---------------------------------------------------------------------------

TEST(PerfIdentity, PipelineBitIdenticalAcrossJobsAtDelays0And8And63)
{
    std::vector<BenchmarkSpec> benchmarks = {findBenchmark("MM-4"),
                                             findBenchmark("WS03")};
    const std::vector<std::string> configs = {"tage-gsc+i"};
    for (unsigned delay : {0u, 8u, 63u}) {
        SuiteRunOptions serial;
        serial.branchesPerTrace = 15000;
        serial.sim = pipelineOptions(delay);
        SuiteRunOptions parallel = serial;
        parallel.jobs = 4;
        const SuiteResults a = runSuite(benchmarks, configs, serial);
        const SuiteResults b = runSuite(benchmarks, configs, parallel);
        ASSERT_EQ(a.cells.size(), b.cells.size());
        for (std::size_t i = 0; i < a.cells.size(); ++i) {
            EXPECT_EQ(a.cells[i].mispredictions, b.cells[i].mispredictions)
                << "delay " << delay << " cell " << i;
            EXPECT_EQ(a.cells[i].instructions, b.cells[i].instructions)
                << "delay " << delay << " cell " << i;
        }
        if (delay == 0) {
            // The batched commit path at depth 0 stays the immediate
            // engine's bit-identity oracle.
            SuiteRunOptions immediate;
            immediate.branchesPerTrace = 15000;
            const SuiteResults c = runSuite(benchmarks, configs, immediate);
            for (std::size_t i = 0; i < a.cells.size(); ++i)
                EXPECT_EQ(a.cells[i].mispredictions,
                          c.cells[i].mispredictions);
        }
    }
}

// ---------------------------------------------------------------------------
// The removed sim.prefetch spec key
// ---------------------------------------------------------------------------

TEST(PerfIdentity, SimPrefetchIsAnUnknownSpecKey)
{
    // sim.delay is the only run-level key; a leftover sim.prefetch in a
    // spec or sweep must fail loudly, on plain and meta hosts alike.
    for (const char *spec : {"tage-gsc+i@sim.prefetch=8",
                             "meta(tage-gsc,gshare)@sim.prefetch=8"}) {
        try {
            parseSpec(spec);
            ADD_FAILURE() << spec << " parsed";
        } catch (const std::invalid_argument &e) {
            EXPECT_NE(std::string(e.what()).find("sim.prefetch"),
                      std::string::npos)
                << spec << ": " << e.what();
        }
    }
}
