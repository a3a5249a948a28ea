/**
 * @file
 * Tests for the speculative pipeline simulation mode: delay-0
 * bit-identity with the immediate engine, the checkpoint/restore
 * property across the predictor zoo, warm-up accounting, squash/replay
 * behaviour, mixed-engine simulateMany, suite/DSE integration of the
 * sim.delay dimension, and the MM-* delay-degradation trend.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "src/predictors/gshare.hh"
#include "src/predictors/zoo.hh"
#include "src/sim/pipeline_simulator.hh"
#include "src/sim/simulator.hh"
#include "src/sim/suite_runner.hh"
#include "src/util/rng.hh"
#include "src/workloads/benchmark_spec.hh"
#include "src/workloads/generator_source.hh"
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

/** Predictor without the speculation contract (for the rejection test). */
class ImmediateOnlyPredictor : public ConditionalPredictor
{
  public:
    bool predict(std::uint64_t) override { return true; }
    void update(std::uint64_t, bool, std::uint64_t) override {}
    std::string name() const override { return "immediate-only"; }
    StorageAccount storage() const override { return StorageAccount(); }
};

} // anonymous namespace

// ---------------------------------------------------------------------------
// Delay-0 bit-identity: the whole zoo, generated stream
// ---------------------------------------------------------------------------

TEST(PipelineIdentity, Delay0MatchesImmediateForEveryKnownSpec)
{
    for (const std::string &spec : knownSpecs()) {
        PredictorPtr immediate = makePredictor(spec);
        PredictorPtr pipelined = makePredictor(spec);
        GeneratorBranchSource s1(findBenchmark("MM-4"), 15000);
        GeneratorBranchSource s2(findBenchmark("MM-4"), 15000);

        SimOptions collect;
        collect.collectPerPc = true;
        SimOptions pipe = pipelineOptions(0);
        pipe.collectPerPc = true;

        const SimResult a = simulate(*immediate, s1, collect);
        const SimResult b = simulate(*pipelined, s2, pipe);
        ASSERT_EQ(a.conditionals, b.conditionals) << spec;
        ASSERT_EQ(a.mispredictions, b.mispredictions) << spec;
        ASSERT_EQ(a.instructions, b.instructions) << spec;
        ASSERT_EQ(a.perPcMispredictions, b.perPcMispredictions) << spec;

        // State identity, not just counter identity: both predictors
        // must answer a probe stream the same way afterwards.
        GeneratorBranchSource probe(findBenchmark("WS03"), 2000);
        for (BranchSpan chunk = probe.nextChunk(); !chunk.empty();
             chunk = probe.nextChunk()) {
            for (const BranchRecord &rec : chunk) {
                if (!isConditional(rec.type))
                    continue;
                ASSERT_EQ(immediate->predict(rec.pc),
                          pipelined->predict(rec.pc))
                    << spec;
                immediate->update(rec.pc, rec.taken, rec.target);
                pipelined->update(rec.pc, rec.taken, rec.target);
            }
        }
    }
}

TEST(PipelineIdentity, Delay0MatchesImmediateWithWarmup)
{
    // The two engines must agree on *which* records warm-up excludes,
    // not just on totals.
    for (const char *spec : {"tage-gsc+i", "gehl+i", "gshare"}) {
        PredictorPtr immediate = makePredictor(spec);
        PredictorPtr pipelined = makePredictor(spec);
        GeneratorBranchSource s1(findBenchmark("WS03"), 12000);
        GeneratorBranchSource s2(findBenchmark("WS03"), 12000);
        SimOptions warm;
        warm.warmupBranches = 3333;
        SimOptions pipe = pipelineOptions(0);
        pipe.warmupBranches = 3333;
        const SimResult a = simulate(*immediate, s1, warm);
        const SimResult b = simulate(*pipelined, s2, pipe);
        EXPECT_EQ(a.conditionals, b.conditionals) << spec;
        EXPECT_EQ(a.mispredictions, b.mispredictions) << spec;
        EXPECT_EQ(a.instructions, b.instructions) << spec;
    }
}

TEST(PipelineIdentity, Delay0MatchesImmediateAtExtremeHistoryGeometry)
{
    // Regression: with maxhist at the grammar ceiling (4096), the push
    // after a backward restore reads its aged-out bit fold-length bits
    // behind the restored head, so fold-length + restore-distance bits
    // must stay resident; a fixed 4096-bit buffer once served an
    // already-overwritten slot and broke delay-0 identity.  Hosts now
    // size their buffer from the configured geometry.
    for (const char *spec :
         {"tage-gsc@tage.maxhist=4096", "gehl@gsc.maxhist=4096",
          "tage-gsc+i+l@gsc.maxhist=2048,tage.maxhist=3600"}) {
        PredictorPtr immediate = makePredictor(spec);
        PredictorPtr pipelined = makePredictor(spec);
        GeneratorBranchSource s1(findBenchmark("MM-1"), 20000);
        GeneratorBranchSource s2(findBenchmark("MM-1"), 20000);
        const SimResult a = simulate(*immediate, s1);
        const SimResult b = simulate(*pipelined, s2, pipelineOptions(0));
        EXPECT_EQ(a.mispredictions, b.mispredictions) << spec;
        EXPECT_EQ(a.conditionals, b.conditionals) << spec;
        // And a deep window at the same geometry must run (the folds
        // stay exact; pinned indirectly by the identity above plus the
        // restore-vs-recompute property tests in test_history).
        PredictorPtr deep = makePredictor(spec);
        GeneratorBranchSource s3(findBenchmark("MM-1"), 20000);
        const SimResult c = simulate(*deep, s3, pipelineOptions(64));
        EXPECT_EQ(c.conditionals, a.conditionals) << spec;
    }
}

// ---------------------------------------------------------------------------
// Checkpoint/restore property across the zoo
// ---------------------------------------------------------------------------

TEST(CheckpointProperty, RestoreAfterRandomSpeculationIsBitIdentical)
{
    // For every zoo predictor: warm two clones identically, checkpoint
    // one, wander it down K random wrong paths (speculative history
    // only), restore + squash — and from then on the pair must be
    // indistinguishable, branch by branch, through live traffic.
    const Trace warmTrace = generateTrace(findBenchmark("MM-4"), 6000);
    const Trace liveTrace = generateTrace(findBenchmark("WS03"), 3000);
    constexpr unsigned K = 500;

    for (const std::string &spec : knownSpecs()) {
        PredictorPtr wandered = makePredictor(spec);
        PredictorPtr untouched = makePredictor(spec);
        wandered->prepareSpeculation(K + 1);

        for (const BranchRecord &rec : warmTrace.branches()) {
            for (ConditionalPredictor *p :
                 {wandered.get(), untouched.get()}) {
                if (isConditional(rec.type)) {
                    (void)p->predict(rec.pc);
                    p->update(rec.pc, rec.taken, rec.target);
                } else {
                    p->trackOtherInst(rec.pc, rec.type, rec.taken,
                                      rec.target);
                }
            }
        }

        const SpecCheckpoint cp = wandered->checkpoint();
        Xoroshiro128 rng(0xf00d + warmTrace.size());
        for (unsigned i = 0; i < K; ++i) {
            const std::uint64_t pc = 0x4000 + 2 * rng.below(512);
            const bool backward = rng.bernoulli(0.5);
            const std::uint64_t target =
                backward ? pc - 64 - 2 * rng.below(64)
                         : pc + 64 + 2 * rng.below(64);
            if (rng.bernoulli(0.15))
                wandered->trackOtherInst(pc, BranchType::UncondDirect,
                                         true, target);
            else
                wandered->speculate(pc, rng.bernoulli(0.5), target);
        }
        wandered->restore(cp);
        wandered->squashSpeculation();

        // Internal-state equality, not just answer equality: the debug
        // digest covers table contents, LFSRs, journals and the scalar
        // loop-family fetch state (currentLoopPc), so a speculate() that
        // leaked an architectural write fails here even if the next few
        // predictions happen to agree.
        ASSERT_EQ(wandered->stateDigest(), untouched->stateDigest())
            << spec << ": digest differs after restore + squash";

        for (const BranchRecord &rec : liveTrace.branches()) {
            if (isConditional(rec.type)) {
                ASSERT_EQ(wandered->predict(rec.pc),
                          untouched->predict(rec.pc))
                    << spec;
                wandered->update(rec.pc, rec.taken, rec.target);
                untouched->update(rec.pc, rec.taken, rec.target);
            } else {
                wandered->trackOtherInst(rec.pc, rec.type, rec.taken,
                                         rec.target);
                untouched->trackOtherInst(rec.pc, rec.type, rec.taken,
                                          rec.target);
            }
        }

        ASSERT_EQ(wandered->stateDigest(), untouched->stateDigest())
            << spec << ": digest diverged through live traffic";
    }
}

// ---------------------------------------------------------------------------
// Pipeline accounting and recovery behaviour
// ---------------------------------------------------------------------------

TEST(PipelineSim, WarmupAccountingComputedByHand)
{
    // Scripted four-record trace on a real (gshare) predictor, warm-up 2:
    // only records 2 and 3 may count, whatever the window depth.
    Trace t("tiny");
    auto add = [&t](std::uint64_t pc, std::uint64_t target, bool taken,
                    BranchType type, unsigned gap) {
        BranchRecord rec;
        rec.pc = pc;
        rec.target = target;
        rec.taken = taken;
        rec.type = type;
        rec.instsBefore = gap;
        t.append(rec);
    };
    add(0x10, 0x26, true, BranchType::CondDirect, 9);
    add(0x20, 0x36, false, BranchType::CondDirect, 9);
    add(0x30, 0x46, true, BranchType::UncondDirect, 4);
    add(0x20, 0x36, false, BranchType::CondDirect, 7);

    for (unsigned delay : {0u, 1u, 3u, 16u}) {
        GsharePredictor pred;
        TraceBranchSource source(t);
        SimOptions opts = pipelineOptions(delay);
        opts.warmupBranches = 2;
        const SimResult r = simulate(pred, source, opts);
        // Denominator: records 2 and 3 only -> (4+1) + (7+1) = 13.
        EXPECT_EQ(r.instructions, 13u) << "delay " << delay;
        // Numerator: only record 3 is a graded conditional.
        EXPECT_EQ(r.conditionals, 1u) << "delay " << delay;
        EXPECT_LE(r.mispredictions, 1u) << "delay " << delay;
        EXPECT_DOUBLE_EQ(r.mpki(),
                         1000.0 * static_cast<double>(r.mispredictions) /
                             13.0)
            << "delay " << delay;
    }
}

TEST(PipelineSim, SquashesAndReplaysHappen)
{
    PredictorPtr pred = makePredictor("tage-gsc");
    PipelineSimulator pipe(*pred, pipelineOptions(8));
    const Trace t = generateTrace(findBenchmark("MM-4"), 20000);
    for (const BranchRecord &rec : t.branches())
        pipe.onRecord(rec);
    pipe.drain();

    const PipelineStats &stats = pipe.stats();
    // Every record commits exactly once, replays notwithstanding.
    EXPECT_EQ(stats.commits, t.size());
    // A real predictor mispredicts sometimes -> squashes; a depth-8
    // window then replays shadow fetches.
    EXPECT_EQ(stats.squashes, pipe.result().mispredictions);
    EXPECT_GT(stats.squashes, 0u);
    EXPECT_GT(stats.replays, 0u);
}

TEST(PipelineSim, DeepDelayRegressionsForLoopFamilyHosts)
{
    // The loop/wormhole components pair each commit with the oldest
    // journalled fetch event; a depth-63 window keeps dozens in flight
    // across squash/replay storms, which is where an off-by-one in that
    // 1:1 pairing (or a speculate() that writes tables) surfaces as a
    // grading drift or an accuracy collapse.  The MM kernels exercise
    // both components: constant-trip inner loops for the loop predictor
    // and the inverted outer correlation for wormhole.
    for (const char *spec : {"tage-gsc+loop", "tage-gsc+sic+wh"}) {
        PredictorPtr immediate = makePredictor(spec);
        GeneratorBranchSource s0(findBenchmark("MM-4"), 30000);
        const SimResult base = simulate(*immediate, s0);

        for (unsigned delay : {8u, 16u, 63u}) {
            PredictorPtr pred = makePredictor(spec);
            PipelineSimulator pipe(*pred, pipelineOptions(delay));
            const Trace t = generateTrace(findBenchmark("MM-4"), 30000);
            for (const BranchRecord &rec : t.branches())
                pipe.onRecord(rec);
            pipe.drain();

            const SimResult r = pipe.result();
            // The grading denominators never depend on the window depth.
            ASSERT_EQ(r.conditionals, base.conditionals)
                << spec << " delay " << delay;
            ASSERT_EQ(r.instructions, base.instructions)
                << spec << " delay " << delay;
            // Every record commits exactly once; every misprediction
            // squashes exactly once.
            EXPECT_EQ(pipe.stats().commits, t.size())
                << spec << " delay " << delay;
            EXPECT_EQ(pipe.stats().squashes, r.mispredictions)
                << spec << " delay " << delay;
            // Staleness degrades accuracy gracefully; it must not
            // collapse (a broken pairing typically doubles MPKI or
            // worse as entries free/relearn on phantom mismatches).
            EXPECT_LT(r.mpki(), 2.0 * base.mpki() + 3.0)
                << spec << " delay " << delay;
        }
    }
}

TEST(PipelineSim, RejectsPredictorsWithoutSpeculationContract)
{
    ImmediateOnlyPredictor pred;
    EXPECT_THROW(PipelineSimulator(pred, pipelineOptions(4)),
                 std::invalid_argument);
    // And through the simulate() dispatch too.
    Trace t("empty-ish");
    BranchRecord rec;
    rec.pc = 0x10;
    rec.target = 0x20;
    t.append(rec);
    EXPECT_THROW(simulate(pred, t, pipelineOptions(1)),
                 std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Mixed-engine simulateMany and the suite/DSE surface
// ---------------------------------------------------------------------------

TEST(PipelineSim, PerPredictorOptionsMatchIndependentRuns)
{
    // One shared streamed pass with per-predictor engines/delays must
    // grade exactly like three independent runs.
    std::vector<PredictorPtr> shared;
    shared.push_back(makePredictor("tage-gsc+i"));
    shared.push_back(makePredictor("tage-gsc+i"));
    shared.push_back(makePredictor("tage-gsc+i"));
    std::vector<SimOptions> perPred = {SimOptions(), pipelineOptions(0),
                                       pipelineOptions(12)};
    GeneratorBranchSource sharedSource(findBenchmark("MM-1"), 20000);
    const std::vector<SimResult> together =
        simulateMany(shared, sharedSource, perPred);

    for (std::size_t i = 0; i < perPred.size(); ++i) {
        PredictorPtr lone = makePredictor("tage-gsc+i");
        GeneratorBranchSource source(findBenchmark("MM-1"), 20000);
        const SimResult alone = simulate(*lone, source, perPred[i]);
        EXPECT_EQ(together[i].mispredictions, alone.mispredictions) << i;
        EXPECT_EQ(together[i].conditionals, alone.conditionals) << i;
        EXPECT_EQ(together[i].instructions, alone.instructions) << i;
    }
    // Immediate and pipeline-at-0 agree; depth 12 differs (trained
    // later), proving the per-predictor options actually took effect.
    EXPECT_EQ(together[0].mispredictions, together[1].mispredictions);
}

TEST(PipelineSuite, SimDelaySpecKeyEqualsRunLevelFlag)
{
    // "spec@sim.delay=N" per config == --update-delay N for that config.
    std::vector<BenchmarkSpec> benchmarks = {findBenchmark("MM-4")};
    SuiteRunOptions viaSpec;
    viaSpec.branchesPerTrace = 15000;
    const SuiteResults specResults =
        runSuite(benchmarks, {"tage-gsc+i@sim.delay=16"}, viaSpec);

    SuiteRunOptions viaFlag;
    viaFlag.branchesPerTrace = 15000;
    viaFlag.sim = pipelineOptions(16);
    const SuiteResults flagResults =
        runSuite(benchmarks, {"tage-gsc+i"}, viaFlag);

    EXPECT_EQ(specResults.cells[0].mispredictions,
              flagResults.cells[0].mispredictions);
    EXPECT_EQ(specResults.cells[0].instructions,
              flagResults.cells[0].instructions);
    // The canonical spec string carries the dimension.
    EXPECT_EQ(specResults.cells[0].config, "tage-gsc+i@sim.delay=16");
    EXPECT_EQ(canonicalSpec("tage-gsc+i@sim.delay=16"),
              "tage-gsc+i@sim.delay=16");
    EXPECT_EQ(specUpdateDelay(parseSpec("tage-gsc+i@sim.delay=16")), 16u);
    EXPECT_EQ(specUpdateDelay(parseSpec("tage-gsc+i")), 0u);
}

TEST(PipelineSuite, ExplicitSimDelayZeroPinsConfigUnderRunLevelDelay)
{
    // An explicit sim.delay=0 override must pin its config to delay 0
    // even when the run-level options select a deep delay — otherwise
    // the spec label next to the numbers lies.
    std::vector<BenchmarkSpec> benchmarks = {findBenchmark("MM-4")};
    SuiteRunOptions deep;
    deep.branchesPerTrace = 15000;
    deep.sim = pipelineOptions(63);
    const SuiteResults mixed = runSuite(
        benchmarks, {"tage-gsc+i@sim.delay=0", "tage-gsc+i"}, deep);

    SuiteRunOptions plain;
    plain.branchesPerTrace = 15000;
    const SuiteResults immediate =
        runSuite(benchmarks, {"tage-gsc+i"}, plain);

    // The pinned config graded at delay 0 == the immediate engine...
    EXPECT_EQ(mixed.cells[0].mispredictions,
              immediate.cells[0].mispredictions);
    // ...while the unpinned config really ran at the run-level depth.
    EXPECT_NE(mixed.cells[1].mispredictions,
              immediate.cells[0].mispredictions);
    EXPECT_TRUE(hasSpecUpdateDelay(parseSpec("tage-gsc+i@sim.delay=0")));
    EXPECT_FALSE(hasSpecUpdateDelay(parseSpec("tage-gsc+i")));
}

TEST(PipelineSuite, PipelineSuiteBitIdenticalAcrossJobs)
{
    std::vector<BenchmarkSpec> benchmarks = {findBenchmark("MM-4"),
                                             findBenchmark("WS03"),
                                             findBenchmark("MM-1")};
    SuiteRunOptions serial;
    serial.branchesPerTrace = 10000;
    serial.sim = pipelineOptions(8);
    SuiteRunOptions parallel = serial;
    parallel.jobs = 4;

    const std::vector<std::string> configs = {"tage-gsc+i", "gshare"};
    const SuiteResults a = runSuite(benchmarks, configs, serial);
    const SuiteResults b = runSuite(benchmarks, configs, parallel);
    ASSERT_EQ(a.cells.size(), b.cells.size());
    for (std::size_t i = 0; i < a.cells.size(); ++i) {
        EXPECT_EQ(a.cells[i].mispredictions, b.cells[i].mispredictions);
        EXPECT_EQ(a.cells[i].conditionals, b.cells[i].conditionals);
        EXPECT_EQ(a.cells[i].instructions, b.cells[i].instructions);
    }
}

TEST(PipelineSuite, MaxDepthRunsAndIsBitIdenticalAcrossJobs)
{
    // At the deepest supported window every checkpoint must survive the
    // whole in-flight span in the hosts' fold-snapshot rings, including
    // the meta chooser's per-sub checkpoints.
    std::vector<BenchmarkSpec> benchmarks = {findBenchmark("MM-4"),
                                             findBenchmark("WS03")};
    SuiteRunOptions serial;
    serial.branchesPerTrace = 6000;
    serial.sim = pipelineOptions(kMaxSpeculationDepth);
    SuiteRunOptions parallel = serial;
    parallel.jobs = 4;

    const std::vector<std::string> configs = {"tage-gsc+i",
                                              "meta(tage-gsc,gshare)"};
    SuiteResults a, b;
    ASSERT_NO_THROW(a = runSuite(benchmarks, configs, serial));
    ASSERT_NO_THROW(b = runSuite(benchmarks, configs, parallel));
    ASSERT_EQ(a.cells.size(), benchmarks.size() * configs.size());
    ASSERT_EQ(a.cells.size(), b.cells.size());
    for (std::size_t i = 0; i < a.cells.size(); ++i) {
        EXPECT_GT(a.cells[i].conditionals, 0u);
        EXPECT_EQ(a.cells[i].mispredictions, b.cells[i].mispredictions);
        EXPECT_EQ(a.cells[i].conditionals, b.cells[i].conditionals);
        EXPECT_EQ(a.cells[i].instructions, b.cells[i].instructions);
    }
}

// ---------------------------------------------------------------------------
// The delay-degradation trend (acceptance: MM-* monotonicity)
// ---------------------------------------------------------------------------

TEST(PipelineTrend, AverageMpkiNonDecreasingInDelayOnMmBenchmarks)
{
    // Deeper delay -> staler tables at fetch -> accuracy gets worse on
    // the loop-structured MM kernels.  Averaged over MM benchmarks to
    // keep single-benchmark noise out; the grid starts at 8 (below
    // that the degradation is within noise — which is itself the
    // paper's delayed-update point) and stops at 16 because very deep
    // windows cross whole outer iterations, where the stale
    // outer-history bits partially realign (seen as the non-monotone
    // tail in bench_sec432_delayed_update).
    const std::vector<std::string> mm = {"MM-1", "MM-2", "MM-4"};
    double previous = -1.0;
    for (unsigned delay : {0u, 8u, 16u}) {
        double sum = 0.0;
        for (const std::string &name : mm) {
            PredictorPtr pred = makePredictor("tage-gsc+i");
            GeneratorBranchSource source(findBenchmark(name), 50000);
            sum += simulate(*pred, source, pipelineOptions(delay)).mpki();
        }
        const double avg = sum / static_cast<double>(mm.size());
        EXPECT_GE(avg, previous) << "delay " << delay;
        previous = avg;
    }
}
