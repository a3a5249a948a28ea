/**
 * @file
 * Trace-driven branch predictor simulation (paper, Section 3).
 *
 * Immediate-update simulation: predict, then resolve, per dynamic branch,
 * exactly like the CBP framework grades submissions.  Accuracy is
 * expressed as MisPredictions per Kilo Instruction (MPKI), the paper's
 * metric; the denominator comes from the instruction counts carried in
 * the trace.
 *
 * Setting SimOptions::updateDelay > 0 (or pipeline = true) swaps in the
 * speculative pipeline engine (pipeline_simulator.hh): prediction at
 * fetch, training at commit, squash-and-replay on mispredictions.  At
 * updateDelay == 0 the two engines are bit-identical.
 *
 * simulateMany shares one stream between N predictors, and on the
 * immediate engine also one fold bank: when two or more hosts expose a
 * never-pushed bank (ConditionalPredictor::foldBank()), the pass pushes
 * one bank holding every distinct fold and the hosts' managers follow
 * its per-record rows (HistoryManager::follow), walking each chunk in
 * 256-record sub-spans.  Results and final predictor state are those of
 * N independent runs.
 */

#ifndef IMLI_SRC_SIM_SIMULATOR_HH
#define IMLI_SRC_SIM_SIMULATOR_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "src/predictors/predictor.hh"
#include "src/trace/branch_source.hh"
#include "src/trace/trace.hh"

namespace imli
{

namespace obs
{
class MetricsScope;
class PhaseRecorder;
class TraceEventWriter;
} // namespace obs

/** Options for one simulation run. */
struct SimOptions
{
    /** Collect per-PC misprediction counts (top-offender reports). */
    bool collectPerPc = false;
    /**
     * Branches to run before counting (predictor warm-up).  The CBP
     * methodology counts from the first branch; 0 is the default.
     * Warm-up is symmetric: a record excluded from the misprediction
     * numerator is excluded from the instruction denominator too, and
     * both engines count by the record's fixed stream position.
     */
    std::uint64_t warmupBranches = 0;
    /**
     * In-flight window depth of the speculative pipeline engine
     * (pipeline_simulator.hh): predictor tables train only once a branch
     * is the oldest of more than updateDelay in-flight records.  Any
     * value > 0 selects the pipeline engine.
     */
    unsigned updateDelay = 0;
    /**
     * Run the pipeline engine even at updateDelay == 0 — the
     * configuration that is bit-identical to the immediate engine (the
     * regression oracle CI compares byte-for-byte).
     */
    bool pipeline = false;

    // ---- Observation hooks (src/obs; all null by default) --------------
    // Each is a borrowed pointer owned by the caller; null means the
    // corresponding observation is off, and the simulators then execute
    // the exact instruction sequence of a build without src/obs — the
    // inertness the 88-benchmark CSV identity protocol pins.

    /** Per-cell metric scope: the pipeline engine registers its squash-
     *  depth histogram here (predictor probes attach separately via
     *  ConditionalPredictor::attachProbes). */
    obs::MetricsScope *metrics = nullptr;
    /** Phase-sliced time series fed from the grading loop. */
    obs::PhaseRecorder *phase = nullptr;
    /** Chrome trace-event stream (pipeline engine only). */
    obs::TraceEventWriter *traceEvents = nullptr;

    /** True when simulation should use the pipeline engine. */
    bool usePipeline() const { return pipeline || updateDelay > 0; }
};

struct ParsedSpec;

/**
 * @p base with the run-level "sim.delay" override of @p parsed applied:
 * a spec carrying the key — an explicit sim.delay=0 included — is
 * pinned to the pipeline engine at that depth, overriding the run-level
 * engine selection (the spec label next to the numbers must stay
 * truthful).  The single definition of that rule, shared by the suite
 * runner and the DSE sweep.
 */
SimOptions applySpecDelay(const ParsedSpec &parsed, SimOptions base);

/** Aggregate result of one simulation run. */
struct SimResult
{
    std::string traceName;
    std::string predictorName;
    std::uint64_t conditionals = 0;   //!< graded conditional branches
    std::uint64_t mispredictions = 0;
    std::uint64_t instructions = 0;   //!< counted instructions

    /** Mispredictions per kilo-instruction. */
    double mpki() const;

    /** Fraction of conditional branches predicted correctly. */
    double accuracy() const;

    /** Per-PC misprediction counts (populated when requested). */
    std::map<std::uint64_t, std::uint64_t> perPcMispredictions;

    /**
     * The @p n PCs with the most mispredictions, descending; ties break
     * towards the lower PC, so the report is byte-stable across
     * platforms and standard libraries.
     */
    std::vector<std::pair<std::uint64_t, std::uint64_t>>
    topOffenders(std::size_t n) const;
};

/**
 * Run @p predictor over @p source, chunk by chunk, from the source's
 * current position to end of stream.  Peak memory is one chunk.  A
 * one-predictor simulateMany: that is the only engine dispatch.
 */
SimResult simulate(ConditionalPredictor &predictor, BranchSource &source,
                   const SimOptions &options = SimOptions());

/** Run @p predictor over an in-memory @p trace (adapter convenience). */
SimResult simulate(ConditionalPredictor &predictor, const Trace &trace,
                   const SimOptions &options = SimOptions());

/**
 * Drive every predictor over one shared stream in a single pass: each
 * chunk is produced once (one generate / decode) and then replayed
 * through all N predictors, so the stream cost is amortized N-fold while
 * every predictor still observes the exact record sequence — results are
 * bit-identical to N independent simulate() runs over the same stream.
 * Null entries in @p predictors are not allowed.
 */
std::vector<SimResult>
simulateMany(const std::vector<ConditionalPredictor *> &predictors,
             BranchSource &source, const SimOptions &options = SimOptions());

/** Convenience overload for caller-owned predictors (zoo factories). */
std::vector<SimResult>
simulateMany(const std::vector<PredictorPtr> &predictors,
             BranchSource &source, const SimOptions &options = SimOptions());

/**
 * simulateMany with per-predictor options (one entry per predictor):
 * lets one shared streamed pass mix engines and update delays — the DSE
 * sweep grammar's sim.delay dimension rides this.  Grading options may
 * differ per predictor; the record stream is decoded once regardless.
 */
std::vector<SimResult>
simulateMany(const std::vector<ConditionalPredictor *> &predictors,
             BranchSource &source, const std::vector<SimOptions> &options);

std::vector<SimResult>
simulateMany(const std::vector<PredictorPtr> &predictors,
             BranchSource &source, const std::vector<SimOptions> &options);

} // namespace imli

#endif // IMLI_SRC_SIM_SIMULATOR_HH
