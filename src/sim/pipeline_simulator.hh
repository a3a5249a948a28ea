/**
 * @file
 * Speculative pipeline simulation: an N-deep in-flight window between
 * prediction and commit, with predictor tables trained at commit time,
 * speculative history maintained via checkpoints, and squash-and-replay
 * on every misprediction — the update-timing realism the CBP-style
 * immediate-update drive (simulator.hh) abstracts away, and the setting
 * in which the paper's Section 4.3.2 delayed-update claim is made.
 *
 * Model, per dynamic branch record:
 *
 *   fetch   pred = predict(pc); cp = checkpoint();
 *           speculate(pc, pred, target)      // history sees the *guess*
 *           (non-conditionals: trackOtherInst(), as at fetch in hardware)
 *   commit  (once the record is the oldest of > updateDelay in flight)
 *           cur = checkpoint(); restore(cp);  // back to fetch-time view
 *           predict(pc);                      // re-derive pairing state
 *           update(pc, taken, target);        // train + push resolved bit
 *           correct    -> restore(cur)        // return to the fetch front
 *           mispredict -> squashSpeculation() // drop younger spec state
 *                         and re-fetch every younger in-flight record
 *                         (replay): their earlier predictions were made
 *                         in the wrong-path shadow and never commit.
 *
 * Grading happens at commit, against the prediction that survives — the
 * one hardware would actually commit.  A branch fetched in a mispredict
 * shadow is therefore graded on its post-recovery re-prediction, exactly
 * once.
 *
 * Recovery model: restore() recovers precisely the paper's speculative
 * state — global/path history head pointer, IMLI counter + PIPE, the
 * in-flight local-history visibility ticket (Sections 2.3 and 4.4).
 * Tables (TAGE/SC/SIC/OH/loop/wormhole/local histories) are architectural:
 * written only at commit, so recovery never touches them, but their fetch
 * view goes stale as the delay deepens — the loop predictor's iteration
 * counters and the wormhole histories lag by up to N branches, which is
 * the paper's hardware argument made measurable.  The commit-time
 * update() reads those tables at commit with fetch-time indices (an
 * update-queue that re-reads, as hardware read-modify-write does), so
 * training decisions use re-derived lookup state; with updateDelay == 0
 * the re-derivation happens on an unchanged predictor and the whole
 * engine is bit-identical to the immediate simulator — the property CI
 * pins over the full suite matrix.
 *
 * What is NOT modelled: wrong-path fetch (the trace is the correct path,
 * so squashed slots replay the same records), early (execute-time)
 * misprediction detection (resolution happens at commit, the worst-case
 * recovery point; MPKI is unaffected because grading is commit-side
 * either way), and fetch-block effects (one branch per fetch).
 *
 * Memory model: the simulator owns one window of updateDelay + 1 record
 * entries (record + prediction + a few-word checkpoint each) per
 * predictor — O(delay), independent of trace length, on top of the
 * streaming engine's O(chunk) residency.  Composite hosts add a ring of
 * fold-value snapshots sized for the same window (HistoryManager::
 * prepare).  A correct commit costs O(folds), independent of the
 * depth: the sandwich's checkpoint and both restores are snapshot
 * copies (see history/history_manager.hh), as hardware recovers history
 * by restoring a checkpoint, not by replaying it.  A misprediction adds
 * the re-fetch of every squashed younger record.
 */

#ifndef IMLI_SRC_SIM_PIPELINE_SIMULATOR_HH
#define IMLI_SRC_SIM_PIPELINE_SIMULATOR_HH

#include <cstdint>
#include <deque>

#include "src/obs/metrics.hh"
#include "src/predictors/predictor.hh"
#include "src/sim/simulator.hh"
#include "src/trace/branch_record.hh"

namespace imli
{

/** Pipeline-only event counters (on top of the SimResult grading). */
struct PipelineStats
{
    std::uint64_t commits = 0;   //!< records retired
    std::uint64_t squashes = 0;  //!< mispredict recoveries
    std::uint64_t replays = 0;   //!< records re-fetched after a squash
};

/**
 * Drives one predictor through the speculative pipeline model.  Feed
 * records in stream order with onRecord(), then drain() at end of
 * stream; result() carries the commit-side grading.  The predictor must
 * implement the speculation contract (ConditionalPredictor::
 * supportsSpeculation); the constructor throws std::invalid_argument
 * otherwise.
 */
class PipelineSimulator
{
  public:
    /**
     * @param predictor the predictor under test (externally owned)
     * @param options updateDelay is the window depth: a record commits
     *        once more than updateDelay records are in flight, so 0
     *        commits every record immediately after its fetch
     */
    PipelineSimulator(ConditionalPredictor &predictor,
                      const SimOptions &options);

    /** Fetch @p rec; commits every record the window depth pushes out. */
    void onRecord(const BranchRecord &rec);

    /** End of stream: commit everything still in flight. */
    void drain();

    /** Commit-side grading (same accounting as the immediate engine). */
    const SimResult &result() const { return simResult; }
    SimResult &result() { return simResult; }

    const PipelineStats &stats() const { return pipeStats; }

  private:
    struct Inflight
    {
        BranchRecord rec;
        std::uint64_t pos = 0; //!< stream position (fixed across replays)
        bool conditional = false;
        bool pred = false;
        SpecCheckpoint cp; //!< fetch-time view, taken before speculate()
    };

    void fetch(const BranchRecord &rec, std::uint64_t pos);

    /**
     * Commit oldest-first until at most @p target records are in flight.
     * Squash replays can refill the window mid-loop, but every iteration
     * retires one record for good, so the loop terminates.
     */
    void commitUntil(std::size_t target);

    ConditionalPredictor &pred;
    SimOptions opts;
    std::deque<Inflight> window;
    std::uint64_t fetchPos = 0;
    SimResult simResult;
    PipelineStats pipeStats;

    /** Squash-depth distribution (in-flight records dropped per squash);
     *  detached unless SimOptions::metrics was set at construction. */
    obs::ProbeHistogram obsSquashDepth;
};

} // namespace imli

#endif // IMLI_SRC_SIM_PIPELINE_SIMULATOR_HH
