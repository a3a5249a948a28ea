/**
 * @file
 * The conditional branch predictor interface (CBP-style contract).
 *
 * The simulator drives predictors exactly like the championship framework
 * drives submissions:
 *
 *   for each dynamic branch b:
 *     if b is conditional:
 *       pred = predictor.predict(b.pc)
 *       predictor.update(b.pc, b.taken, b.target)   // resolve + train
 *     else:
 *       predictor.trackOtherInst(b.pc, b.type, b.taken, b.target)
 *
 * Contract notes:
 *  - update(pc, ...) is always the next call after predict(pc) for the same
 *    dynamic branch; implementations may cache lookup state across the pair
 *    (every serious predictor does).
 *  - the immediate-update drive above is the CBP default (paper, Section 3).
 *    The pipeline simulator (src/sim/pipeline_simulator.hh) instead drives
 *    the speculation contract below: predict at fetch, speculate() the
 *    predicted outcome into the history state, and only pair predict/update
 *    at commit time inside a checkpoint()/restore() sandwich.  predict()
 *    must therefore be free of side effects on shared predictor state
 *    beyond the cached lookup pairing state (no LFSR draws, no table
 *    writes) — calling it twice from the same state must yield the same
 *    answer and leave the same state.
 */

#ifndef IMLI_SRC_PREDICTORS_PREDICTOR_HH
#define IMLI_SRC_PREDICTORS_PREDICTOR_HH

#include <cstdint>
#include <memory>
#include <string>

#include "src/history/global_history.hh"
#include "src/trace/branch_record.hh"
#include "src/util/storage.hh"

namespace imli
{

namespace obs
{
class MetricsScope;
} // namespace obs

class HistoryManager;

/**
 * The bit a host predictor pushes into its global history for a record
 * of type @p type: the outcome of a conditional branch, 1 for every
 * other branch.  The one definition of that rule, shared by the hosts'
 * update()/trackOtherInst() and the simulator's pass-level fold bank
 * (which must push exactly the bits its followers would have).
 */
inline bool
pushedHistoryBit(BranchType type, bool taken)
{
    return isConditional(type) ? taken : true;
}

/**
 * Deepest in-flight window the speculation contract supports, in
 * branches.  Bounded by checkpoint recoverability: after a restore the
 * next push reads its aged-out bit from the global-history buffer, so
 * window + longest fold length must stay resident — every predictor
 * sizes its buffer for this depth (hosts via
 * host_spec::historyCapacity() from their configured maxhist; gshare's
 * 1024 covers its 64-bit recent() ceiling).  The single source for the
 * "sim.delay" key range, the --update-delay CLI check and the pipeline
 * engine's own constructor guard.
 */
constexpr unsigned kMaxSpeculationDepth = 512;

/**
 * Snapshot of a predictor's *speculative history* state — the state the
 * paper argues must be recoverable after a misprediction (Section 2.3):
 * the global/path history head, the IMLI counter + PIPE vector (+ the
 * OMLI extension's counter/tag), and the in-flight-window ticket bounding
 * the speculative local history.  Deliberately NOT a snapshot of tables
 * or counters: those are architectural state, written at commit time, and
 * never need recovery.  A checkpoint is a few tens of bits in hardware;
 * here it is a small value type taken once per in-flight branch.
 */
struct SpecCheckpoint
{
    GlobalHistory::Checkpoint global;
    std::uint32_t imliCounter = 0;
    std::uint32_t imliPipe = 0;
    std::uint32_t omliCounter = 0;
    std::uint32_t omliTag = 0;
    /**
     * In-flight-window visibility bound for the speculative local
     * history: restore() makes entries younger than this invisible
     * (non-destructively — see ConditionalPredictor::restore).
     */
    std::uint64_t localTicket = UINT64_MAX;
    /**
     * Loop-family speculative state: the current-loop PC tracked for
     * wormhole trip-count pairing, and the visibility bounds for the
     * loop / ITTAGE-loop / wormhole speculative journals (same ticket
     * semantics as localTicket).
     */
    std::uint64_t loopPc = 0;
    std::uint64_t loopTicket = UINT64_MAX;
    std::uint64_t itlTicket = UINT64_MAX;
    std::uint64_t whTicket = UINT64_MAX;
};

/** Abstract conditional branch direction predictor. */
class ConditionalPredictor
{
  public:
    virtual ~ConditionalPredictor() = default;

    /** Predict the direction of the conditional branch at @p pc. */
    virtual bool predict(std::uint64_t pc) = 0;

    /**
     * Resolve and train on the actual outcome.  @p target is the taken
     * target (used for backward-branch detection and history updates).
     */
    virtual void update(std::uint64_t pc, bool taken,
                        std::uint64_t target) = 0;

    /**
     * Observe a non-conditional branch.  Default: no effect.  Predictors
     * with path history fold these in, as the CBP framework allows.
     */
    virtual void
    trackOtherInst(std::uint64_t pc, BranchType type, bool taken,
                   std::uint64_t target)
    {
        (void)pc;
        (void)type;
        (void)taken;
        (void)target;
    }

    /** Unused in the library; goes with e2e_bench's override of it. */
    virtual void prefetch(std::uint64_t pc) const { (void)pc; }

    /**
     * The fold bank holding this predictor's global-history folds, when
     * the immediate engine may have it follow a pass-level bank
     * (HistoryManager::follow): the predictor reads its folds only
     * through that bank and pushes it exactly once per record, with
     * pushedHistoryBit().  Default nullptr: the predictor keeps its own.
     */
    virtual HistoryManager *foldBank() { return nullptr; }

    // ---- Speculation contract (pipeline simulation) ---------------------
    //
    // The pipeline simulator drives, per conditional branch:
    //   fetch:   predict(pc); cp = checkpoint(); speculate(pc, pred, tgt)
    //   commit:  cur = checkpoint(); restore(cp); predict(pc);
    //            update(pc, taken, tgt);
    //            correct   -> restore(cur)
    //            mispredict-> squashSpeculation()   (history already
    //                          repaired: restore(cp) + update's push)
    // speculate() advances ONLY the speculative history state with the
    // predicted outcome; update() remains the one architectural trainer
    // (tables + the history push with the resolved outcome), which is
    // what makes delay-0 pipeline simulation bit-identical to the
    // immediate engine.  Recovery is a copy, as in hardware: checkpoint()
    // snapshots the speculative state (composite hosts keep their fold
    // values in a ring sized by prepareSpeculation()), and restore()
    // copies it back, whatever the distance.

    /** True when the speculation contract below is implemented. */
    virtual bool supportsSpeculation() const { return false; }

    /**
     * Size the speculative structures for up to @p max_inflight branches
     * between predict and commit (called once, before the first
     * checkpoint()): a checkpoint must stay restorable while up to
     * @p max_inflight younger branches are fetched and the commit front
     * is checkpointed.
     * Default: nothing to size.
     */
    virtual void prepareSpeculation(unsigned max_inflight)
    {
        (void)max_inflight;
    }

    /** Snapshot the speculative history state (see SpecCheckpoint). */
    virtual SpecCheckpoint checkpoint() const { return SpecCheckpoint(); }

    /**
     * Move the speculative history state to @p cp — backward for
     * misprediction recovery, forward for the commit sandwich's return to
     * the fetch front.  Non-destructive for the in-flight local-history
     * window: entries younger than cp.localTicket become invisible but
     * stay resident (a forward restore brings them back); an actual
     * squash is a separate, explicit squashSpeculation().
     */
    virtual void restore(const SpecCheckpoint &cp) { (void)cp; }

    /**
     * Fetch-side speculative step: push the *predicted* outcome of the
     * conditional branch at @p pc into the speculative history (global +
     * path history, IMLI counter/PIPE, in-flight local history).  Tables
     * are not touched.  @p target is the taken-target from the trace
     * (backward detection needs it even when predicting not-taken).
     */
    virtual void speculate(std::uint64_t pc, bool pred_taken,
                           std::uint64_t target)
    {
        (void)pc;
        (void)pred_taken;
        (void)target;
    }

    /**
     * Misprediction squash: drop every in-flight speculative local-
     * history entry and lift any restore() visibility bound.  The global
     * history needs no explicit squash — restore() already moved the
     * head, which is the paper's point.
     */
    virtual void squashSpeculation() {}

    /**
     * Debug digest of the speculation-relevant internal state (tables,
     * histories, visible speculative events).  The checkpoint/restore
     * property tests compare digests, not just predictions, so silent
     * state divergence cannot hide behind agreeing outputs.  Default 0
     * for predictors that do not participate.
     */
    virtual std::uint64_t stateDigest() const { return 0; }

    /**
     * Register this predictor's internal-event probes with @p scope
     * (see src/obs/metrics.hh).  Called at most once, before the first
     * predict(); never called when metrics are off, so a predictor that
     * was never attached carries only detached (null) probes — the
     * inertness guarantee.  Observation must never mutate predictor
     * state: stateDigest() with probes attached equals stateDigest()
     * without (pinned by test).  Default: nothing to observe.
     */
    virtual void attachProbes(obs::MetricsScope &scope) { (void)scope; }

    /** Short configuration name, e.g. "TAGE-GSC+I". */
    virtual std::string name() const = 0;

    /** Hardware budget ledger for the whole predictor. */
    virtual StorageAccount storage() const = 0;

    /** Total hardware budget in bits (the ledger's bottom line). */
    std::uint64_t storageBits() const { return storage().totalBits(); }
};

/** Convenience alias used throughout the zoo and the simulator. */
using PredictorPtr = std::unique_ptr<ConditionalPredictor>;

} // namespace imli

#endif // IMLI_SRC_PREDICTORS_PREDICTOR_HH
