/**
 * @file
 * Shared implementation of the speculation contract for composed host
 * predictors (TAGE-GSC and GEHL).  Both hosts hold the same speculative
 * state — a HistoryManager, optional ImliComponents, an optional
 * LocalComponent — and must checkpoint / restore / speculate over it
 * identically; keeping the bodies here means a fix to the recovery
 * protocol cannot be applied to one host and silently missed on the
 * other (the zoo-wide checkpoint property test guards the contract, but
 * only one definition makes divergence impossible).
 */

#ifndef IMLI_SRC_PREDICTORS_HOST_SPECULATION_HH
#define IMLI_SRC_PREDICTORS_HOST_SPECULATION_HH

#include <cstdint>

#include "src/core/imli_components.hh"
#include "src/history/history_manager.hh"
#include "src/predictors/ittage_loop.hh"
#include "src/predictors/local_component.hh"
#include "src/predictors/loop_predictor.hh"
#include "src/predictors/predictor.hh"
#include "src/predictors/wormhole.hh"

namespace imli
{
namespace host_spec
{

/**
 * The loop-family speculative surface of a host: the optional loop /
 * ITTAGE-loop / wormhole side predictors (each carrying a ticketed
 * journal of in-flight iteration or outcome events) and the host's
 * current-loop PC register, which pairs wormhole lookups with the loop
 * predictor's trip count and advances at fetch like any other
 * speculative history.  Null members are simply skipped, so hosts pass
 * one struct regardless of which add-ons are enabled.
 */
struct LoopFamily
{
    LoopPredictor *loop = nullptr;
    IttageLoopPredictor *itl = nullptr;
    WormholePredictor *wh = nullptr;
    std::uint64_t *currentLoopPc = nullptr;
};

/**
 * History-buffer capacity for a host whose longest registered fold is
 * @p longest_history bits.  Restores copy fold values from snapshots,
 * but the next push after a backward restore still reads its outgoing
 * bit (fold length positions behind the restored head) from the buffer,
 * so the buffer must keep longest + deepest-restore-distance bits
 * resident — restores span at most the in-flight window
 * (kMaxSpeculationDepth records) plus the commit sandwich's own push.
 * Sizing the buffer here makes the residency invariant hold by
 * construction for every legal geometry override (maxhist up to 4096),
 * instead of silently corrupting folds when a big maxhist meets a
 * fixed 4096-bit buffer.  The 4096 floor keeps default geometries on
 * the capacity they always had.
 */
inline unsigned
historyCapacity(unsigned longest_history)
{
    const unsigned needed = longest_history + kMaxSpeculationDepth + 64;
    unsigned capacity = 4096;
    while (capacity < needed)
        capacity <<= 1;
    return capacity;
}

inline void
prepare(LocalComponent *local, unsigned max_inflight)
{
    if (local != nullptr)
        local->enableSpeculation(max_inflight);
}

inline SpecCheckpoint
checkpoint(const HistoryManager &hist, bool enable_imli,
           const ImliComponents &imli, const LocalComponent *local,
           const LoopFamily &loops = LoopFamily())
{
    SpecCheckpoint cp;
    cp.global = hist.save();
    if (enable_imli) {
        const ImliComponents::Checkpoint state = imli.save();
        cp.imliCounter = state.counter;
        cp.imliPipe = state.pipe;
        cp.omliCounter = state.omli.count;
        cp.omliTag = state.omli.innerTag;
    }
    if (local != nullptr)
        cp.localTicket = local->lastTicket();
    if (loops.loop != nullptr)
        cp.loopTicket = loops.loop->lastTicket();
    if (loops.itl != nullptr)
        cp.itlTicket = loops.itl->lastTicket();
    if (loops.wh != nullptr)
        cp.whTicket = loops.wh->lastTicket();
    if (loops.currentLoopPc != nullptr)
        cp.loopPc = *loops.currentLoopPc;
    return cp;
}

inline void
restore(HistoryManager &hist, bool enable_imli, ImliComponents &imli,
        LocalComponent *local, const SpecCheckpoint &cp,
        const LoopFamily &loops = LoopFamily())
{
    hist.restore(cp.global);
    if (enable_imli)
        imli.restore({cp.imliCounter, cp.imliPipe,
                      {cp.omliCounter, cp.omliTag}});
    if (local != nullptr)
        local->setTicketHorizon(cp.localTicket);
    if (loops.loop != nullptr)
        loops.loop->setTicketHorizon(cp.loopTicket);
    if (loops.itl != nullptr)
        loops.itl->setTicketHorizon(cp.itlTicket);
    if (loops.wh != nullptr)
        loops.wh->setTicketHorizon(cp.whTicket);
    if (loops.currentLoopPc != nullptr)
        *loops.currentLoopPc = cp.loopPc;
}

inline void
speculate(HistoryManager &hist, bool enable_imli, ImliComponents &imli,
          LocalComponent *local, std::uint64_t pc, bool pred_taken,
          std::uint64_t target, const LoopFamily &loops = LoopFamily())
{
    if (enable_imli)
        imli.speculate(pc, target, pred_taken);
    if (local != nullptr)
        local->speculate(pc, pred_taken);
    if (loops.loop != nullptr)
        loops.loop->speculate(pc, pred_taken);
    if (loops.itl != nullptr)
        loops.itl->speculate(pc, pred_taken);
    if (loops.wh != nullptr)
        loops.wh->speculate(pc, pred_taken);
    if (loops.currentLoopPc != nullptr && target < pc) {
        // Mirror of the host's commit-time current-loop transition, with
        // the predicted direction.
        if (pred_taken)
            *loops.currentLoopPc = pc;
        else if (pc == *loops.currentLoopPc)
            *loops.currentLoopPc = 0;
    }
    hist.push(pred_taken, pc);
}

inline void
squash(LocalComponent *local, const LoopFamily &loops = LoopFamily())
{
    if (local != nullptr)
        local->squashSpeculation();
    if (loops.loop != nullptr)
        loops.loop->squashSpeculation();
    if (loops.itl != nullptr)
        loops.itl->squashSpeculation();
    if (loops.wh != nullptr)
        loops.wh->squashSpeculation();
}

} // namespace host_spec
} // namespace imli

#endif // IMLI_SRC_PREDICTORS_HOST_SPECULATION_HH
