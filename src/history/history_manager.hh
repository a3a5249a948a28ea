/**
 * @file
 * Shared speculative history state for a composed predictor.
 *
 * A composed predictor (TAGE + statistical corrector + side predictors, or
 * GEHL + add-ons) owns exactly one HistoryManager.  It centralises the
 * global/path history and every incrementally folded compression of it, so
 * that one push keeps all folds coherent — mirroring hardware, where the
 * folded CSRs are updated in lock-step with the history shift register.
 */

#ifndef IMLI_SRC_HISTORY_HISTORY_MANAGER_HH
#define IMLI_SRC_HISTORY_HISTORY_MANAGER_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "src/history/folded_history.hh"
#include "src/history/global_history.hh"

namespace imli
{

/** Global history plus a registry of folded views kept in sync. */
class HistoryManager
{
  public:
    explicit HistoryManager(unsigned capacity = 4096) : hist(capacity) {}

    /**
     * Create a folded view of the @p orig_length most recent bits at
     * @p folded_width bits.  The returned pointer remains valid for the
     * lifetime of the manager.  @p orig_length must be >= 1, and every
     * fold must be created before the first save().
     */
    FoldedHistory *createFold(unsigned orig_length, unsigned folded_width);

    /** Append one history bit; updates every registered fold first. */
    void push(bool taken, std::uint64_t pc);

    const GlobalHistory &history() const { return hist; }

    /**
     * Size the fold-snapshot ring for up to @p max_inflight live
     * checkpoints plus the pipeline's commit-front checkpoint: a power
     * of two >= max_inflight + 2 slots.  Only grows; a manager never
     * prepared allocates a 1024-slot ring at its first save().
     */
    void prepare(unsigned max_inflight);

    /**
     * Checkpoint = global history checkpoint, plus a snapshot of every
     * fold value in the ring slot keyed by the current head.  The ring is
     * mutable state, so saving stays const (a checkpoint does not change
     * the history it describes).
     */
    GlobalHistory::Checkpoint save() const;

    /**
     * Move to @p cp — backward (misprediction recovery) or forward (the
     * pipeline simulator's commit sandwich returning to the fetch front):
     * copy the slot's fold snapshot back and move the head, O(folds)
     * regardless of distance.  Throws std::logic_error when the slot no
     * longer holds @p cp.head — the checkpoint was evicted by a younger
     * save() with the same slot, or never issued.  The caller keeps
     * |distance| within the buffer (the simulator caps the in-flight
     * window far below it).
     */
    void restore(const GlobalHistory::Checkpoint &cp);

  private:
    void allocateRing(std::size_t slots) const;

    GlobalHistory hist;
    std::vector<std::unique_ptr<FoldedHistory>> folds;

    // Fold-snapshot ring: slot (head & slotMask) holds folds.size()
    // values, tagged with the head that wrote them.
    mutable std::vector<std::uint32_t> snapValues;
    mutable std::vector<std::uint64_t> snapHead;
    mutable std::uint64_t slotMask = 0;
};

} // namespace imli

#endif // IMLI_SRC_HISTORY_HISTORY_MANAGER_HH
