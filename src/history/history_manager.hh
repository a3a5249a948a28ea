/**
 * @file
 * Shared speculative history state for a composed predictor.
 *
 * A composed predictor (TAGE + statistical corrector + side predictors, or
 * GEHL + add-ons) owns exactly one HistoryManager.  It centralises the
 * global/path history and every incrementally folded compression of it, so
 * that one push keeps all folds coherent — mirroring hardware, where the
 * folded CSRs are updated in lock-step with the history shift register.
 *
 * The folds live in one struct-of-arrays bank: parallel arrays of fold
 * value, outgoing-bit position and width, with the folds of one history
 * length in a contiguous group.  A push reads each group's outgoing bit
 * once, then updates every fold in one flat loop over the arrays; a
 * checkpoint save or restore is one copy of the value array.
 */

#ifndef IMLI_SRC_HISTORY_HISTORY_MANAGER_HH
#define IMLI_SRC_HISTORY_HISTORY_MANAGER_HH

#include <cstdint>
#include <vector>

#include "src/history/global_history.hh"

namespace imli
{

/** Global history plus a bank of folded views kept in sync. */
class HistoryManager
{
  public:
    explicit HistoryManager(unsigned capacity = 4096) : hist(capacity)
    {
        // Room for tage-gsc's 41 folds up front.  Grown one fold at a
        // time, each array would reallocate six times, and the freed
        // fragments end up pinning heap pages after the predictor is
        // gone (about +20% peak RSS on an 8-config sweep).
        for (auto *bank : {&value, &outBit, &mask, &outgoing, &slotOf})
            bank->reserve(kReservedFolds);
        groups.reserve(kReservedFolds);
    }

    /**
     * Create a folded view of the @p orig_length most recent bits at
     * @p folded_width bits (1..31) and return its id: dense from 0 in
     * creation order, valid for the lifetime of the manager.
     * @p orig_length must be in [1, capacity], and every fold must be
     * created before the first push and the first save().
     */
    int createFold(unsigned orig_length, unsigned folded_width);

    /** Current value of fold @p id (as returned by createFold). */
    std::uint32_t foldValue(int id) const { return value[slotOf[id]]; }

    /** Append one history bit; updates every fold first. */
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
     * Checkpoint = global history checkpoint, plus a snapshot of the fold
     * value array in the ring slot keyed by the current head.  The ring is
     * mutable state, so saving stays const (a checkpoint does not change
     * the history it describes).
     */
    GlobalHistory::Checkpoint save() const;

    /**
     * Move to @p cp — backward (misprediction recovery) or forward (the
     * pipeline simulator's commit sandwich returning to the fetch front):
     * copy the slot's fold snapshot back and move the head, one copy of
     * the value array regardless of distance.  Throws std::logic_error
     * when the slot no longer holds @p cp.head — the checkpoint was
     * evicted by a younger save() with the same slot, or never issued.
     * The caller keeps |distance| within the buffer (the simulator caps
     * the in-flight window far below it).
     */
    void restore(const GlobalHistory::Checkpoint &cp);

  private:
    void allocateRing(std::size_t slots) const;

    static constexpr std::size_t kReservedFolds = 64;

    /** Folds of one history length: bank slots [previous end, end). */
    struct Group
    {
        unsigned length;
        unsigned end;
    };

    GlobalHistory hist;

    // The fold bank in slot order, groups contiguous.  A fold of length L
    // and width W keeps its value, the position its aged-out history bit
    // lands on as a bit (1 << L % W) and its width as a mask.
    std::vector<std::uint32_t> value;
    std::vector<std::uint32_t> outBit;
    std::vector<std::uint32_t> mask;     //!< (1 << W) - 1
    std::vector<std::uint32_t> outgoing; //!< push(): outBit & aged-out bit
    std::vector<Group> groups;
    std::vector<std::uint32_t> slotOf; //!< fold id -> bank slot

    // Fold-snapshot ring: slot (head & slotMask) holds a copy of the
    // value array, tagged with the head that wrote it.
    mutable std::vector<std::uint32_t> snapValues;
    mutable std::vector<std::uint64_t> snapHead;
    mutable std::uint64_t slotMask = 0;
};

} // namespace imli

#endif // IMLI_SRC_HISTORY_HISTORY_MANAGER_HH
