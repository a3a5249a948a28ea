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
 * checkpoint save or restore is one copy of the value array.  Folds of
 * equal (length, width) evolve identically, so they share one bank slot:
 * each createFold() gets its own id, but tage-gsc's 41 folds occupy 36
 * slots.
 *
 * On the immediate engine history is a pure function of the record
 * stream, so the predictors of one simulateMany pass need not each push
 * their own bank.  In follow mode a manager reads its fold values from
 * rows of an external bank (one row per record, filled by the pass; see
 * simulator.cc) and a push only advances its GlobalHistory and the row;
 * leaving follow mode copies the last row's values back, so the manager
 * ends exactly where pushing alone would have left it.
 */

#ifndef IMLI_SRC_HISTORY_HISTORY_MANAGER_HH
#define IMLI_SRC_HISTORY_HISTORY_MANAGER_HH

#include <cassert>
#include <cstdint>
#include <utility>
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
        shapes.reserve(kReservedFolds);
        readOwnBank();
    }

    // Fold reads go through pointers into this object's own arrays.
    HistoryManager(const HistoryManager &) = delete;
    HistoryManager &operator=(const HistoryManager &) = delete;

    /**
     * Create a folded view of the @p orig_length most recent bits at
     * @p folded_width bits (1..31) and return its id: dense from 0 in
     * creation order, valid for the lifetime of the manager.  A shape
     * created before gets a new id on the existing slot.
     * @p orig_length must be in [1, capacity], and every fold must be
     * created before the first push, the first save() and follow().
     */
    int createFold(unsigned orig_length, unsigned folded_width);

    /** Current value of fold @p id (as returned by createFold). */
    std::uint32_t foldValue(int id) const { return readRow[readSlot[id]]; }

    /**
     * Append one history bit.  Updates every fold first, or in follow
     * mode moves on to the next row instead.
     */
    void push(bool taken, std::uint64_t pc);

    /** Fold ids created, and distinct folds (bank slots) among them. */
    std::size_t foldCount() const { return shapes.size(); }
    std::size_t slotCount() const { return value.size(); }

    /** The bank's own fold values in slot order (slotCount() words). */
    const std::uint32_t *slotValues() const { return value.data(); }

    /** Create here every fold of @p other that this bank lacks. */
    void createFolds(const HistoryManager &other);

    /**
     * Enter follow mode over rows of @p bank's slot values, one row per
     * push (see followRow()): foldValue(id) reads the current row's
     * word for this fold's shape, and push() moves to the next row
     * instead of updating this bank.  @p bank must hold every fold of
     * this manager (createFolds()) and be pushed with the same bits
     * from the same empty start.  No fold may be read before the first
     * followRow().  Throws std::logic_error when this manager was
     * already pushed or is already following.
     */
    void follow(const HistoryManager &bank);

    /** Follow mode: @p row holds the fold values before the next push. */
    void followRow(const std::uint32_t *row)
    {
        assert(followMode);
        readRow = row;
    }

    /**
     * Leave follow mode: the current row's values become this bank's
     * own, as if every push since follow() had updated it.
     */
    void unfollow();

    bool following() const { return followMode; }

    const GlobalHistory &history() const { return hist; }

    /**
     * Size the fold-snapshot ring for up to @p max_inflight live
     * checkpoints plus the pipeline's commit-front checkpoint: a power
     * of two >= max_inflight + 2 slots.  Only grows; a manager never
     * prepared allocates a 1024-slot ring at its first save().
     *
     * prepare(), save() and restore() throw std::logic_error in follow
     * mode: a follower's fold values are not its own to snapshot.
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
    /** (history length, folded width) of one fold. */
    using FoldShape = std::pair<unsigned, unsigned>;

    /** The slot of a fold of @p shape; slotCount() when there is none. */
    std::size_t slotFor(const FoldShape &shape) const;

    void allocateRing(std::size_t slots) const;
    void throwIfFollowing(const char *what) const;

    /** Point fold reads at this bank's own arrays. */
    void readOwnBank()
    {
        readRow = value.data();
        readSlot = slotOf.data();
    }

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
    std::vector<FoldShape> shapes;     //!< fold id -> shape

    // foldValue(id) = readRow[readSlot[id]]: this bank's values through
    // slotOf, or in follow mode the current external row through the
    // follow() columns.
    const std::uint32_t *readRow = nullptr;
    const std::uint32_t *readSlot = nullptr;
    bool followMode = false;
    std::vector<std::uint32_t> followColumns;
    std::size_t rowStride = 0;

    // Fold-snapshot ring: slot (head & slotMask) holds a copy of the
    // value array, tagged with the head that wrote it.
    mutable std::vector<std::uint32_t> snapValues;
    mutable std::vector<std::uint64_t> snapHead;
    mutable std::uint64_t slotMask = 0;
};

} // namespace imli

#endif // IMLI_SRC_HISTORY_HISTORY_MANAGER_HH
