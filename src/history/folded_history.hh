/**
 * @file
 * Incrementally folded history registers (the TAGE/O-GEHL idiom).
 *
 * Indexing a table with a 300-bit history requires compressing it to the
 * table's index width.  Recomputing the XOR-fold on every prediction is
 * O(length); hardware instead maintains the folded value incrementally: on
 * each new history bit, rotate the fold and XOR in the incoming bit and the
 * outgoing (aged-out) bit.  This class mirrors that structure; rollback
 * is HistoryManager's job (it snapshots fold values at each checkpoint).
 */

#ifndef IMLI_SRC_HISTORY_FOLDED_HISTORY_HH
#define IMLI_SRC_HISTORY_FOLDED_HISTORY_HH

#include <cstdint>

#include "src/history/global_history.hh"

namespace imli
{

/**
 * A circular-shift-register fold of the @p origLength most recent global
 * history bits into @p foldedWidth bits.
 */
class FoldedHistory
{
  public:
    FoldedHistory() = default;

    /**
     * @param orig_length history length being compressed
     * @param folded_width output width in bits (1..31)
     */
    FoldedHistory(unsigned orig_length, unsigned folded_width);

    /**
     * Incorporate the newest history bit; @p outgoing is the bit that just
     * aged out of the window (history position orig_length before push).
     */
    void update(bool incoming, bool outgoing);

    /** Current folded value. */
    std::uint32_t value() const { return folded; }

    /**
     * Recompute from scratch against @p hist (the reference the
     * incremental value is checked against; O(origLength)).
     */
    void recompute(const GlobalHistory &hist);

    unsigned origLength() const { return length; }
    unsigned foldedWidth() const { return width; }

  private:
    friend class HistoryManager; //!< restores snapshotted values

    std::uint32_t folded = 0;
    unsigned length = 0;       //!< compressed history length
    unsigned width = 1;        //!< output width
    unsigned outPoint = 0;     //!< position of the aged-out bit in the fold
};

} // namespace imli

#endif // IMLI_SRC_HISTORY_FOLDED_HISTORY_HH
