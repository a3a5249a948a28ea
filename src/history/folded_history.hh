/**
 * @file
 * The reference oracle for folded history registers (the TAGE/O-GEHL
 * idiom).
 *
 * Indexing a table with a 300-bit history requires compressing it to the
 * table's index width.  Hardware maintains each fold incrementally: on
 * each new history bit, rotate the fold and XOR in the incoming bit and
 * the outgoing (aged-out) bit.  The simulator's incremental folds live in
 * HistoryManager's fold bank; this class computes the same fold from
 * scratch, O(length), so tests can check the bank against it.  It is on
 * no simulation path.
 */

#ifndef IMLI_SRC_HISTORY_FOLDED_HISTORY_HH
#define IMLI_SRC_HISTORY_FOLDED_HISTORY_HH

#include <cstdint>

#include "src/history/global_history.hh"

namespace imli
{

/**
 * A circular-shift-register fold of the @p orig_length most recent global
 * history bits into @p folded_width bits.
 */
class FoldedHistory
{
  public:
    /**
     * @param orig_length history length being compressed
     * @param folded_width output width in bits (1..31)
     */
    FoldedHistory(unsigned orig_length, unsigned folded_width);

    /** Folded value as of the last recompute(). */
    std::uint32_t value() const { return folded; }

    /** Recompute from scratch against @p hist (O(orig_length)). */
    void recompute(const GlobalHistory &hist);

  private:
    std::uint32_t folded = 0;
    unsigned length;
    unsigned width;
};

} // namespace imli

#endif // IMLI_SRC_HISTORY_FOLDED_HISTORY_HH
