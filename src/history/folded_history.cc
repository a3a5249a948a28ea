#include "src/history/folded_history.hh"

#include <cassert>

namespace imli
{

FoldedHistory::FoldedHistory(unsigned orig_length, unsigned folded_width)
    : length(orig_length), width(folded_width)
{
    assert(folded_width >= 1 && folded_width < 32);
}

void
FoldedHistory::recompute(const GlobalHistory &hist)
{
    // Shift the window's bits in oldest-to-newest from a zero fold: the
    // incremental update over a history whose older bits are all zero,
    // so no outgoing bit ever needs removing.
    folded = 0;
    for (unsigned age = length; age-- > 0;) {
        const bool b = hist.bit(age);
        folded = (folded << 1) | (b ? 1 : 0);
        folded ^= folded >> width;
        folded &= (1u << width) - 1;
    }
}

} // namespace imli
