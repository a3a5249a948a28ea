#include "src/history/folded_history.hh"

#include <cassert>

namespace imli
{

FoldedHistory::FoldedHistory(unsigned orig_length, unsigned folded_width)
    : length(orig_length), width(folded_width),
      outPoint(orig_length % folded_width)
{
    assert(folded_width >= 1 && folded_width < 32);
}

void
FoldedHistory::update(bool incoming, bool outgoing)
{
    // Rotate left by one and inject the incoming bit ...
    folded = (folded << 1) | (incoming ? 1 : 0);
    // ... remove the bit that aged out of the window ...
    folded ^= (outgoing ? 1u : 0u) << outPoint;
    // ... and wrap the rotation.
    folded ^= folded >> width;
    folded &= (1u << width) - 1;
}

void
FoldedHistory::recompute(const GlobalHistory &hist)
{
    // Reference fold: process bits oldest-to-newest through update() with
    // a zero outgoing bit until the window fills, then with real outgoing
    // bits.  Equivalent direct computation:
    folded = 0;
    for (unsigned age = length; age-- > 0;) {
        const bool b = hist.bit(age);
        folded = (folded << 1) | (b ? 1 : 0);
        folded ^= folded >> width;
        folded &= (1u << width) - 1;
    }
}

} // namespace imli
