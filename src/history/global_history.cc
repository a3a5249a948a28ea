#include "src/history/global_history.hh"

#include <cassert>

#include "src/util/hashing.hh"

namespace imli
{

GlobalHistory::GlobalHistory(unsigned capacity)
    : buffer(capacity, 0), mask(capacity - 1)
{
    assert(isPowerOfTwo(capacity));
}

void
GlobalHistory::push(bool taken, std::uint64_t pc)
{
    buffer[head & mask] = taken ? 1 : 0;
    ++head;
    // Path history: 3 low PC bits per branch, as in the EV8/TAGE lineage.
    pathHist = (pathHist << 3) ^ ((pc >> 1) & 0x7);
}

std::uint64_t
GlobalHistory::recent(unsigned length) const
{
    assert(length <= 64);
    std::uint64_t word = 0;
    for (unsigned i = 0; i < length; ++i)
        word |= static_cast<std::uint64_t>(bit(i)) << i;
    return word;
}

void
GlobalHistory::restore(const Checkpoint &cp)
{
    // Backward = misprediction recovery; forward = the commit sandwich
    // returning to the fetch front (see the header).  Either way the
    // distance must not exceed the buffer, or the bits are gone.
    assert((cp.head <= head ? head - cp.head : cp.head - head) <=
           buffer.size());
    head = cp.head;
    pathHist = cp.pathHist;
}

} // namespace imli
