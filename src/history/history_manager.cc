#include "src/history/history_manager.hh"

#include <cassert>
#include <cstdint>
#include <stdexcept>

#include "src/util/hashing.hh"

namespace imli
{

FoldedHistory *
HistoryManager::createFold(unsigned orig_length, unsigned folded_width)
{
    assert(orig_length >= 1);
    assert(snapHead.empty());
    folds.push_back(
        std::make_unique<FoldedHistory>(orig_length, folded_width));
    return folds.back().get();
}

void
HistoryManager::push(bool taken, std::uint64_t pc)
{
    // Folds consume the outgoing bit (the one ageing out of each window)
    // before the buffer advances.
    for (auto &fold : folds)
        fold->update(taken, hist.bit(fold->origLength() - 1));
    hist.push(taken, pc);
}

void
HistoryManager::allocateRing(std::size_t slots) const
{
    snapValues.assign(slots * folds.size(), 0);
    snapHead.assign(slots, UINT64_MAX);
    slotMask = slots - 1;
}

void
HistoryManager::prepare(unsigned max_inflight)
{
    const std::size_t slots = std::size_t(1)
                              << ceilLog2(std::uint64_t(max_inflight) + 2);
    if (slots > snapHead.size())
        allocateRing(slots);
}

GlobalHistory::Checkpoint
HistoryManager::save() const
{
    if (snapHead.empty())
        allocateRing(1024);
    const GlobalHistory::Checkpoint cp = hist.save();
    const std::size_t slot = static_cast<std::size_t>(cp.head & slotMask);
    std::uint32_t *values = snapValues.data() + slot * folds.size();
    for (const auto &fold : folds)
        *values++ = fold->value();
    snapHead[slot] = cp.head;
    return cp;
}

void
HistoryManager::restore(const GlobalHistory::Checkpoint &cp)
{
    const std::size_t slot = static_cast<std::size_t>(cp.head & slotMask);
    if (snapHead.empty() || snapHead[slot] != cp.head)
        throw std::logic_error(
            "history checkpoint outlived its ring slot (evicted by a "
            "younger save, or never issued)");
    const std::uint32_t *values = snapValues.data() + slot * folds.size();
    for (auto &fold : folds)
        fold->folded = *values++;
    hist.restore(cp);
}

} // namespace imli
