#include "src/history/history_manager.hh"

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <stdexcept>
#include <string>

#include "src/util/hashing.hh"

namespace imli
{

int
HistoryManager::createFold(unsigned orig_length, unsigned folded_width)
{
    assert(orig_length >= 1 && orig_length <= hist.capacityBits());
    assert(folded_width >= 1 && folded_width < 32);
    assert(hist.headPointer() == 0 && snapHead.empty() && !followMode);
    const FoldShape shape{orig_length, folded_width};
    const std::size_t twin = slotFor(shape);
    shapes.push_back(shape);
    if (twin < value.size()) {
        // Same shape, same values at every push: share the slot.
        slotOf.push_back(static_cast<std::uint32_t>(twin));
        readOwnBank();
        return static_cast<int>(slotOf.size() - 1);
    }
    auto group = std::find_if(groups.begin(), groups.end(),
                              [&](const Group &g) {
                                  return g.length == orig_length;
                              });
    if (group == groups.end())
        group = groups.insert(groups.end(),
                              {orig_length, unsigned(value.size())});
    // Append to the group's run: later groups (and their folds' slots)
    // shift up by one.
    const unsigned slot = group->end;
    for (auto g = group; g != groups.end(); ++g)
        ++g->end;
    for (std::uint32_t &s : slotOf)
        s += s >= slot;
    value.insert(value.begin() + slot, 0);
    outBit.insert(outBit.begin() + slot, 1u << (orig_length % folded_width));
    mask.insert(mask.begin() + slot, (1u << folded_width) - 1);
    outgoing.push_back(0);
    slotOf.push_back(slot);
    readOwnBank();
    return static_cast<int>(slotOf.size() - 1);
}

void
HistoryManager::push(bool taken, std::uint64_t pc)
{
    if (followMode) {
        readRow += rowStride;
        hist.push(taken, pc);
        return;
    }
    // Each group reads the bit ageing out of its window once, before the
    // buffer advances ...
    std::uint32_t *const out = outgoing.data();
    unsigned k = 0;
    for (const Group &g : groups) {
        const std::uint32_t bit = hist.bit(g.length - 1) ? ~0u : 0u;
        for (const unsigned end = g.end; k < end; ++k)
            out[k] = outBit[k] & bit;
    }
    // ... then every fold rotates left by one, injects the incoming bit,
    // removes the outgoing one and wraps the rotation (the shifted value
    // exceeds the mask exactly when its top bit carried out, and that bit
    // moves to bit 0), in one flat loop over the bank.
    const std::uint32_t in = taken ? 1 : 0;
    std::uint32_t *const v = value.data();
    const std::uint32_t *const m = mask.data();
    for (std::size_t i = 0, n = value.size(); i < n; ++i) {
        std::uint32_t f = ((v[i] << 1) | in) ^ out[i];
        f ^= f > m[i];
        v[i] = f & m[i];
    }
    hist.push(taken, pc);
}

std::size_t
HistoryManager::slotFor(const FoldShape &shape) const
{
    const std::size_t id =
        std::find(shapes.begin(), shapes.end(), shape) - shapes.begin();
    return id < shapes.size() ? slotOf[id] : value.size();
}

void
HistoryManager::createFolds(const HistoryManager &other)
{
    for (const FoldShape &shape : other.shapes)
        if (slotFor(shape) == value.size())
            (void)createFold(shape.first, shape.second);
}

void
HistoryManager::follow(const HistoryManager &bank)
{
    if (followMode || hist.headPointer() != 0)
        throw std::logic_error("HistoryManager::follow: the bank was already "
                               "pushed or is already following");
    followColumns.clear();
    for (const FoldShape &shape : shapes) {
        const std::size_t column = bank.slotFor(shape);
        assert(column < bank.slotCount());
        followColumns.push_back(static_cast<std::uint32_t>(column));
    }
    rowStride = bank.slotCount();
    followMode = true;
    readRow = nullptr; // until followRow()
    readSlot = followColumns.data();
}

void
HistoryManager::unfollow()
{
    if (!followMode)
        return;
    for (std::size_t id = 0; id < slotOf.size(); ++id)
        value[slotOf[id]] = readRow[followColumns[id]];
    followMode = false;
    followColumns.clear();
    readOwnBank();
}

void
HistoryManager::throwIfFollowing(const char *what) const
{
    if (followMode)
        throw std::logic_error(std::string("HistoryManager::") + what +
                               " in follow mode (the fold values belong "
                               "to the bank being followed)");
}

void
HistoryManager::allocateRing(std::size_t slots) const
{
    snapValues.assign(slots * value.size(), 0);
    snapHead.assign(slots, UINT64_MAX);
    slotMask = slots - 1;
}

void
HistoryManager::prepare(unsigned max_inflight)
{
    throwIfFollowing("prepare");
    const std::size_t slots = std::size_t(1)
                              << ceilLog2(std::uint64_t(max_inflight) + 2);
    if (slots > snapHead.size())
        allocateRing(slots);
}

GlobalHistory::Checkpoint
HistoryManager::save() const
{
    throwIfFollowing("save");
    if (snapHead.empty())
        allocateRing(1024);
    const GlobalHistory::Checkpoint cp = hist.save();
    const std::size_t slot = static_cast<std::size_t>(cp.head & slotMask);
    std::copy(value.begin(), value.end(),
              snapValues.begin() + slot * value.size());
    snapHead[slot] = cp.head;
    return cp;
}

void
HistoryManager::restore(const GlobalHistory::Checkpoint &cp)
{
    throwIfFollowing("restore");
    const std::size_t slot = static_cast<std::size_t>(cp.head & slotMask);
    if (snapHead.empty() || snapHead[slot] != cp.head)
        throw std::logic_error(
            "history checkpoint outlived its ring slot (evicted by a "
            "younger save, or never issued)");
    const auto snap = snapValues.begin() + slot * value.size();
    std::copy(snap, snap + value.size(), value.begin());
    hist.restore(cp);
}

} // namespace imli
