#include "src/history/inflight_window.hh"

#include <cassert>

#include "src/util/hashing.hh"

namespace imli
{

InflightWindow::InflightWindow(unsigned capacity, unsigned history_bits,
                               unsigned table_entries)
    : cap(capacity), histBits(history_bits),
      indexBits(ceilLog2(table_entries))
{
    assert(capacity >= 1);
}

std::uint64_t
InflightWindow::insert(unsigned local_index, std::uint64_t spec_history)
{
    // A full window stalls fetch in hardware; in the model we retire the
    // oldest entry, which matches a commit catching up.
    if (window.size() == cap)
        window.pop_front();
    const std::uint64_t ticket = nextTicket++;
    window.push_back({ticket, local_index, spec_history});
    return ticket;
}

std::optional<std::uint64_t>
InflightWindow::lookup(unsigned local_index)
{
    return lookupBefore(local_index, UINT64_MAX);
}

std::optional<std::uint64_t>
InflightWindow::lookupBefore(unsigned local_index, std::uint64_t max_ticket)
{
    for (auto it = window.rbegin(); it != window.rend(); ++it) {
        ++searched;
        if (it->ticket <= max_ticket && it->localIndex == local_index)
            return it->history;
    }
    return std::nullopt;
}

void
InflightWindow::commitOldest()
{
    if (!window.empty())
        window.pop_front();
}

void
InflightWindow::squashAfter(std::uint64_t ticket)
{
    while (!window.empty() && window.back().ticket > ticket)
        window.pop_back();
}

void
InflightWindow::squashAll()
{
    window.clear();
}

std::uint64_t
InflightWindow::storageBits() const
{
    // Each slot: local-table index + carried history register.
    return static_cast<std::uint64_t>(cap) * (histBits + indexBits);
}

} // namespace imli
