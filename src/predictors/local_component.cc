#include "src/predictors/local_component.hh"

#include <cassert>

#include "src/util/hashing.hh"

namespace imli
{

LocalComponent::LocalComponent(const Config &config)
    : cfg(config), histories(config.historyEntries, config.historyBits)
{
    assert(cfg.numTables >= 1);
    // History prefix lengths spread evenly up to the full register width,
    // e.g. {6, 12, 18, 24} with 4 tables over 24 bits.
    lengths.resize(cfg.numTables);
    for (unsigned t = 0; t < cfg.numTables; ++t)
        lengths[t] = cfg.historyBits * (t + 1) / cfg.numTables;
    tables = TableArena<SignedCounter>(cfg.numTables, cfg.logEntries,
                                       SignedCounter(cfg.counterBits));
}

std::uint64_t
LocalComponent::specHistory(std::uint64_t pc) const
{
    if (window != nullptr) {
        const auto hit =
            window->lookupBefore(histories.index(pc), ticketHorizon);
        if (hit.has_value())
            return *hit;
    }
    return histories.read(pc);
}

unsigned
LocalComponent::index(unsigned table, const ScContext &ctx) const
{
    const std::uint64_t hist = specHistory(ctx.pc) & maskBits(lengths[table]);
    const std::uint64_t h =
        hashCombine(pcHash(ctx.pc) + table, hist * 0x9e3779b97f4a7c15ULL);
    return static_cast<unsigned>(h & maskBits(cfg.logEntries));
}

int
LocalComponent::vote(const ScContext &ctx) const
{
    int sum = 0;
    for (unsigned t = 0; t < cfg.numTables; ++t)
        sum += tables.at(t, index(t, ctx)).centered();
    return sum;
}

void
LocalComponent::update(const ScContext &ctx, bool taken)
{
    for (unsigned t = 0; t < cfg.numTables; ++t)
        tables.at(t, index(t, ctx)).update(taken);
}

void
LocalComponent::onResolved(const ScContext &ctx, bool taken)
{
    histories.update(ctx.pc, taken);
    // Pipeline mode: this is the commit of the oldest in-flight branch —
    // its speculative window entry retires (FIFO with speculate()).
    if (window != nullptr)
        window->commitOldest();
}

void
LocalComponent::enableSpeculation(unsigned max_inflight)
{
    window = std::make_unique<InflightWindow>(
        max_inflight < 1 ? 1 : max_inflight, cfg.historyBits,
        cfg.historyEntries);
    ticketHorizon = UINT64_MAX;
}

void
LocalComponent::speculate(std::uint64_t pc, bool pred_taken)
{
    assert(window != nullptr &&
           "speculate() requires enableSpeculation() first");
    ticketHorizon = UINT64_MAX; // speculation happens at the fetch front
    const std::uint64_t searched = window->entriesSearched();
    const std::uint64_t next =
        ((specHistory(pc) << 1) | (pred_taken ? 1u : 0u)) &
        maskBits(cfg.historyBits);
    obsSearches.hit();
    obsCompares.add(window->entriesSearched() - searched);
    window->insert(histories.index(pc), next);
}

void
LocalComponent::attachProbes(obs::MetricsScope &scope)
{
    obsSearches.slot = scope.counter("local/window_searches");
    obsCompares.slot = scope.counter("local/window_compares");
}

void
LocalComponent::setTicketHorizon(std::uint64_t max_ticket)
{
    ticketHorizon = max_ticket;
}

std::uint64_t
LocalComponent::lastTicket() const
{
    return window == nullptr ? 0 : window->lastTicket();
}

void
LocalComponent::squashSpeculation()
{
    if (window != nullptr)
        window->squashAll();
    ticketHorizon = UINT64_MAX;
}

void
LocalComponent::account(StorageAccount &acct) const
{
    histories.account(acct, cfg.label + "/histories");
    acct.add(cfg.label + "/tables",
             static_cast<std::uint64_t>(cfg.numTables) *
                 (1ull << cfg.logEntries) * cfg.counterBits);
}

} // namespace imli
