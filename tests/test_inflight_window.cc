/**
 * @file
 * Edge-case pins for InflightWindow, the speculative local-history
 * structure the pipeline simulator builds on (paper, Section 2.3.2).
 * The squash/lookup corners here are exactly the ones recovery code
 * exercises: tickets whose instances are gone, empty-window searches
 * after a flush, and the bounded (ticket-horizon) lookups of the commit
 * sandbox.
 */

#include <gtest/gtest.h>

#include <cstdint>

#include "src/history/inflight_window.hh"

using namespace imli;

TEST(InflightWindowEdge, SquashAfterFutureTicketIsNoOp)
{
    InflightWindow w(8, 16, 256);
    w.insert(1, 0x1);
    w.insert(2, 0x2);
    // A ticket that was never issued: nothing is younger than it.
    w.squashAfter(1000);
    EXPECT_EQ(w.size(), 2u);
    EXPECT_TRUE(w.lookup(1).has_value());
}

TEST(InflightWindowEdge, SquashAfterZeroSquashesEverything)
{
    InflightWindow w(8, 16, 256);
    w.insert(1, 0x1);
    w.insert(2, 0x2);
    w.insert(3, 0x3);
    // Tickets start at 1, so 0 means "before any insert": full squash.
    w.squashAfter(0);
    EXPECT_EQ(w.size(), 0u);
    EXPECT_FALSE(w.lookup(1).has_value());
}

TEST(InflightWindowEdge, SquashAfterCommittedTicketSquashesAllYounger)
{
    InflightWindow w(8, 16, 256);
    const std::uint64_t oldest = w.insert(1, 0x1);
    w.insert(2, 0x2);
    w.insert(3, 0x3);
    // The oldest instance commits; recovery code may still hold its
    // ticket.  Squashing after it must drop the two younger entries and
    // only them, even though the ticket's own instance is gone.
    w.commitOldest();
    w.squashAfter(oldest);
    EXPECT_EQ(w.size(), 0u);
    // And an unknown ticket *between* live tickets behaves by the same
    // rule: strictly-younger entries go.
    const std::uint64_t a = w.insert(4, 0x4);
    w.insert(5, 0x5);
    w.squashAfter(a);
    EXPECT_EQ(w.size(), 1u);
    EXPECT_TRUE(w.lookup(4).has_value());
    EXPECT_FALSE(w.lookup(5).has_value());
}

TEST(InflightWindowEdge, LookupOnEmptyWindowAfterSquashAll)
{
    InflightWindow w(4, 16, 256);
    w.insert(7, 0xab);
    w.squashAll();
    const std::uint64_t searchedBefore = w.entriesSearched();
    // An empty-window search must miss cleanly and visit zero entries.
    EXPECT_FALSE(w.lookup(7).has_value());
    EXPECT_EQ(w.entriesSearched(), searchedBefore);
    // The window stays usable: tickets keep increasing monotonically.
    const std::uint64_t t = w.insert(7, 0xcd);
    EXPECT_GT(t, 1u);
    EXPECT_EQ(w.lookup(7).value(), 0xcdu);
}

TEST(InflightWindowEdge, EntriesSearchedCountsEveryVisit)
{
    InflightWindow w(8, 16, 256);
    w.insert(1, 0x1);
    w.insert(2, 0x2);
    w.insert(3, 0x3);
    EXPECT_EQ(w.entriesSearched(), 0u);
    // Hit on the youngest: one visit.
    EXPECT_TRUE(w.lookup(3).has_value());
    EXPECT_EQ(w.entriesSearched(), 1u);
    // Hit on the oldest: walks all three.
    EXPECT_TRUE(w.lookup(1).has_value());
    EXPECT_EQ(w.entriesSearched(), 4u);
    // Miss: walks all three again.
    EXPECT_FALSE(w.lookup(9).has_value());
    EXPECT_EQ(w.entriesSearched(), 7u);
}

TEST(InflightWindowEdge, EntriesSearchedIsPlainModuloCounter)
{
    // Pinned semantics: entriesSearched() is an ordinary uint64 event
    // counter with wrap-around modulo 2^64 — no saturation, no UB (the
    // increment is on an unsigned type).  The pin is behavioural, not a
    // 2^64-iteration loop: the counter advances by exactly the entries
    // visited, so its residue is fully determined by the visit count.
    InflightWindow w(2, 8, 256);
    w.insert(1, 0x1);
    std::uint64_t visits = 0;
    for (int i = 0; i < 1000; ++i) {
        w.lookup(1); // 1 entry resident -> exactly one visit
        ++visits;
    }
    EXPECT_EQ(w.entriesSearched(), visits);
}

TEST(InflightWindowEdge, LookupBeforeBoundsVisibility)
{
    InflightWindow w(8, 16, 256);
    const std::uint64_t t1 = w.insert(5, 0x11);
    const std::uint64_t t2 = w.insert(5, 0x22);
    w.insert(5, 0x33);

    // Unbounded: youngest wins.
    EXPECT_EQ(w.lookup(5).value(), 0x33u);
    // Bounded to t2: the middle instance is the youngest visible.
    EXPECT_EQ(w.lookupBefore(5, t2).value(), 0x22u);
    EXPECT_EQ(w.lookupBefore(5, t1).value(), 0x11u);
    // Bounded to before the first insert: nothing visible.
    EXPECT_FALSE(w.lookupBefore(5, 0).has_value());
    // The bound is non-destructive: unbounded lookup still sees all.
    EXPECT_EQ(w.lookup(5).value(), 0x33u);
}

TEST(InflightWindowEdge, LookupBeforeStillCountsSkippedEntries)
{
    InflightWindow w(8, 16, 256);
    const std::uint64_t t1 = w.insert(5, 0x11);
    w.insert(5, 0x22);
    w.insert(5, 0x33);
    const std::uint64_t before = w.entriesSearched();
    // The comparators examine the young entries even though the bound
    // rejects them; the cost model must charge for that.
    EXPECT_EQ(w.lookupBefore(5, t1).value(), 0x11u);
    EXPECT_EQ(w.entriesSearched(), before + 3);
}

TEST(InflightWindowEdge, LastTicketTracksInsertsOnly)
{
    InflightWindow w(4, 16, 256);
    EXPECT_EQ(w.lastTicket(), 0u);
    const std::uint64_t t1 = w.insert(1, 0x1);
    EXPECT_EQ(w.lastTicket(), t1);
    const std::uint64_t t2 = w.insert(2, 0x2);
    EXPECT_EQ(w.lastTicket(), t2);
    // Commits and squashes do not move it: it names the youngest ticket
    // ever issued, which is what a fetch-front checkpoint records.
    w.commitOldest();
    EXPECT_EQ(w.lastTicket(), t2);
    w.squashAll();
    EXPECT_EQ(w.lastTicket(), t2);
}
