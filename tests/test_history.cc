/**
 * @file
 * Unit and property tests for src/history: global history, folded
 * histories, the history manager, local history and the in-flight window.
 */

#include <gtest/gtest.h>

#include <stdexcept>
#include <tuple>
#include <vector>

#include "src/history/folded_history.hh"
#include "src/history/global_history.hh"
#include "src/history/history_manager.hh"
#include "src/history/inflight_window.hh"
#include "src/history/local_history.hh"
#include "src/util/rng.hh"

using namespace imli;

// ---------------------------------------------------------------------------
// GlobalHistory
// ---------------------------------------------------------------------------

TEST(GlobalHistory, MostRecentBitFirst)
{
    GlobalHistory h(64);
    h.push(true, 0x10);
    h.push(false, 0x20);
    EXPECT_FALSE(h.bit(0)); // most recent
    EXPECT_TRUE(h.bit(1));
}

TEST(GlobalHistory, RecentPacksLowBitFirst)
{
    GlobalHistory h(64);
    h.push(true, 0x10);  // age 2
    h.push(false, 0x20); // age 1
    h.push(true, 0x30);  // age 0
    EXPECT_EQ(h.recent(3), 0b101u);
}

TEST(GlobalHistory, BeforeStartReadsZero)
{
    GlobalHistory h(64);
    h.push(true, 0x10);
    EXPECT_FALSE(h.bit(5));
}

TEST(GlobalHistory, WrapsAroundCapacity)
{
    GlobalHistory h(8);
    for (int i = 0; i < 20; ++i)
        h.push(i % 3 == 0, 0x10);
    // Bit 0 corresponds to i = 19 -> 19 % 3 != 0 -> false.
    EXPECT_FALSE(h.bit(0));
    // Bit 1 -> i = 18 -> divisible by 3 -> true.
    EXPECT_TRUE(h.bit(1));
}

TEST(GlobalHistory, CheckpointRestore)
{
    GlobalHistory h(128);
    for (int i = 0; i < 10; ++i)
        h.push(i & 1, 0x10 + 2 * i);
    const auto cp = h.save();
    const std::uint64_t before = h.recent(10);
    const std::uint64_t path_before = h.path();

    for (int i = 0; i < 5; ++i)
        h.push(true, 0x999);
    h.restore(cp);

    EXPECT_EQ(h.recent(10), before);
    EXPECT_EQ(h.path(), path_before);
    EXPECT_EQ(h.headPointer(), 10u);
}

TEST(GlobalHistory, PathHistoryTracksPcBits)
{
    GlobalHistory a(64), b(64);
    a.push(true, 0x10);
    b.push(true, 0x18);
    EXPECT_NE(a.path(), b.path());
}

// ---------------------------------------------------------------------------
// Fold bank vs FoldedHistory: every incremental fold must equal the
// from-scratch fold.
// ---------------------------------------------------------------------------

class FoldedHistoryProperty
    : public ::testing::TestWithParam<std::tuple<unsigned, unsigned>>
{
};

TEST_P(FoldedHistoryProperty, IncrementalMatchesRecompute)
{
    const auto [length, width] = GetParam();
    HistoryManager mgr(2048);
    const int fold = mgr.createFold(length, width);
    Xoroshiro128 rng(length * 131 + width);

    for (int i = 0; i < 3000; ++i) {
        mgr.push(rng.bernoulli(0.5), 0x40 + 2 * (i & 0xff));

        if (i % 97 == 0) {
            FoldedHistory ref(length, width);
            ref.recompute(mgr.history());
            ASSERT_EQ(mgr.foldValue(fold), ref.value())
                << "diverged at step " << i << " (L=" << length
                << ", W=" << width << ")";
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, FoldedHistoryProperty,
    ::testing::Values(std::make_tuple(4u, 10u), std::make_tuple(10u, 10u),
                      std::make_tuple(16u, 8u), std::make_tuple(63u, 9u),
                      std::make_tuple(64u, 9u), std::make_tuple(130u, 11u),
                      std::make_tuple(301u, 12u), std::make_tuple(640u, 10u),
                      std::make_tuple(600u, 11u), std::make_tuple(7u, 7u)));

TEST(FoldedHistory, ValueStaysInWidth)
{
    HistoryManager mgr(1024);
    const int fold = mgr.createFold(100, 9);
    Xoroshiro128 rng(5);
    for (int i = 0; i < 500; ++i) {
        mgr.push(rng.bernoulli(0.7), 0x10);
        ASSERT_LT(mgr.foldValue(fold), 1u << 9);
    }
}

namespace
{

struct FoldGeometry
{
    unsigned length;
    unsigned width;
};

/** Assert every bank fold equals its from-scratch recompute. */
void
expectBankMatchesRecompute(const HistoryManager &mgr,
                           const std::vector<int> &ids,
                           const std::vector<FoldGeometry> &geometry,
                           const char *where)
{
    for (std::size_t i = 0; i < ids.size(); ++i) {
        FoldedHistory ref(geometry[i].length, geometry[i].width);
        ref.recompute(mgr.history());
        ASSERT_EQ(mgr.foldValue(ids[i]), ref.value())
            << where << ": fold " << i << " (L=" << geometry[i].length
            << ", W=" << geometry[i].width << ") at head "
            << mgr.history().headPointer();
    }
}

} // anonymous namespace

TEST(FoldBank, EveryFoldMatchesRecomputeAcrossSaveRestore)
{
    // One bank holding the awkward geometries together: one length
    // registered non-adjacently (37 at ids 0, 3 and 8), width 1 and 31,
    // length < width, length 1, and the longest length the capacity
    // allows for the deepest rewind below (a backward restore of d
    // positions followed by pushes needs length + d <= capacity, or the
    // outgoing bit was overwritten by the squashed future).
    constexpr unsigned kCapacity = 1024;
    constexpr unsigned kMaxRewind = 64;
    const std::vector<FoldGeometry> geometry = {
        {37, 9},  {200, 11}, {5, 12},  {37, 1},  {1, 7},
        {64, 31}, {kCapacity - kMaxRewind, 10}, {1, 1}, {37, 31},
        {3, 31},  {200, 5}};
    HistoryManager mgr(kCapacity);
    std::vector<int> ids;
    for (const FoldGeometry &g : geometry)
        ids.push_back(mgr.createFold(g.length, g.width));
    mgr.prepare(kMaxRewind);
    Xoroshiro128 rng(73);

    // Random pushes, past the point where every window is full.
    for (unsigned i = 0; i < 3 * kCapacity; ++i) {
        mgr.push(rng.bernoulli(0.5), 0x100 + 2 * (i & 0x7f));
        if (i % 61 == 0)
            expectBankMatchesRecompute(mgr, ids, geometry, "push");
    }

    for (int round = 0; round < 40; ++round) {
        // Checkpoint every position of a speculative run, as the
        // pipeline does at each fetch.
        const unsigned depth = 1 + rng.below(kMaxRewind - 1);
        std::vector<GlobalHistory::Checkpoint> cps{mgr.save()};
        std::vector<bool> bits;
        for (unsigned i = 0; i < depth; ++i) {
            bits.push_back(rng.bernoulli(0.5));
            mgr.push(bits.back(), 0x200 + 2 * i);
            cps.push_back(mgr.save());
        }
        expectBankMatchesRecompute(mgr, ids, geometry, "front");

        // Backward restore to a random point, then forward to the front
        // after re-pushing the same bit (the correct-prediction commit).
        const unsigned back = rng.below(depth);
        mgr.restore(cps[back]);
        expectBankMatchesRecompute(mgr, ids, geometry, "backward");
        mgr.push(bits[back], 0x200 + 2 * back);
        expectBankMatchesRecompute(mgr, ids, geometry, "replay");
        mgr.restore(cps.back());
        expectBankMatchesRecompute(mgr, ids, geometry, "forward");

        // Squash: rewind and push a different future, then keep going.
        mgr.restore(cps[back]);
        for (unsigned i = 0; i < depth; ++i)
            mgr.push(rng.bernoulli(0.5), 0x300 + 2 * i);
        expectBankMatchesRecompute(mgr, ids, geometry, "squash");
    }
}

// ---------------------------------------------------------------------------
// HistoryManager
// ---------------------------------------------------------------------------

TEST(HistoryManager, KeepsFoldsCoherent)
{
    HistoryManager mgr(2048);
    const int f1 = mgr.createFold(37, 9);
    const int f2 = mgr.createFold(200, 11);
    Xoroshiro128 rng(17);
    for (int i = 0; i < 2000; ++i)
        mgr.push(rng.bernoulli(0.5), 0x100 + 2 * (i & 0x3f));

    FoldedHistory ref1(37, 9), ref2(200, 11);
    ref1.recompute(mgr.history());
    ref2.recompute(mgr.history());
    EXPECT_EQ(mgr.foldValue(f1), ref1.value());
    EXPECT_EQ(mgr.foldValue(f2), ref2.value());
}

TEST(HistoryManager, RestoreRecomputesFolds)
{
    HistoryManager mgr(2048);
    const int fold = mgr.createFold(50, 10);
    Xoroshiro128 rng(23);
    for (int i = 0; i < 500; ++i)
        mgr.push(rng.bernoulli(0.5), 0x10);

    const auto cp = mgr.save();
    const std::uint32_t value = mgr.foldValue(fold);
    for (int i = 0; i < 100; ++i)
        mgr.push(true, 0x20);
    mgr.restore(cp);
    EXPECT_EQ(mgr.foldValue(fold), value);
}

TEST(HistoryManager, RestoreMatchesRecompute)
{
    // restore() copies the folds back from the checkpoint's snapshot; it
    // must land on exactly the recompute() values at the restored head,
    // for short and long rewind distances alike.
    HistoryManager mgr(4096);
    const int f1 = mgr.createFold(37, 9);
    const int f2 = mgr.createFold(301, 12);
    const int f3 = mgr.createFold(640, 10);
    Xoroshiro128 rng(41);
    for (int i = 0; i < 1500; ++i)
        mgr.push(rng.bernoulli(0.6), 0x100 + 2 * (i & 0x7f));

    for (const int distance : {1, 2, 17, 100, 1000}) {
        const auto cp = mgr.save();
        const std::uint32_t v1 = mgr.foldValue(f1);
        const std::uint32_t v2 = mgr.foldValue(f2);
        const std::uint32_t v3 = mgr.foldValue(f3);
        for (int i = 0; i < distance; ++i)
            mgr.push(rng.bernoulli(0.3), 0x40 + 2 * (i & 0x3f));
        mgr.restore(cp);
        ASSERT_EQ(mgr.foldValue(f1), v1) << "distance " << distance;
        ASSERT_EQ(mgr.foldValue(f2), v2) << "distance " << distance;
        ASSERT_EQ(mgr.foldValue(f3), v3) << "distance " << distance;

        FoldedHistory ref(301, 12);
        ref.recompute(mgr.history());
        ASSERT_EQ(mgr.foldValue(f2), ref.value()) << "distance " << distance;
    }
}

TEST(HistoryManager, ForwardRestoreReturnsToTheFuture)
{
    // The pipeline commit sandwich rewinds to a branch's fetch point and
    // then restores *forward* to the fetch front; as long as the buffer
    // bits were not overwritten, the folds must come back bit-exact.
    HistoryManager mgr(2048);
    const int fold = mgr.createFold(130, 11);
    Xoroshiro128 rng(59);
    for (int i = 0; i < 700; ++i)
        mgr.push(rng.bernoulli(0.5), 0x10 + 2 * (i & 0x1f));

    const auto past = mgr.save();
    std::vector<bool> bits;
    for (int i = 0; i < 64; ++i) {
        const bool b = rng.bernoulli(0.5);
        bits.push_back(b);
        mgr.push(b, 0x200 + 2 * i);
    }
    const auto front = mgr.save();
    const std::uint32_t frontValue = mgr.foldValue(fold);

    mgr.restore(past);
    // Re-pushing the identical bits leaves the buffer unchanged, which is
    // the correct-prediction commit case (resolved bit == speculated bit).
    mgr.push(bits[0], 0x200);
    mgr.restore(front);
    EXPECT_EQ(mgr.history().headPointer(), front.head);
    EXPECT_EQ(mgr.foldValue(fold), frontValue);
}

TEST(HistoryManager, PreparedRingKeepsTheDeepestCheckpoint)
{
    // After prepare(N), a checkpoint survives N + 1 younger saves (the
    // in-flight window plus the commit front) and still restores to the
    // recompute() values.  N = 62 makes the ring exactly N + 2 = 64
    // slots, so one more save evicts it.
    constexpr unsigned kInflight = 62;
    HistoryManager mgr(4096);
    const int f1 = mgr.createFold(37, 9);
    const int f2 = mgr.createFold(640, 10);
    mgr.prepare(kInflight);
    Xoroshiro128 rng(67);
    for (int i = 0; i < 900; ++i)
        mgr.push(rng.bernoulli(0.5), 0x80 + 2 * (i & 0x3f));

    const auto oldest = mgr.save();
    FoldedHistory ref1(37, 9), ref2(640, 10);
    ref1.recompute(mgr.history());
    ref2.recompute(mgr.history());
    for (unsigned i = 0; i < kInflight + 1; ++i) {
        mgr.push(rng.bernoulli(0.5), 0x300 + 2 * i);
        (void)mgr.save();
    }
    const auto front = mgr.save();
    mgr.restore(oldest);
    EXPECT_EQ(mgr.history().headPointer(), oldest.head);
    EXPECT_EQ(mgr.foldValue(f1), ref1.value());
    EXPECT_EQ(mgr.foldValue(f2), ref2.value());

    mgr.restore(front);
    mgr.push(true, 0x500);
    (void)mgr.save();
    EXPECT_THROW(mgr.restore(oldest), std::logic_error);
}

TEST(HistoryManager, RestoreOfAnEvictedCheckpointThrows)
{
    // prepare(2) sizes the ring to 4 slots; the save four pushes later
    // reuses the slot, so the older checkpoint can no longer be restored.
    HistoryManager mgr(2048);
    (void)mgr.createFold(20, 7);
    mgr.prepare(2);
    const auto evicted = mgr.save();
    for (int i = 0; i < 4; ++i) {
        mgr.push(i % 2 == 0, 0x40);
        (void)mgr.save();
    }
    EXPECT_THROW(mgr.restore(evicted), std::logic_error);

    // A checkpoint no save() ever issued is rejected the same way.
    GlobalHistory::Checkpoint forged;
    forged.head = mgr.history().headPointer() + 1;
    EXPECT_THROW(mgr.restore(forged), std::logic_error);
}

// ---------------------------------------------------------------------------
// LocalHistoryTable
// ---------------------------------------------------------------------------

TEST(LocalHistory, ShiftsPerBranch)
{
    LocalHistoryTable t(256, 8);
    t.update(0x100, true);
    t.update(0x100, false);
    t.update(0x100, true);
    EXPECT_EQ(t.read(0x100), 0b101u);
}

TEST(LocalHistory, IndependentEntries)
{
    LocalHistoryTable t(256, 8);
    t.update(0x100, true);
    // A PC mapping to a different entry is unaffected.
    std::uint64_t other = 0;
    for (std::uint64_t pc = 0x200; pc < 0x4000; pc += 2) {
        if (t.index(pc) != t.index(0x100)) {
            other = pc;
            break;
        }
    }
    ASSERT_NE(other, 0u);
    EXPECT_EQ(t.read(other), 0u);
}

TEST(LocalHistory, WidthMasked)
{
    LocalHistoryTable t(64, 4);
    for (int i = 0; i < 16; ++i)
        t.update(0x40, true);
    EXPECT_EQ(t.read(0x40), 0xfu);
}

TEST(LocalHistory, StorageAccounting)
{
    LocalHistoryTable t(256, 24);
    StorageAccount acct;
    t.account(acct, "local");
    EXPECT_EQ(acct.totalBits(), 256u * 24u);
}

// ---------------------------------------------------------------------------
// InflightWindow
// ---------------------------------------------------------------------------

TEST(InflightWindow, LookupFindsNewestInstance)
{
    InflightWindow w(8, 16);
    w.insert(3, 0b01);
    w.insert(3, 0b10);
    const auto hit = w.lookup(3);
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(*hit, 0b10u);
}

TEST(InflightWindow, MissReturnsEmpty)
{
    InflightWindow w(8, 16);
    w.insert(1, 7);
    EXPECT_FALSE(w.lookup(2).has_value());
}

TEST(InflightWindow, SearchCostCounted)
{
    InflightWindow w(8, 16);
    w.insert(1, 1);
    w.insert(2, 2);
    w.insert(3, 3);
    (void)w.lookup(1); // visits 3 entries (youngest first)
    EXPECT_EQ(w.entriesSearched(), 3u);
    (void)w.lookup(3); // visits 1 entry
    EXPECT_EQ(w.entriesSearched(), 4u);
}

TEST(InflightWindow, SquashAfterTicket)
{
    InflightWindow w(8, 16);
    const auto t1 = w.insert(1, 1);
    w.insert(2, 2);
    w.insert(3, 3);
    w.squashAfter(t1);
    EXPECT_EQ(w.size(), 1u);
    EXPECT_TRUE(w.lookup(1).has_value());
    EXPECT_FALSE(w.lookup(2).has_value());
}

TEST(InflightWindow, CapacityEvictsOldest)
{
    InflightWindow w(2, 16);
    w.insert(1, 1);
    w.insert(2, 2);
    w.insert(3, 3);
    EXPECT_EQ(w.size(), 2u);
    EXPECT_FALSE(w.lookup(1).has_value());
}

TEST(InflightWindow, CommitRemovesOldest)
{
    InflightWindow w(4, 16);
    w.insert(1, 1);
    w.insert(2, 2);
    w.commitOldest();
    EXPECT_FALSE(w.lookup(1).has_value());
    EXPECT_TRUE(w.lookup(2).has_value());
}

TEST(InflightWindow, StorageScalesWithCapacity)
{
    InflightWindow small(16, 24);
    InflightWindow large(64, 24);
    EXPECT_LT(small.storageBits(), large.storageBits());
    EXPECT_EQ(large.storageBits(), 64u * (24 + 16));
}
