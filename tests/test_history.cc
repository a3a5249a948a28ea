/**
 * @file
 * Unit and property tests for src/history: global history, folded
 * histories, the history manager, local history and the in-flight window.
 */

#include <gtest/gtest.h>

#include <stdexcept>
#include <tuple>

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
// FoldedHistory: the incremental fold must equal the from-scratch fold.
// ---------------------------------------------------------------------------

class FoldedHistoryProperty
    : public ::testing::TestWithParam<std::tuple<unsigned, unsigned>>
{
};

TEST_P(FoldedHistoryProperty, IncrementalMatchesRecompute)
{
    const auto [length, width] = GetParam();
    GlobalHistory hist(2048);
    FoldedHistory fold(length, width);
    Xoroshiro128 rng(length * 131 + width);

    for (int i = 0; i < 3000; ++i) {
        const bool bit = rng.bernoulli(0.5);
        // Incremental update consumes the outgoing bit before the push.
        fold.update(bit, hist.bit(length - 1));
        hist.push(bit, 0x40 + 2 * (i & 0xff));

        if (i % 97 == 0) {
            FoldedHistory ref(length, width);
            ref.recompute(hist);
            ASSERT_EQ(fold.value(), ref.value())
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
    GlobalHistory hist(1024);
    FoldedHistory fold(100, 9);
    Xoroshiro128 rng(5);
    for (int i = 0; i < 500; ++i) {
        fold.update(rng.bernoulli(0.7), hist.bit(99));
        hist.push(rng.bernoulli(0.7), 0x10);
        ASSERT_LT(fold.value(), 1u << 9);
    }
}

// ---------------------------------------------------------------------------
// HistoryManager
// ---------------------------------------------------------------------------

TEST(HistoryManager, KeepsFoldsCoherent)
{
    HistoryManager mgr(2048);
    FoldedHistory *f1 = mgr.createFold(37, 9);
    FoldedHistory *f2 = mgr.createFold(200, 11);
    Xoroshiro128 rng(17);
    for (int i = 0; i < 2000; ++i)
        mgr.push(rng.bernoulli(0.5), 0x100 + 2 * (i & 0x3f));

    FoldedHistory ref1(37, 9), ref2(200, 11);
    ref1.recompute(mgr.history());
    ref2.recompute(mgr.history());
    EXPECT_EQ(f1->value(), ref1.value());
    EXPECT_EQ(f2->value(), ref2.value());
}

TEST(HistoryManager, RestoreRecomputesFolds)
{
    HistoryManager mgr(2048);
    FoldedHistory *fold = mgr.createFold(50, 10);
    Xoroshiro128 rng(23);
    for (int i = 0; i < 500; ++i)
        mgr.push(rng.bernoulli(0.5), 0x10);

    const auto cp = mgr.save();
    const std::uint32_t value = fold->value();
    for (int i = 0; i < 100; ++i)
        mgr.push(true, 0x20);
    mgr.restore(cp);
    EXPECT_EQ(fold->value(), value);
}

TEST(HistoryManager, RestoreMatchesRecompute)
{
    // restore() copies the folds back from the checkpoint's snapshot; it
    // must land on exactly the recompute() values at the restored head,
    // for short and long rewind distances alike.
    HistoryManager mgr(4096);
    FoldedHistory *f1 = mgr.createFold(37, 9);
    FoldedHistory *f2 = mgr.createFold(301, 12);
    FoldedHistory *f3 = mgr.createFold(640, 10);
    Xoroshiro128 rng(41);
    for (int i = 0; i < 1500; ++i)
        mgr.push(rng.bernoulli(0.6), 0x100 + 2 * (i & 0x7f));

    for (const int distance : {1, 2, 17, 100, 1000}) {
        const auto cp = mgr.save();
        const std::uint32_t v1 = f1->value();
        const std::uint32_t v2 = f2->value();
        const std::uint32_t v3 = f3->value();
        for (int i = 0; i < distance; ++i)
            mgr.push(rng.bernoulli(0.3), 0x40 + 2 * (i & 0x3f));
        mgr.restore(cp);
        ASSERT_EQ(f1->value(), v1) << "distance " << distance;
        ASSERT_EQ(f2->value(), v2) << "distance " << distance;
        ASSERT_EQ(f3->value(), v3) << "distance " << distance;

        FoldedHistory ref(301, 12);
        ref.recompute(mgr.history());
        ASSERT_EQ(f2->value(), ref.value()) << "distance " << distance;
    }
}

TEST(HistoryManager, ForwardRestoreReturnsToTheFuture)
{
    // The pipeline commit sandwich rewinds to a branch's fetch point and
    // then restores *forward* to the fetch front; as long as the buffer
    // bits were not overwritten, the folds must come back bit-exact.
    HistoryManager mgr(2048);
    FoldedHistory *fold = mgr.createFold(130, 11);
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
    const std::uint32_t frontValue = fold->value();

    mgr.restore(past);
    // Re-pushing the identical bits leaves the buffer unchanged, which is
    // the correct-prediction commit case (resolved bit == speculated bit).
    mgr.push(bits[0], 0x200);
    mgr.restore(front);
    EXPECT_EQ(mgr.history().headPointer(), front.head);
    EXPECT_EQ(fold->value(), frontValue);
}

TEST(HistoryManager, PreparedRingKeepsTheDeepestCheckpoint)
{
    // After prepare(N), a checkpoint survives N + 1 younger saves (the
    // in-flight window plus the commit front) and still restores to the
    // recompute() values.  N = 62 makes the ring exactly N + 2 = 64
    // slots, so one more save evicts it.
    constexpr unsigned kInflight = 62;
    HistoryManager mgr(4096);
    FoldedHistory *f1 = mgr.createFold(37, 9);
    FoldedHistory *f2 = mgr.createFold(640, 10);
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
    EXPECT_EQ(f1->value(), ref1.value());
    EXPECT_EQ(f2->value(), ref2.value());

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
