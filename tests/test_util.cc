/**
 * @file
 * Unit tests for src/util: RNG, counters, hashing, tables, CLI, storage.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <sstream>
#include <stdexcept>

#include "src/util/cli.hh"
#include "src/util/counters.hh"
#include "src/util/hashing.hh"
#include "src/util/rng.hh"
#include "src/util/storage.hh"
#include "src/util/table_writer.hh"
#include "src/util/thread_pool.hh"

using namespace imli;

// ---------------------------------------------------------------------------
// RNG
// ---------------------------------------------------------------------------

TEST(Rng, DeterministicFromSeed)
{
    Xoroshiro128 a(42), b(42);
    for (int i = 0; i < 1000; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge)
{
    Xoroshiro128 a(1), b(2);
    int same = 0;
    for (int i = 0; i < 100; ++i)
        if (a.next() == b.next())
            ++same;
    EXPECT_EQ(same, 0);
}

TEST(Rng, BelowStaysInRange)
{
    Xoroshiro128 rng(7);
    for (std::uint64_t bound : {1ULL, 2ULL, 3ULL, 10ULL, 1000ULL}) {
        for (int i = 0; i < 200; ++i)
            EXPECT_LT(rng.below(bound), bound);
    }
}

TEST(Rng, BelowOneAlwaysZero)
{
    Xoroshiro128 rng(9);
    for (int i = 0; i < 50; ++i)
        EXPECT_EQ(rng.below(1), 0u);
}

TEST(Rng, RangeInclusive)
{
    Xoroshiro128 rng(11);
    std::set<std::int64_t> seen;
    for (int i = 0; i < 2000; ++i) {
        const std::int64_t v = rng.range(-3, 3);
        EXPECT_GE(v, -3);
        EXPECT_LE(v, 3);
        seen.insert(v);
    }
    EXPECT_EQ(seen.size(), 7u) << "all values of a small range reachable";
}

TEST(Rng, BernoulliExtremes)
{
    Xoroshiro128 rng(13);
    for (int i = 0; i < 100; ++i) {
        EXPECT_FALSE(rng.bernoulli(0.0));
        EXPECT_TRUE(rng.bernoulli(1.0));
    }
}

TEST(Rng, BernoulliRoughlyCalibrated)
{
    Xoroshiro128 rng(17);
    int hits = 0;
    const int n = 20000;
    for (int i = 0; i < n; ++i)
        hits += rng.bernoulli(0.3) ? 1 : 0;
    const double rate = static_cast<double>(hits) / n;
    EXPECT_NEAR(rate, 0.3, 0.02);
}

TEST(Rng, UniformInUnitInterval)
{
    Xoroshiro128 rng(19);
    double sum = 0.0;
    for (int i = 0; i < 10000; ++i) {
        const double u = rng.uniform();
        ASSERT_GE(u, 0.0);
        ASSERT_LT(u, 1.0);
        sum += u;
    }
    EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(Rng, ForkDecorrelates)
{
    Xoroshiro128 parent(23);
    Xoroshiro128 child1 = parent.fork(1);
    Xoroshiro128 child2 = parent.fork(2);
    int same = 0;
    for (int i = 0; i < 100; ++i)
        if (child1.next() == child2.next())
            ++same;
    EXPECT_EQ(same, 0);
}

TEST(Rng, SplitMixKnownProgression)
{
    // SplitMix64 must never emit two identical consecutive values from a
    // sane seed (would break Xoroshiro seeding).
    SplitMix64 sm(0);
    const std::uint64_t a = sm.next();
    const std::uint64_t b = sm.next();
    EXPECT_NE(a, b);
}

// ---------------------------------------------------------------------------
// SatCounter
// ---------------------------------------------------------------------------

TEST(SatCounter, SaturatesHigh)
{
    SatCounter c(2, 0);
    for (int i = 0; i < 10; ++i)
        c.increment();
    EXPECT_EQ(c.raw(), 3u);
    EXPECT_TRUE(c.taken());
}

TEST(SatCounter, SaturatesLow)
{
    SatCounter c(2, 3);
    for (int i = 0; i < 10; ++i)
        c.decrement();
    EXPECT_EQ(c.raw(), 0u);
    EXPECT_FALSE(c.taken());
}

TEST(SatCounter, MidpointPredictsTaken)
{
    SatCounter c(3, 4); // midpoint of 3-bit counter
    EXPECT_TRUE(c.taken());
    c.decrement();
    EXPECT_FALSE(c.taken());
}

TEST(SatCounter, WeakStates)
{
    SatCounter c(2, 1);
    EXPECT_TRUE(c.isWeak());
    c.increment();
    EXPECT_TRUE(c.isWeak()); // value 2 == midpoint
    c.increment();
    EXPECT_FALSE(c.isWeak());
}

TEST(SatCounter, ResetDirections)
{
    SatCounter c(2);
    c.reset(true);
    EXPECT_TRUE(c.taken());
    EXPECT_TRUE(c.isWeak());
    c.reset(false);
    EXPECT_FALSE(c.taken());
    EXPECT_TRUE(c.isWeak());
}

TEST(SatCounter, UpdateMovesTowardsOutcome)
{
    SatCounter c(2, 1);
    c.update(true);
    EXPECT_EQ(c.raw(), 2u);
    c.update(false);
    EXPECT_EQ(c.raw(), 1u);
}

// ---------------------------------------------------------------------------
// SignedCounter
// ---------------------------------------------------------------------------

TEST(SignedCounter, Bounds)
{
    SignedCounter c(6);
    EXPECT_EQ(c.maxValue(), 31);
    EXPECT_EQ(c.minValue(), -32);
    // One bit is a sign vote: [-1, 0], centred values -1 and +1.
    SignedCounter sign(1);
    EXPECT_EQ(sign.maxValue(), 0);
    EXPECT_EQ(sign.minValue(), -1);
    sign.update(true);
    EXPECT_EQ(sign.centered(), 1);
    sign.update(false);
    sign.update(false);
    EXPECT_EQ(sign.centered(), -1);
}

TEST(SignedCounter, SaturatesBothWays)
{
    SignedCounter c(4);
    for (int i = 0; i < 20; ++i)
        c.update(true);
    EXPECT_EQ(c.raw(), 7);
    for (int i = 0; i < 40; ++i)
        c.update(false);
    EXPECT_EQ(c.raw(), -8);
}

TEST(SignedCounter, CenteredNeverZero)
{
    SignedCounter c(6);
    for (int i = 0; i < 100; ++i) {
        EXPECT_NE(c.centered(), 0);
        c.update((i & 3) != 0);
    }
}

TEST(SignedCounter, CenteredFormula)
{
    SignedCounter c(6, 5);
    EXPECT_EQ(c.centered(), 11);
    c.set(-3);
    EXPECT_EQ(c.centered(), -5);
}

TEST(SignedCounter, SignPrediction)
{
    SignedCounter c(6, 0);
    EXPECT_TRUE(c.taken()); // zero counts as weakly taken
    c.set(-1);
    EXPECT_FALSE(c.taken());
}

// ---------------------------------------------------------------------------
// Hashing
// ---------------------------------------------------------------------------

TEST(Hashing, Mix64Bijective)
{
    // mix64 is a bijection; distinct inputs produce distinct outputs.
    std::set<std::uint64_t> outs;
    for (std::uint64_t i = 0; i < 1000; ++i)
        outs.insert(mix64(i));
    EXPECT_EQ(outs.size(), 1000u);
}

TEST(Hashing, FoldBitsWidth)
{
    Xoroshiro128 rng(3);
    for (unsigned bits : {1u, 5u, 9u, 13u, 31u}) {
        for (int i = 0; i < 100; ++i)
            EXPECT_LT(foldBits(rng.next(), bits), 1ULL << bits);
    }
}

TEST(Hashing, FoldBitsPreservesFullWidth)
{
    EXPECT_EQ(foldBits(0xdeadbeefULL, 64), 0xdeadbeefULL);
}

TEST(Hashing, MaskBits)
{
    EXPECT_EQ(maskBits(0), 0u);
    EXPECT_EQ(maskBits(4), 0xfu);
    EXPECT_EQ(maskBits(64), ~0ULL);
}

TEST(Hashing, PowerOfTwo)
{
    EXPECT_TRUE(isPowerOfTwo(1));
    EXPECT_TRUE(isPowerOfTwo(1024));
    EXPECT_FALSE(isPowerOfTwo(0));
    EXPECT_FALSE(isPowerOfTwo(3));
    EXPECT_FALSE(isPowerOfTwo(1023));
}

TEST(Hashing, CeilLog2)
{
    EXPECT_EQ(ceilLog2(1), 0u);
    EXPECT_EQ(ceilLog2(2), 1u);
    EXPECT_EQ(ceilLog2(3), 2u);
    EXPECT_EQ(ceilLog2(1024), 10u);
    EXPECT_EQ(ceilLog2(1025), 11u);
}

// ---------------------------------------------------------------------------
// TableWriter
// ---------------------------------------------------------------------------

TEST(TableWriter, AlignedOutputContainsCells)
{
    TableWriter t("caption");
    t.setHeader({"name", "value"});
    t.addRow({"alpha", "1.5"});
    t.addRow({"b", "20"});
    std::ostringstream os;
    t.print(os);
    const std::string s = os.str();
    EXPECT_NE(s.find("caption"), std::string::npos);
    EXPECT_NE(s.find("alpha"), std::string::npos);
    EXPECT_NE(s.find("20"), std::string::npos);
    EXPECT_EQ(t.numRows(), 2u);
}

TEST(TableWriter, CsvEscapesCommas)
{
    TableWriter t;
    t.setHeader({"a", "b"});
    t.addRow({"x,y", "2"});
    std::ostringstream os;
    t.printCsv(os);
    EXPECT_NE(os.str().find("\"x,y\""), std::string::npos);
}

TEST(TableWriter, SeparatorRowsNotCounted)
{
    TableWriter t;
    t.setHeader({"a"});
    t.addRow({"1"});
    t.addSeparator();
    t.addRow({"2"});
    EXPECT_EQ(t.numRows(), 2u);
}

TEST(TableWriter, Formatters)
{
    EXPECT_EQ(formatDouble(1.23456, 2), "1.23");
    EXPECT_EQ(formatDelta(0.5, 1), "+0.5");
    EXPECT_EQ(formatDelta(-0.5, 1), "-0.5");
    EXPECT_EQ(formatPercent(-0.068, 1), "-6.8 %");
}

// ---------------------------------------------------------------------------
// CommandLine
// ---------------------------------------------------------------------------

TEST(CommandLine, ParsesEqualsForm)
{
    const char *argv[] = {"prog", "--alpha=3", "--name=x"};
    CommandLine cli(3, argv);
    EXPECT_EQ(cli.getInt("alpha", 0), 3);
    EXPECT_EQ(cli.getString("name"), "x");
}

TEST(CommandLine, ParsesSpaceForm)
{
    const char *argv[] = {"prog", "--count", "17"};
    CommandLine cli(3, argv);
    EXPECT_EQ(cli.getInt("count", 0), 17);
}

TEST(CommandLine, BooleanFlags)
{
    const char *argv[] = {"prog", "--verbose", "--csv=false"};
    CommandLine cli(3, argv);
    EXPECT_TRUE(cli.getBool("verbose"));
    EXPECT_FALSE(cli.getBool("csv"));
    EXPECT_FALSE(cli.getBool("absent"));
}

TEST(CommandLine, Positionals)
{
    const char *argv[] = {"prog", "generate", "--out=x", "extra"};
    CommandLine cli(4, argv);
    ASSERT_EQ(cli.positionals().size(), 2u);
    EXPECT_EQ(cli.positionals()[0], "generate");
    EXPECT_EQ(cli.positionals()[1], "extra");
}

TEST(CommandLine, DefaultsOnMissingFlags)
{
    const char *argv[] = {"prog"};
    CommandLine cli(1, argv);
    EXPECT_EQ(cli.getInt("num", 42), 42);
    EXPECT_EQ(cli.getDouble("pi", 3.14), 3.14);
}

TEST(CommandLine, MalformedNumericValuesThrow)
{
    // Strict-parse policy: "--branches 10x" must fail loudly instead of
    // silently running the wrong experiment with the default.
    {
        const char *argv[] = {"prog", "--num=abc", "--branches=10x"};
        CommandLine cli(3, argv);
        EXPECT_THROW(cli.getInt("num", 42), std::runtime_error);
        EXPECT_THROW(cli.getInt("branches", 0), std::runtime_error);
        EXPECT_THROW(cli.getDouble("num", 1.0), std::runtime_error);
    }
    {
        const char *argv[] = {"prog", "--pi=3.14.15"};
        CommandLine cli(2, argv);
        EXPECT_THROW(cli.getDouble("pi", 3.14), std::runtime_error);
    }
    {
        // Present without a value is malformed for numeric flags.
        const char *argv[] = {"prog", "--num"};
        CommandLine cli(2, argv);
        EXPECT_THROW(cli.getInt("num", 42), std::runtime_error);
        EXPECT_THROW(cli.getDouble("num", 1.0), std::runtime_error);
    }
    {
        // Overflow clamps inside strtoll/strtod with a clean end pointer;
        // the strict parse must still reject it.
        const char *argv[] = {"prog", "--big=99999999999999999999",
                              "--huge=1e999"};
        CommandLine cli(3, argv);
        EXPECT_THROW(cli.getInt("big", 0), std::runtime_error);
        EXPECT_THROW(cli.getDouble("huge", 0.0), std::runtime_error);
    }
    {
        // The error names the flag, so the user can find the typo.
        const char *argv[] = {"prog", "--branches=10x"};
        CommandLine cli(2, argv);
        try {
            cli.getInt("branches", 0);
            FAIL() << "expected std::runtime_error";
        } catch (const std::runtime_error &e) {
            EXPECT_NE(std::string(e.what()).find("--branches"),
                      std::string::npos);
            EXPECT_NE(std::string(e.what()).find("10x"), std::string::npos);
        }
    }
}

TEST(CommandLine, GetCountRejectsNegativesButKeepsDefaults)
{
    // A negative count must throw, not wrap to 1.8e19 in a size_t cast
    // ("--branches -5" would otherwise try to run ~2^64 branches).
    const char *argv[] = {"prog", "--branches", "-5", "--window", "64"};
    CommandLine cli(5, argv);
    EXPECT_THROW(cli.getCount("branches", 1000), std::runtime_error);
    EXPECT_EQ(cli.getCount("window", 1), 64u);
    EXPECT_EQ(cli.getCount("absent", 42), 42u);
}

TEST(CommandLine, NegativeNumberLookaheadIsAValue)
{
    // "--bias -0.3" space form: the '-0.3' must be consumed as the value,
    // not mistaken for the next flag (which silently dropped it before).
    const char *argv[] = {"prog", "--bias", "-0.3", "--shift", "-12",
                          "--frac", "-.5", "--verbose"};
    CommandLine cli(8, argv);
    EXPECT_DOUBLE_EQ(cli.getDouble("bias", 0.0), -0.3);
    EXPECT_EQ(cli.getInt("shift", 0), -12);
    EXPECT_DOUBLE_EQ(cli.getDouble("frac", 0.0), -0.5);
    EXPECT_TRUE(cli.getBool("verbose"));
    EXPECT_TRUE(cli.positionals().empty());
}

TEST(CommandLine, FlagLookaheadIsNotAValue)
{
    // A following flag (or bare "-") must not be swallowed as a value.
    const char *argv[] = {"prog", "--csv", "--jobs", "4", "--in", "-"};
    CommandLine cli(6, argv);
    EXPECT_TRUE(cli.getBool("csv"));
    EXPECT_EQ(cli.getJobs(1), 4u);
    EXPECT_EQ(cli.getString("in", "absent"), "");
    ASSERT_EQ(cli.positionals().size(), 1u);
    EXPECT_EQ(cli.positionals()[0], "-");
}

TEST(CommandLine, DoubleDashEndsFlagParsing)
{
    const char *argv[] = {"prog", "--jobs", "2", "--", "--not-a-flag",
                          "positional"};
    CommandLine cli(6, argv);
    EXPECT_EQ(cli.getJobs(1), 2u);
    EXPECT_FALSE(cli.has("not-a-flag"));
    ASSERT_EQ(cli.positionals().size(), 2u);
    EXPECT_EQ(cli.positionals()[0], "--not-a-flag");
    EXPECT_EQ(cli.positionals()[1], "positional");
}

TEST(CommandLine, BareDoubleDashAloneYieldsNoPositionals)
{
    const char *argv[] = {"prog", "--"};
    CommandLine cli(2, argv);
    EXPECT_TRUE(cli.positionals().empty());
}

TEST(CommandLine, GetJobsParsesCountAutoAndZero)
{
    {
        const char *argv[] = {"prog", "--jobs=6"};
        EXPECT_EQ(CommandLine(2, argv).getJobs(1), 6u);
    }
    {
        const char *argv[] = {"prog", "--jobs=auto"};
        EXPECT_EQ(CommandLine(2, argv).getJobs(1),
                  ThreadPool::hardwareThreads());
    }
    {
        const char *argv[] = {"prog", "--jobs=0"};
        EXPECT_EQ(CommandLine(2, argv).getJobs(1),
                  ThreadPool::hardwareThreads());
    }
    {
        const char *argv[] = {"prog"};
        EXPECT_EQ(CommandLine(1, argv).getJobs(3), 3u);
    }
}

TEST(CommandLine, GetJobsRejectsGarbageAndClampsHuge)
{
    {
        // strtoul would wrap "-1" to ULONG_MAX; must fall back instead.
        const char *argv[] = {"prog", "--jobs=-1"};
        EXPECT_EQ(CommandLine(2, argv).getJobs(1), 1u);
    }
    {
        const char *argv[] = {"prog", "--jobs=2x"};
        EXPECT_EQ(CommandLine(2, argv).getJobs(5), 5u);
    }
    {
        const char *argv[] = {"prog", "--jobs=999999999999"};
        EXPECT_EQ(CommandLine(2, argv).getJobs(1),
                  static_cast<unsigned>(ThreadPool::maxJobs));
    }
}

TEST(CommandLine, RejectUnreadFlagsPassesWhenEveryFlagWasRead)
{
    const char *argv[] = {"prog", "--jobs", "2", "--csv",
                          "--metrics=m.json", "--dim", "a"};
    CommandLine cli(7, argv);
    EXPECT_EQ(cli.getJobs(1), 2u);
    EXPECT_TRUE(cli.getBool("csv"));
    EXPECT_TRUE(cli.has("metrics")); // presence alone counts as a read
    EXPECT_EQ(cli.getList("dim").size(), 1u);
    EXPECT_NO_THROW(cli.rejectUnreadFlags());
}

TEST(CommandLine, RejectUnreadFlagsNamesTheUnreadFlag)
{
    const char *argv[] = {"prog", "--jobs", "4", "--prefetch", "16"};
    CommandLine cli(5, argv);
    EXPECT_EQ(cli.getJobs(1), 4u);
    try {
        cli.rejectUnreadFlags();
        FAIL() << "an unread --prefetch must throw";
    } catch (const std::runtime_error &e) {
        EXPECT_STREQ(e.what(), "unknown flag --prefetch");
    }

    // A typo of a real flag is just as unread.
    const char *typo[] = {"prog", "--jobz", "4"};
    CommandLine typoCli(3, typo);
    EXPECT_EQ(typoCli.getJobs(1), 1u);
    EXPECT_THROW(typoCli.rejectUnreadFlags(), std::runtime_error);
}

TEST(CommandLine, RejectUnreadFlagsIgnoresPositionalsAfterDoubleDash)
{
    const char *argv[] = {"prog", "--csv", "--", "--prefetch", "16"};
    CommandLine cli(5, argv);
    EXPECT_TRUE(cli.getBool("csv"));
    ASSERT_EQ(cli.positionals().size(), 2u);
    EXPECT_NO_THROW(cli.rejectUnreadFlags());
}

// ---------------------------------------------------------------------------
// StorageAccount
// ---------------------------------------------------------------------------

TEST(Storage, TotalsAndBytes)
{
    StorageAccount acct;
    acct.add("a", 10);
    acct.add("b", 6);
    EXPECT_EQ(acct.totalBits(), 16u);
    EXPECT_EQ(acct.totalBytes(), 2u);
    acct.add("c", 1);
    EXPECT_EQ(acct.totalBytes(), 3u); // rounds up
}

TEST(Storage, MergePrefixes)
{
    StorageAccount child;
    child.add("table", 100);
    StorageAccount parent;
    parent.merge("sub", child);
    ASSERT_EQ(parent.items().size(), 1u);
    EXPECT_EQ(parent.items()[0].name, "sub/table");
    EXPECT_EQ(parent.totalBits(), 100u);
}

TEST(Storage, KbitsConversion)
{
    StorageAccount acct;
    acct.add("x", 2048);
    EXPECT_DOUBLE_EQ(acct.totalKbits(), 2.0);
}
