/**
 * @file
 * Corpus-layer tests: pinned characterization statistics for the
 * recorded scenarios and generated kernels, the source-independence
 * property (generated / .imt / .cbp of the same trace characterize
 * identically), serialize round-trips, predictability-class selection
 * with near-miss errors, the process-wide decoded-trace cache, content
 * fingerprints, directory discovery and the persistent
 * characterization cache.
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "src/corpus/characterize.hh"
#include "src/corpus/trace_corpus.hh"
#include "src/trace/cbp_reader.hh"
#include "src/trace/trace_io.hh"
#include "src/workloads/generator_source.hh"
#include "src/workloads/suite.hh"

using namespace imli;

namespace
{

const std::string dataDir = IMLI_TEST_DATA_DIR;

std::string
tempPath(const std::string &leaf, const std::string &ext = "")
{
    // Process-unique (ctest runs discovered tests in parallel
    // processes), with the extension LAST: recorded-backend detection
    // reads it.
    return ::testing::TempDir() + leaf + "." +
           std::to_string(::getpid()) + ext;
}

/** Drain a source into a vector of records (chunk-size independent). */
std::vector<BranchRecord>
drain(BranchSource &source)
{
    std::vector<BranchRecord> records;
    for (BranchSpan span = source.nextChunk(); !span.empty();
         span = source.nextChunk())
        records.insert(records.end(), span.begin(), span.end());
    return records;
}

// ---------------------------------------------------------------------------
// Pinned characterization statistics
// ---------------------------------------------------------------------------

/**
 * The checked-in recorded scenarios and three generated kernels, pinned
 * to their exact serialized characterization.  These lines ARE the
 * characterization schema: a change here is a change to every persisted
 * .char cache file and to the documented --class memberships, so update
 * the README table in the same commit.
 */
struct PinnedChar
{
    const char *name;
    std::size_t budget;
    const char *line;
};

const PinnedChar kPinned[] = {
    {"REC-01", 200000,
     "v1 branches=9745 instructions=53717 conditionals=9739 "
     "static_branches=12 static_conditionals=10 "
     "taken_rate=0.55970838895163777 entropy=0.86232540811265246 "
     "loop_depth=1:79,2:1123"},
    {"REC-02", 200000,
     "v1 branches=7626 instructions=41947 conditionals=7620 "
     "static_branches=9 static_conditionals=7 "
     "taken_rate=0.55183727034120733 entropy=0.85649816379889476 "
     "loop_depth=1:77,2:1180"},
    {"REC-03", 200000,
     "v1 branches=5010 instructions=27438 conditionals=5010 "
     "static_branches=6 static_conditionals=6 "
     "taken_rate=0.49560878243512974 entropy=0.99402762462709027 "
     "loop_depth=-"},
    {"REC-04", 200000,
     "v1 branches=4032 instructions=22286 conditionals=4032 "
     "static_branches=21 static_conditionals=21 "
     "taken_rate=0.91815476190476186 entropy=0.40269782040916652 "
     "loop_depth=-"},
    {"REC-05", 200000,
     "v1 branches=2124 instructions=11603 conditionals=2120 "
     "static_branches=7 static_conditionals=5 "
     "taken_rate=0.57405660377358492 entropy=0.82629197994987225 "
     "loop_depth=1:50,2:468"},
    {"REC-06", 200000,
     "v1 branches=3024 instructions=16639 conditionals=3024 "
     "static_branches=24 static_conditionals=24 "
     "taken_rate=0.5357142857142857 entropy=0.98522813603425152 "
     "loop_depth=-"},
    {"REC-07", 200000,
     "v1 branches=5065 instructions=35328 conditionals=5000 "
     "static_branches=11 static_conditionals=10 "
     "taken_rate=0.75039999999999996 entropy=0.57508701782467231 "
     "loop_depth=-"},
    {"REC-08", 200000,
     "v1 branches=3769 instructions=20595 conditionals=3765 "
     "static_branches=9 static_conditionals=7 "
     "taken_rate=0.58167330677290841 entropy=0.85893553719747451 "
     "loop_depth=1:56,2:624"},
    {"MM-4", 20000,
     "v1 branches=20970 instructions=136319 conditionals=20786 "
     "static_branches=47 static_conditionals=44 "
     "taken_rate=0.70922736457230828 entropy=0.64072021108237853 "
     "loop_depth=1:46,2:529"},
    {"WS03", 20000,
     "v1 branches=20697 instructions=137746 conditionals=20485 "
     "static_branches=53 static_conditionals=48 "
     "taken_rate=0.71657310226995363 entropy=0.6378761875791179 "
     "loop_depth=1:57,2:422"},
    {"SPEC2K6-12", 20000,
     "v1 branches=25052 instructions=168104 conditionals=24788 "
     "static_branches=25 static_conditionals=20 "
     "taken_rate=0.72962723898660642 entropy=0.61362213284964362 "
     "loop_depth=1:95,2:1090"},
};

TEST(Characterization, PinnedSuiteStats)
{
    TraceCorpus corpus = makeSuiteCorpus(dataDir);
    for (const PinnedChar &pin : kPinned) {
        const TraceCharacterization &c =
            corpus.characterize(pin.name, pin.budget);
        EXPECT_EQ(c.serialize(), pin.line) << pin.name;
        // The round-trip must reproduce the record exactly, including
        // the 17-significant-digit rates.
        EXPECT_EQ(TraceCharacterization::deserialize(c.serialize()), c)
            << pin.name;
    }
}

TEST(Characterization, RecordedBudgetIndependent)
{
    // Recorded traces always play whole: the budget must not matter.
    TraceCorpus a = makeSuiteCorpus(dataDir);
    TraceCorpus b = makeSuiteCorpus(dataDir);
    EXPECT_EQ(a.characterize("REC-01", 1000), b.characterize("REC-01",
                                                             1000000));
}

// ---------------------------------------------------------------------------
// Source-independence: generated / .imt / .cbp characterize identically
// ---------------------------------------------------------------------------

TEST(Characterization, IdenticalAcrossTraceSources)
{
    const std::size_t branches = 5000;
    const BenchmarkSpec generated = findBenchmark("MM-4");

    const std::string imtPath = tempPath("charsrc", ".imt");
    const std::string cbpPath = tempPath("charsrc", ".cbp");
    {
        GeneratorBranchSource source(generated, branches);
        writeTraceFile(source, imtPath);
    }
    {
        GeneratorBranchSource source(generated, branches);
        writeCbpFile(source, cbpPath);
    }

    const std::unique_ptr<BranchSource> genSource =
        TraceCorpus::open(generated, branches);
    TraceCharacterization fromGenerated = characterizeSource(*genSource);

    const BenchmarkSpec imt =
        makeRecordedBenchmark("charsrc-imt", "EXT", imtPath);
    const BenchmarkSpec cbp =
        makeRecordedBenchmark("charsrc-cbp", "EXT", cbpPath);
    const std::unique_ptr<BranchSource> imtSource =
        TraceCorpus::open(imt, branches);
    const std::unique_ptr<BranchSource> cbpSource =
        TraceCorpus::open(cbp, branches);
    TraceCharacterization fromImt = characterizeSource(*imtSource);
    TraceCharacterization fromCbp = characterizeSource(*cbpSource);

    EXPECT_EQ(fromGenerated, fromImt);
    EXPECT_EQ(fromGenerated, fromCbp);
    EXPECT_EQ(fromGenerated.serialize(), fromImt.serialize());
    EXPECT_EQ(fromGenerated.serialize(), fromCbp.serialize());

    std::remove(imtPath.c_str());
    std::remove(cbpPath.c_str());
}

TEST(Characterization, MatchesComputeStats)
{
    // characterizeSource and characterizationFromStats(computeStats)
    // share TraceStatsBuilder, so they must agree bit for bit.
    const BenchmarkSpec spec = findBenchmark("WS03");
    const Trace trace = generateTrace(spec, 4000);
    GeneratorBranchSource source(spec, 4000);
    EXPECT_EQ(characterizeSource(source),
              characterizationFromStats(computeStats(trace)));
}

// ---------------------------------------------------------------------------
// Serialization
// ---------------------------------------------------------------------------

TEST(Characterization, SerializeRoundTripEmptyLoopProfile)
{
    TraceCharacterization c;
    c.branches = 10;
    c.instructions = 55;
    c.conditionals = 9;
    c.staticBranches = 3;
    c.staticConditionals = 2;
    c.takenRate = 1.0 / 3.0;
    c.entropy = 0.12345678901234567;
    EXPECT_EQ(TraceCharacterization::deserialize(c.serialize()), c);

    c.loopDepth = {{1, 7}, {3, 2}};
    EXPECT_EQ(TraceCharacterization::deserialize(c.serialize()), c);
    EXPECT_EQ(c.loopBranches(), 9u);
}

TEST(Characterization, DeserializeRejectsTruncationAndGarbage)
{
    TraceCharacterization c;
    c.branches = 5;
    const std::string line = c.serialize();
    // Truncation (a kill mid-write of the cache file) must not parse as
    // a valid record with silently-zero fields.
    EXPECT_THROW(TraceCharacterization::deserialize(
                     line.substr(0, line.size() / 2)),
                 std::runtime_error);
    EXPECT_THROW(TraceCharacterization::deserialize(""),
                 std::runtime_error);
    EXPECT_THROW(TraceCharacterization::deserialize("v2 " +
                                                    line.substr(3)),
                 std::runtime_error);
    EXPECT_THROW(TraceCharacterization::deserialize(
                     line + " unexpected=1"),
                 std::runtime_error);
}

// ---------------------------------------------------------------------------
// Predictability classes
// ---------------------------------------------------------------------------

TEST(CorpusClasses, KnownClassesArePinned)
{
    std::vector<std::string> names;
    for (const CorpusClass &cls : knownClasses())
        names.push_back(cls.name);
    EXPECT_EQ(names, (std::vector<std::string>{
                         "high-entropy", "low-entropy", "loopy",
                         "deep-loopy", "flat", "taken-heavy", "balanced"}));
}

TEST(CorpusClasses, UnknownClassSuggestsNearMiss)
{
    try {
        matchesClass(TraceCharacterization{}, "lopy");
        FAIL() << "expected std::runtime_error";
    } catch (const std::runtime_error &e) {
        const std::string message = e.what();
        EXPECT_NE(message.find("unknown class \"lopy\""),
                  std::string::npos)
            << message;
        EXPECT_NE(message.find("did you mean \"loopy\""),
                  std::string::npos)
            << message;
        EXPECT_NE(message.find("known classes:"), std::string::npos)
            << message;
    }
}

TEST(CorpusClasses, RecordedScenarioMemberships)
{
    // The recorded scenarios' class memberships, from the pinned stats
    // above: REC-01/02/05/08 carry the loop-nest phases (and nest them
    // two deep), REC-03/04/06/07 have no loop-closing branches at all.
    TraceCorpus corpus{recordedSuite(dataDir)};
    const auto names = [](const std::vector<BenchmarkSpec> &specs) {
        std::vector<std::string> out;
        for (const BenchmarkSpec &spec : specs)
            out.push_back(spec.name);
        return out;
    };
    EXPECT_EQ(names(corpus.selectClass("loopy", 200000)),
              (std::vector<std::string>{"REC-01", "REC-02", "REC-05",
                                        "REC-08"}));
    EXPECT_EQ(names(corpus.selectClass("deep-loopy", 200000)),
              (std::vector<std::string>{"REC-01", "REC-02", "REC-05",
                                        "REC-08"}));
    EXPECT_EQ(names(corpus.selectClass("flat", 200000)),
              (std::vector<std::string>{"REC-03", "REC-04", "REC-06",
                                        "REC-07"}));
    EXPECT_EQ(names(corpus.selectClass("taken-heavy", 200000)),
              (std::vector<std::string>{"REC-04", "REC-07"}));
    EXPECT_EQ(names(corpus.selectClass("low-entropy", 200000)),
              (std::vector<std::string>{"REC-04", "REC-07"}));
}

TEST(CorpusClasses, SelectClassRejectsUnknownBeforeCharacterizing)
{
    TraceCorpus corpus{recordedSuite(dataDir)};
    EXPECT_THROW(corpus.selectClass("high-entrop", 200000),
                 std::runtime_error);
}

// ---------------------------------------------------------------------------
// selectSuiteBenchmarks: the shared CLI selection path
// ---------------------------------------------------------------------------

TEST(SelectSuiteBenchmarks, GlobsAndClassStratification)
{
    CorpusQuery query;
    query.patterns = {"MM-4", "WS03"};
    query.targetBranches = 20000;
    const std::vector<BenchmarkSpec> plain = selectSuiteBenchmarks(query);
    ASSERT_EQ(plain.size(), 2u);
    EXPECT_EQ(plain[0].name, "MM-4");
    EXPECT_EQ(plain[1].name, "WS03");

    // Both members are loopy at this budget (pinned above), so the
    // stratified selection keeps both in order.
    query.className = "loopy";
    const std::vector<BenchmarkSpec> loopy = selectSuiteBenchmarks(query);
    ASSERT_EQ(loopy.size(), 2u);
    EXPECT_EQ(loopy[0].name, "MM-4");
    EXPECT_EQ(loopy[1].name, "WS03");
}

TEST(SelectSuiteBenchmarks, ClassMatchingNothingNamesTheClass)
{
    CorpusQuery query;
    query.patterns = {"MM-4", "WS03"};
    query.targetBranches = 20000;
    query.className = "taken-heavy";  // neither kernel qualifies
    try {
        selectSuiteBenchmarks(query);
        FAIL() << "expected std::runtime_error";
    } catch (const std::runtime_error &e) {
        EXPECT_NE(std::string(e.what()).find(
                      "class \"taken-heavy\" matched no benchmark"),
                  std::string::npos)
            << e.what();
    }
}

TEST(SelectSuiteBenchmarks, UnknownClassFailsBeforeSelection)
{
    CorpusQuery query;
    query.patterns = {"MM-4"};
    query.className = "floopy";
    EXPECT_THROW(selectSuiteBenchmarks(query), std::runtime_error);
}

TEST(SelectSuiteBenchmarks, RecSuiteWithoutRecordedDirHints)
{
    CorpusQuery query;
    query.suite = "REC";
    try {
        selectSuiteBenchmarks(query);
        FAIL() << "expected std::runtime_error";
    } catch (const std::runtime_error &e) {
        EXPECT_NE(std::string(e.what()).find("--recorded"),
                  std::string::npos)
            << e.what();
    }
}

TEST(SelectSuiteBenchmarks, InvalidRecordedDirSharedMessage)
{
    CorpusQuery query;
    query.recordedDir = "/nonexistent-recorded-dir";
    try {
        selectSuiteBenchmarks(query);
        FAIL() << "expected std::runtime_error";
    } catch (const std::runtime_error &e) {
        const std::string message = e.what();
        EXPECT_NE(message.find("--recorded:"), std::string::npos)
            << message;
        EXPECT_NE(message.find("is not a directory"), std::string::npos)
            << message;
    }
    // makeSuiteCorpus is the single implementation behind it.
    EXPECT_THROW(makeSuiteCorpus("/nonexistent-recorded-dir"),
                 std::runtime_error);
}

// ---------------------------------------------------------------------------
// TraceCorpus membership
// ---------------------------------------------------------------------------

TEST(TraceCorpus, DuplicateNamesAndLookup)
{
    TraceCorpus corpus;
    corpus.add(findBenchmark("MM-4"));
    EXPECT_TRUE(corpus.contains("MM-4"));
    EXPECT_FALSE(corpus.contains("WS03"));
    EXPECT_EQ(corpus.find("MM-4").name, "MM-4");
    EXPECT_THROW(corpus.add(findBenchmark("MM-4")), std::invalid_argument);
    EXPECT_THROW(corpus.find("nope"), std::out_of_range);
}

// ---------------------------------------------------------------------------
// Content fingerprints
// ---------------------------------------------------------------------------

TEST(Fingerprint, GeneratedIsAFunctionOfSpecAndBudget)
{
    const BenchmarkSpec mm4 = findBenchmark("MM-4");
    const BenchmarkSpec ws03 = findBenchmark("WS03");
    EXPECT_EQ(TraceCorpus::fingerprint(mm4, 20000),
              TraceCorpus::fingerprint(mm4, 20000));
    EXPECT_NE(TraceCorpus::fingerprint(mm4, 20000),
              TraceCorpus::fingerprint(mm4, 40000));
    EXPECT_NE(TraceCorpus::fingerprint(mm4, 20000),
              TraceCorpus::fingerprint(ws03, 20000));
}

TEST(Fingerprint, GeneratedValuesArePinned)
{
    // Fingerprints name persisted .char sidecars and key sweep journals,
    // so how the prefix is read (chunk size, source type) must never
    // move them.
    EXPECT_EQ(TraceCorpus::fingerprint(findBenchmark("MM-4"), 20000),
              0xeccc62c53f8a698aull);
    EXPECT_EQ(TraceCorpus::fingerprint(findBenchmark("WS03"), 200000),
              0xd5bf3097bb1687d4ull);
}

TEST(Fingerprint, RecordedTracksFileBytes)
{
    const std::string path = tempPath("fp", ".cbp");
    {
        GeneratorBranchSource source(findBenchmark("MM-4"), 2000);
        writeCbpFile(source, path);
    }
    const BenchmarkSpec spec = makeRecordedBenchmark("fp", "EXT", path);
    const std::uint64_t before = TraceCorpus::fingerprint(spec, 0);
    EXPECT_EQ(before, TraceCorpus::fingerprint(spec, 12345));
    {
        std::ofstream out(path,
                          std::ios::binary | std::ios::app);
        out << 'x';
    }
    EXPECT_NE(before, TraceCorpus::fingerprint(spec, 0));
    std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// The process-wide decoded-trace cache
// ---------------------------------------------------------------------------

TEST(StreamCache, DecodeOnceThenServeShared)
{
    TraceCorpus::clearStreamCache();
    const BenchmarkSpec spec =
        makeRecordedBenchmark("REC-01", "REC", dataDir + "/rec-01.cbp");

    const std::unique_ptr<BranchSource> first =
        TraceCorpus::open(spec, 200000);
    TraceCorpus::StreamCacheStats stats = TraceCorpus::streamCacheStats();
    EXPECT_EQ(stats.entries, 1u);
    EXPECT_EQ(stats.misses, 1u);
    EXPECT_EQ(stats.hits, 0u);
    EXPECT_GT(stats.bytes, 0u);

    const std::unique_ptr<BranchSource> second =
        TraceCorpus::open(spec, 200000);
    stats = TraceCorpus::streamCacheStats();
    EXPECT_EQ(stats.entries, 1u);
    EXPECT_EQ(stats.hits, 1u);

    // The cached stream carries the benchmark's name and replays the
    // exact record sequence of the streaming reader.
    EXPECT_EQ(first->name(), "REC-01");
    const std::vector<BranchRecord> cached = drain(*first);
    CbpFileBranchSource streamed(dataDir + "/rec-01.cbp", "REC-01");
    const std::vector<BranchRecord> direct = drain(streamed);
    ASSERT_EQ(cached.size(), direct.size());
    for (std::size_t i = 0; i < cached.size(); ++i)
        ASSERT_TRUE(cached[i] == direct[i]) << "record " << i;

    // reset() replays from the start (simulateMany depends on it).
    second->reset();
    EXPECT_EQ(drain(*second).size(), cached.size());

    TraceCorpus::clearStreamCache();
    stats = TraceCorpus::streamCacheStats();
    EXPECT_EQ(stats.entries, 0u);
    EXPECT_EQ(stats.bytes, 0u);
}

TEST(StreamCache, GeneratedSpecsBypassTheCache)
{
    TraceCorpus::clearStreamCache();
    const std::unique_ptr<BranchSource> source =
        TraceCorpus::open(findBenchmark("MM-4"), 2000);
    const TraceCorpus::StreamCacheStats stats =
        TraceCorpus::streamCacheStats();
    EXPECT_EQ(stats.entries, 0u);
    EXPECT_EQ(stats.hits, 0u);
    EXPECT_EQ(stats.misses, 0u);
    // Same stream as the plain factory (generated sources finish their
    // kernel round, so compare against it rather than the raw target).
    const std::unique_ptr<BranchSource> direct =
        makeBranchSource(findBenchmark("MM-4"), 2000);
    EXPECT_EQ(drain(*source).size(), drain(*direct).size());
}

// ---------------------------------------------------------------------------
// Directory discovery
// ---------------------------------------------------------------------------

TEST(FromDirectory, DiscoversSortedTraceFiles)
{
    namespace fs = std::filesystem;
    const std::string dir = tempPath("corpusdir");
    fs::create_directories(dir);
    fs::copy_file(dataDir + "/rec-02.cbp", dir + "/beta.cbp");
    {
        GeneratorBranchSource source(findBenchmark("MM-4"), 1500);
        writeTraceFile(source, dir + "/alpha.imt");
    }
    std::ofstream(dir + "/notes.txt") << "ignored\n";

    const std::vector<BenchmarkSpec> specs =
        TraceCorpus::fromDirectory(dir);
    ASSERT_EQ(specs.size(), 2u);
    EXPECT_EQ(specs[0].name, "alpha");
    EXPECT_EQ(specs[0].backend, TraceBackend::RecordedImt);
    EXPECT_EQ(specs[1].name, "beta");
    EXPECT_EQ(specs[1].backend, TraceBackend::RecordedCbp);
    EXPECT_EQ(specs[0].suite, "EXT");
    EXPECT_EQ(TraceCorpus::fromDirectory(dir, "MINE")[0].suite, "MINE");

    EXPECT_THROW(TraceCorpus::fromDirectory(dir + "/nope"),
                 std::runtime_error);
    fs::remove_all(dir);
}

// ---------------------------------------------------------------------------
// Persistent characterization cache
// ---------------------------------------------------------------------------

TEST(CharCache, PersistsAndReloadsByFingerprint)
{
    namespace fs = std::filesystem;
    const std::string dir = tempPath("charcache");

    TraceCorpus first = makeSuiteCorpus("");
    first.setCharacterizationCacheDir(dir);
    const TraceCharacterization computed =
        first.characterize("MM-4", 20000);

    // Exactly one persisted record, named <benchmark>-<fingerprint>.char.
    std::vector<std::string> files;
    for (const fs::directory_entry &entry : fs::directory_iterator(dir))
        files.push_back(entry.path().filename().string());
    ASSERT_EQ(files.size(), 1u);
    EXPECT_EQ(files[0].rfind("MM-4-", 0), 0u) << files[0];

    // Prove the reload path is really used: doctor the persisted record
    // and a fresh corpus must return the doctored values (fingerprint
    // matches, so the cache is trusted over recomputation).
    TraceCharacterization doctored = computed;
    doctored.branches += 1;
    std::ofstream(dir + "/" + files[0], std::ios::trunc)
        << doctored.serialize() << '\n';

    TraceCorpus second = makeSuiteCorpus("");
    second.setCharacterizationCacheDir(dir);
    EXPECT_EQ(second.characterize("MM-4", 20000), doctored);

    // A different budget is a different fingerprint: recomputed, not
    // served from the doctored record.
    EXPECT_EQ(second.characterize("MM-4", 21000).branches,
              second.characterize("MM-4", 21000).branches);
    EXPECT_NE(second.characterize("MM-4", 21000), doctored);

    fs::remove_all(dir);
}

} // anonymous namespace
