/**
 * @file
 * Tests for the design-space exploration subsystem: the spec-override
 * grammar round trip, parameter-space expansion, the resumable sweep
 * journal (bit-identity across worker counts and kill/resume), the
 * shard/plan/merge orchestration (fragment byte-identity, truncated-
 * fragment recovery), and the Pareto layer against an O(n^2) dominance
 * oracle.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <map>
#include <set>
#include <sstream>

#include "src/dse/param_space.hh"
#include "src/dse/pareto.hh"
#include "src/dse/sweep.hh"
#include "src/obs/metrics.hh"
#include "src/predictors/zoo.hh"
#include "src/sim/simulator.hh"
#include "src/sim/suite_runner.hh"
#include "src/util/rng.hh"
#include "src/workloads/suite.hh"

using namespace imli;

namespace
{

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(static_cast<bool>(in)) << path;
    std::ostringstream buffer;
    buffer << in.rdbuf();
    return buffer.str();
}

void
writeFile(const std::string &path, const std::string &content)
{
    std::ofstream os(path, std::ios::binary | std::ios::trunc);
    ASSERT_TRUE(static_cast<bool>(os)) << path;
    os << content;
}

std::string
tmpPath(const std::string &leaf)
{
    return ::testing::TempDir() + "/" + leaf;
}

} // anonymous namespace

// ---------------------------------------------------------------------------
// Spec grammar: canonical round trip.
// ---------------------------------------------------------------------------

TEST(SpecGrammar, KnownSpecsAreCanonicalFixedPoints)
{
    for (const std::string &spec : knownSpecs()) {
        EXPECT_EQ(canonicalSpec(spec), spec);
        EXPECT_EQ(describeConfig(parseSpec(spec)), canonicalSpec(spec));
    }
}

struct RoundTrip
{
    const char *input;
    const char *canonical;
};

// Print the case as its input spec.  Without this gtest prints the two
// pointers' bytes, and the CTest name (gtest_discover_tests uses the
// printed value) would change with every build and every ASLR base.
void
PrintTo(const RoundTrip &rt, std::ostream *os)
{
    *os << ::testing::PrintToString(std::string(rt.input));
}

class SpecRoundTrip : public ::testing::TestWithParam<RoundTrip>
{
};

TEST_P(SpecRoundTrip, DescribeEqualsCanonical)
{
    const RoundTrip &rt = GetParam();
    EXPECT_EQ(canonicalSpec(rt.input), rt.canonical);
    // The acceptance identity: describeConfig(parse(s)) == canonical(s).
    EXPECT_EQ(describeConfig(parseSpec(rt.input)), canonicalSpec(rt.input));
    // Canonical forms are fixed points.
    EXPECT_EQ(canonicalSpec(rt.canonical), rt.canonical);
    // And every canonical spec constructs.
    EXPECT_NE(makePredictor(rt.input), nullptr);
}

INSTANTIATE_TEST_SUITE_P(
    OverrideCombinations, SpecRoundTrip,
    ::testing::Values(
        RoundTrip{"tage-gsc+sic@sic.logsize=9",
                  "tage-gsc+sic@sic.logsize=9"},
        RoundTrip{"tage-gsc+sic@sic.logsize=9,sic.logsize=10",
                  "tage-gsc+sic@sic.logsize=10"},
        RoundTrip{"tage-gsc+i@sic.weight=2,oh.weight=2",
                  "tage-gsc+i@oh.weight=2,sic.weight=2"},
        RoundTrip{"tage-gsc+sic@tage.tables=10",
                  "tage-gsc+sic@tage.tables=10"},
        RoundTrip{"tage-gsc+i@sic.logsize=9,oh.logsize=9",
                  "tage-gsc+i@oh.logsize=9,sic.logsize=9"},
        RoundTrip{"tage-gsc+i+l@loop.logsets=3",
                  "tage-gsc+i+l@loop.logsets=3"},
        RoundTrip{"tage-gsc+loop@loop.ways=2", "tage-gsc+loop@loop.ways=2"},
        RoundTrip{"tage-gsc+wh@wh.entries=14", "tage-gsc+wh@wh.entries=14"},
        RoundTrip{"tage-gsc+sic+wh@wh.histbits=512,sic.logsize=8",
                  "tage-gsc+sic+wh@sic.logsize=8,wh.histbits=512"},
        RoundTrip{"tage-gsc+sic+omli@imli.ctrbits=12",
                  "tage-gsc+sic+omli@imli.ctrbits=12"},
        RoundTrip{"tage-gsc+i+imligsc@gsc.tables=8",
                  "tage-gsc+i+imligsc@gsc.tables=8"},
        RoundTrip{"tage-gsc+oh@outer.pipe=32,outer.bits=2048",
                  "tage-gsc+oh@outer.bits=2048,outer.pipe=32"},
        RoundTrip{"tage-gsc@tage.minhist=2,tage.maxhist=1000",
                  "tage-gsc@tage.maxhist=1000,tage.minhist=2"},
        RoundTrip{"tage-gsc@bias.tables=3,bias.logsize=8",
                  "tage-gsc@bias.logsize=8,bias.tables=3"},
        RoundTrip{"tage-gsc+oh@oh.delay=16", "tage-gsc+oh@oh.delay=16"},
        RoundTrip{"tage-gsc@gsc.tables=4,gsc.logsize=9,gsc.ctrbits=5",
                  "tage-gsc@gsc.ctrbits=5,gsc.logsize=9,gsc.tables=4"},
        RoundTrip{"gehl@gsc.tables=12", "gehl@gsc.tables=12"},
        RoundTrip{"gehl+sic@sic.logsize=7", "gehl+sic@sic.logsize=7"},
        RoundTrip{"gehl+i@oh.ctrbits=5,imli.ctrbits=8",
                  "gehl+i@imli.ctrbits=8,oh.ctrbits=5"},
        RoundTrip{"gehl+l@local.tables=2,local.logsize=9",
                  "gehl+l@local.logsize=9,local.tables=2"},
        RoundTrip{"gehl@gsc.minhist=1,gsc.maxhist=400",
                  "gehl@gsc.maxhist=400,gsc.minhist=1"},
        RoundTrip{"gehl+wh@wh.entries=3,loop.logsets=4",
                  "gehl+wh@loop.logsets=4,wh.entries=3"},
        // Add-on order canonicalization rides along with overrides.
        RoundTrip{"tage-gsc+wh+sic@sic.weight=1",
                  "tage-gsc+sic+wh@sic.weight=1"},
        RoundTrip{"tage-gsc+oh+sic", "tage-gsc+i"},
        RoundTrip{"tage-gsc+l+loop", "tage-gsc+l"}));

TEST(SpecGrammar, RejectsBadOverrides)
{
    // Unknown keys / hosts.
    EXPECT_THROW(parseSpec("tage-gsc@bogus.key=1"), std::invalid_argument);
    EXPECT_THROW(parseSpec("tage-gsc@siclogsize=9"), std::invalid_argument);
    EXPECT_THROW(parseSpec("bimodal@tage.tables=4"), std::invalid_argument);
    EXPECT_THROW(parseSpec("gshare@sic.logsize=9"), std::invalid_argument);
    // tage.* keys only exist on the tage-gsc host.
    EXPECT_THROW(parseSpec("gehl@tage.tables=4"), std::invalid_argument);
    EXPECT_THROW(parseSpec("gehl@bias.logsize=8"), std::invalid_argument);
    // Range and power-of-two checks.
    EXPECT_THROW(parseSpec("tage-gsc@sic.logsize=3"), std::invalid_argument);
    EXPECT_THROW(parseSpec("tage-gsc@sic.logsize=17"),
                 std::invalid_argument);
    EXPECT_THROW(parseSpec("tage-gsc@outer.bits=1000"),
                 std::invalid_argument);
    EXPECT_THROW(parseSpec("tage-gsc@outer.pipe=24"), std::invalid_argument);
    // Malformed sections.
    EXPECT_THROW(parseSpec("tage-gsc@"), std::invalid_argument);
    EXPECT_THROW(parseSpec("tage-gsc@sic.logsize"), std::invalid_argument);
    EXPECT_THROW(parseSpec("tage-gsc@=5"), std::invalid_argument);
    EXPECT_THROW(parseSpec("tage-gsc@sic.logsize="), std::invalid_argument);
    EXPECT_THROW(parseSpec("tage-gsc@sic.logsize=abc"),
                 std::invalid_argument);
    EXPECT_THROW(parseSpec("tage-gsc@sic.logsize=-1"),
                 std::invalid_argument);
    EXPECT_THROW(parseSpec("tage-gsc@sic.logsize=9,,oh.logsize=8"),
                 std::invalid_argument);
    EXPECT_THROW(parseSpec("tage-gsc@sic.logsize=9,"),
                 std::invalid_argument);
    EXPECT_THROW(parseSpec("tage-gsc@a=1@b=2"), std::invalid_argument);
    // An empty meta arm is an error, not an arm to drop.
    for (const char *spec : {"meta(gshare,)", "meta(,gshare)",
                             "meta(gshare,,bimodal)", "meta(,)"}) {
        try {
            parseSpec(spec);
            ADD_FAILURE() << spec << " was accepted";
        } catch (const std::invalid_argument &e) {
            EXPECT_NE(std::string(e.what()).find("empty sub-spec"),
                      std::string::npos)
                << spec << ": " << e.what();
        }
    }
    // Cross-parameter constraints.
    EXPECT_THROW(parseSpec("tage-gsc@tage.maxhist=8"),
                 std::invalid_argument);
    EXPECT_THROW(makePredictor("tage-gsc@tage.minhist=50,tage.maxhist=60"),
                 std::invalid_argument);
    EXPECT_THROW(makePredictor("tage-gsc@gsc.maxhist=8,gsc.tables=8"),
                 std::invalid_argument);
    // gsc.minhist participates in the fit check: 16 strictly increasing
    // lengths cannot fit in [250, 256] (the rounding bump would push
    // past the declared maxhist).
    EXPECT_THROW(
        parseSpec("tage-gsc@gsc.minhist=250,gsc.maxhist=256,gsc.tables=16"),
        std::invalid_argument);
    EXPECT_THROW(
        parseSpec("gehl@gsc.minhist=250,gsc.maxhist=256,gsc.tables=16"),
        std::invalid_argument);
    EXPECT_NO_THROW(
        parseSpec("tage-gsc@gsc.minhist=100,gsc.maxhist=256,gsc.tables=16"));
    // The PIPE checkpoint packs into 32 bits: in-range-looking widths
    // beyond that must be rejected, not corrupt speculative state.
    EXPECT_THROW(parseSpec("tage-gsc+oh@outer.pipe=64"),
                 std::invalid_argument);
    EXPECT_NO_THROW(parseSpec("tage-gsc+oh@outer.pipe=32"));
    // Outer-history geometry: 2^iterlog slots must fit in the table.
    EXPECT_THROW(parseSpec("tage-gsc+oh@outer.bits=64,outer.iterlog=10"),
                 std::invalid_argument);
    EXPECT_NO_THROW(
        parseSpec("tage-gsc+oh@outer.bits=1024,outer.iterlog=10"));
    // +sic hashes the IMLI counter into the last 2 gsc tables; a bank
    // smaller than that would silently lose the insertion.
    EXPECT_THROW(parseSpec("tage-gsc+sic@gsc.tables=1"),
                 std::invalid_argument);
    EXPECT_NO_THROW(parseSpec("tage-gsc+sic@gsc.tables=2"));
    EXPECT_NO_THROW(parseSpec("tage-gsc@gsc.tables=1"));
    // Overrides of disabled components are rejected: sweeping them
    // would simulate identical points and fake a Pareto spread.
    EXPECT_THROW(parseSpec("tage-gsc@sic.logsize=9"),
                 std::invalid_argument);
    EXPECT_THROW(parseSpec("tage-gsc+sic@oh.logsize=9"),
                 std::invalid_argument);
    EXPECT_THROW(parseSpec("tage-gsc@outer.bits=2048"),
                 std::invalid_argument);
    EXPECT_THROW(parseSpec("gehl@wh.entries=3"), std::invalid_argument);
    EXPECT_THROW(parseSpec("tage-gsc@loop.ways=2"), std::invalid_argument);
    EXPECT_THROW(parseSpec("gehl+loop@local.tables=2"),
                 std::invalid_argument);
    EXPECT_THROW(parseSpec("tage-gsc@imli.ctrbits=12"),
                 std::invalid_argument);
    // ... while the enabling add-on makes the same key legal.
    EXPECT_NO_THROW(parseSpec("tage-gsc+sic@sic.logsize=9"));
    EXPECT_NO_THROW(parseSpec("tage-gsc+wh@loop.ways=2"));
    EXPECT_NO_THROW(parseSpec("gehl+l@local.tables=2"));
}

TEST(SpecGrammar, OverridesReachTheConfigStructs)
{
    const TageGscPredictor::Config tcfg = buildTageGscConfig(parseSpec(
        "tage-gsc+i@tage.tables=10,tage.logsize=11,sic.logsize=10,"
        "oh.delay=8,outer.bits=2048"));
    EXPECT_EQ(tcfg.tage.numTables, 10u);
    EXPECT_EQ(tcfg.tage.logEntries, 11u);
    EXPECT_EQ(tcfg.imli.sic.logEntries, 10u);
    EXPECT_EQ(tcfg.imli.ohUpdateDelay, 8u);
    EXPECT_EQ(tcfg.imli.outer.tableBits, 2048u);
    EXPECT_TRUE(tcfg.imli.enableSic);

    const GehlPredictor::Config gcfg = buildGehlConfig(
        parseSpec("gehl+i@gsc.tables=12,gsc.maxhist=300,sic.weight=2"));
    EXPECT_EQ(gcfg.gsc.numTables, 12u);
    EXPECT_EQ(gcfg.gsc.maxHistory, 300u);
    EXPECT_EQ(gcfg.imli.sic.weight, 2);

    // The display name carries the canonical override suffix.
    EXPECT_EQ(makePredictor("tage-gsc+sic@sic.logsize=10")->name(),
              "TAGE-GSC+SIC@sic.logsize=10");

    // The builders are public API over an aggregate: a hand-built
    // ParsedSpec with an unknown or wrong-host key must throw, not
    // crash through a null apply slot.
    ParsedSpec bogus;
    bogus.host = "gehl";
    bogus.overrides.push_back({"tage.tables", 4});
    EXPECT_THROW(buildGehlConfig(bogus), std::invalid_argument);
    bogus.overrides[0].key = "no.such.key";
    EXPECT_THROW(buildGehlConfig(bogus), std::invalid_argument);
    bogus.host = "tage-gsc";
    EXPECT_THROW(buildTageGscConfig(bogus), std::invalid_argument);
    // Hosts without overridable geometry reject hand-built overrides
    // too (parseSpec already does; the struct path must match).
    bogus.host = "bimodal";
    bogus.overrides[0].key = "tage.tables";
    EXPECT_THROW(makePredictor(bogus), std::invalid_argument);
}

TEST(SpecGrammar, OverriddenPredictorSimulates)
{
    const Trace t = generateTrace(findBenchmark("WS03"), 4000);
    // The second spec sits at the bottom of every counter-width range.
    for (const char *spec :
         {"tage-gsc+sic@sic.logsize=4,tage.logsize=8",
          "tage-gsc+i@gsc.ctrbits=1,oh.ctrbits=1,sic.ctrbits=1,"
          "tage.ctrbits=1"}) {
        PredictorPtr pred = makePredictor(spec);
        const SimResult r = simulate(*pred, t);
        EXPECT_GT(r.conditionals, 0u) << spec;
        EXPECT_GT(r.accuracy(), 0.5) << spec;
    }
}

TEST(SpecGrammar, KnownOverrideKeysAreSortedAndDocumented)
{
    const std::vector<OverrideKeyInfo> keys = knownOverrideKeys();
    ASSERT_FALSE(keys.empty());
    for (std::size_t i = 0; i < keys.size(); ++i) {
        EXPECT_FALSE(keys[i].doc.empty()) << keys[i].key;
        EXPECT_LT(keys[i].minValue, keys[i].maxValue) << keys[i].key;
        if (i > 0)
            EXPECT_LT(keys[i - 1].key, keys[i].key);
    }
}

namespace
{

/**
 * describeConfigDetail without its spec/name echo lines, which repeat
 * the override text itself: what is left is the resolved geometry and
 * the storage total.
 */
std::string
resolvedDetail(const ParsedSpec &parsed)
{
    std::istringstream in(describeConfigDetail(parsed));
    std::string line;
    std::string out;
    while (std::getline(in, line))
        if (line.rfind("spec:", 0) != 0 && line.rfind("name:", 0) != 0)
            out += line + '\n';
    return out;
}

} // anonymous namespace

TEST(SpecGrammar, EveryOverrideKeyReachesItsHostsAndOnlyThem)
{
    // The expected hosts come from the key's component prefix, not from
    // the key table: tage.* / bias.* are the TAGE-GSC core, meta.* the
    // chooser, sim.* run-level, everything else a component both
    // composite hosts share.
    const std::map<std::string, std::string> addonFor = {
        {"imli", "+sic"}, {"itl", "+itl"},   {"local", "+l"},
        {"loop", "+loop"}, {"oh", "+oh"},    {"outer", "+oh"},
        {"sic", "+sic"},  {"wh", "+wh"}};
    const std::map<std::string, std::string> policyFor = {
        {"meta.countbits", "ucb"}, {"meta.explore", "ucb"},
        {"meta.theta", "fusion"},  {"meta.wbits", "fusion"}};
    for (const OverrideKeyInfo &info : knownOverrideKeys()) {
        const std::string prefix = info.key.substr(0, info.key.find('.'));
        std::set<std::string> hosts = {"tage-gsc", "gehl"};
        if (prefix == "tage" || prefix == "bias")
            hosts = {"tage-gsc"};
        else if (prefix == "meta")
            hosts = {"meta"};
        else if (prefix == "sim")
            hosts = {"tage-gsc", "gehl", "meta"};
        for (const std::string host :
             {"tage-gsc", "gehl", "meta", "bimodal", "gshare", "itl"}) {
            SCOPED_TRACE(info.key + " on " + host);
            // The base spec carries what the key needs to take effect:
            // its component's add-on, or the meta policy that reads it.
            std::string base = host;
            std::string sep = "@";
            if (host == "meta") {
                base = "meta(gshare,bimodal)";
                const auto policy = policyFor.find(info.key);
                if (policy != policyFor.end()) {
                    base += "@meta.policy=" + policy->second;
                    sep = ",";
                }
            } else if (host != "bimodal" && host != "gshare" &&
                       host != "itl" && addonFor.count(prefix)) {
                base += addonFor.at(prefix);
            }
            const auto withValue = [&](long long v) {
                return base + sep + info.key + "=" +
                       (info.key == "meta.policy" ? metaPolicyValueName(v)
                                                  : std::to_string(v));
            };
            if (hosts.count(host) == 0) {
                EXPECT_THROW(parseSpec(withValue(info.minValue)),
                             std::invalid_argument);
                continue;
            }
            // Some legal value among min, min+1 and max must differ from
            // the default and show in the resolved configuration.
            const ParsedSpec plain = parseSpec(base);
            bool changed = false;
            for (long long v :
                 {info.minValue, info.minValue + 1, info.maxValue}) {
                ParsedSpec parsed;
                try {
                    parsed = parseSpec(withValue(v));
                } catch (const std::invalid_argument &) {
                    continue; // a cross-constraint rejects this value
                }
                changed = info.key == "sim.delay"
                              ? specUpdateDelay(parsed) !=
                                    specUpdateDelay(plain)
                              : resolvedDetail(parsed) !=
                                    resolvedDetail(plain);
                if (changed)
                    break;
            }
            EXPECT_TRUE(changed) << "no legal value takes effect";
        }
    }
}

TEST(SpecGrammar, SplitSpecListBindsOverrideCommas)
{
    const std::vector<std::string> specs = splitSpecList(
        "tage-gsc@sic.logsize=9,sic.ctrbits=5,gehl,bimodal,"
        "gehl+i@oh.logsize=9");
    ASSERT_EQ(specs.size(), 4u);
    EXPECT_EQ(specs[0], "tage-gsc@sic.logsize=9,sic.ctrbits=5");
    EXPECT_EQ(specs[1], "gehl");
    EXPECT_EQ(specs[2], "bimodal");
    EXPECT_EQ(specs[3], "gehl+i@oh.logsize=9");
    EXPECT_THROW(splitSpecList("tage-gsc,sic.logsize=9"),
                 std::invalid_argument);
    // A top-level config list still skips empty fragments; only an empty
    // arm inside meta(...) is an error.
    EXPECT_EQ(splitSpecList(",gehl,,bimodal,"),
              (std::vector<std::string>{"gehl", "bimodal"}));
}

// ---------------------------------------------------------------------------
// Parameter space.
// ---------------------------------------------------------------------------

TEST(ParamSpaceTest, ParseDimensionForms)
{
    const ParamDimension list = parseDimension("sic.logsize=7,9,8");
    EXPECT_EQ(list.key, "sic.logsize");
    EXPECT_EQ(list.values, (std::vector<long long>{7, 9, 8}));

    EXPECT_EQ(parseDimension("sic.logsize=7..10").values,
              (std::vector<long long>{7, 8, 9, 10}));
    EXPECT_EQ(parseDimension("oh.delay=0..16..8").values,
              (std::vector<long long>{0, 8, 16}));
    EXPECT_EQ(parseDimension("sic.ctrbits=4,6..8").values,
              (std::vector<long long>{4, 6, 7, 8}));

    EXPECT_THROW(parseDimension("bogus=1"), std::invalid_argument);
    EXPECT_THROW(parseDimension("sic.logsize"), std::invalid_argument);
    EXPECT_THROW(parseDimension("sic.logsize="), std::invalid_argument);
    EXPECT_THROW(parseDimension("sic.logsize=3"), std::invalid_argument);
    EXPECT_THROW(parseDimension("sic.logsize=9..8"), std::invalid_argument);
    EXPECT_THROW(parseDimension("sic.logsize=8..9..0"),
                 std::invalid_argument);
    EXPECT_THROW(parseDimension("sic.logsize=8,,9"), std::invalid_argument);
    EXPECT_THROW(parseDimension("sic.logsize=8,8"), std::invalid_argument);
    EXPECT_THROW(parseDimension("sic.logsize=7..9,8"),
                 std::invalid_argument);
    // Range endpoints are bounds-checked BEFORE expansion: a huge upper
    // bound must throw immediately, not materialize billions of values.
    EXPECT_THROW(parseDimension("gsc.maxhist=8..99999999999"),
                 std::invalid_argument);

    // A step larger than the span yields just the lower endpoint; even
    // a near-LLONG_MAX step must not overflow the increment (UB).
    EXPECT_EQ(parseDimension("gsc.tables=1..4..9223372036854775800").values,
              (std::vector<long long>{1}));
    EXPECT_EQ(parseDimension("sic.logsize=4..16..100").values,
              (std::vector<long long>{4}));

    // Power-of-two keys: ranges step through the powers of two, odd
    // values and explicit steps are rejected up front.
    EXPECT_EQ(parseDimension("outer.bits=64..1024").values,
              (std::vector<long long>{64, 128, 256, 512, 1024}));
    EXPECT_EQ(parseDimension("outer.pipe=8,16").values,
              (std::vector<long long>{8, 16}));
    EXPECT_THROW(parseDimension("outer.bits=100"), std::invalid_argument);
    EXPECT_THROW(parseDimension("outer.bits=64..1000"),
                 std::invalid_argument);
    EXPECT_THROW(parseDimension("outer.bits=64..1024..64"),
                 std::invalid_argument);
}

TEST(ParamSpaceTest, OversizedGridsThrowInsteadOfMaterializing)
{
    ParamSpace space;
    space.baseSpec = "tage-gsc";
    space.dimensions.push_back(parseDimension("gsc.maxhist=8..4096"));
    space.dimensions.push_back(parseDimension("tage.maxhist=8..4096"));
    space.dimensions.push_back(parseDimension("oh.delay=0..1024"));
    // ~1.7e10 points: gridSize reports it, expandGrid refuses it.
    EXPECT_GT(space.gridSize(), ParamSpace::maxGridPoints);
    EXPECT_THROW(space.expandGrid(), std::invalid_argument);
}

TEST(ParamSpaceTest, GridExpansionIsRowMajor)
{
    ParamSpace space;
    space.baseSpec = "tage-gsc+sic";
    space.dimensions.push_back(parseDimension("sic.logsize=8,9"));
    space.dimensions.push_back(parseDimension("sic.ctrbits=5,6"));
    EXPECT_EQ(space.gridSize(), 4u);
    const std::vector<std::string> points = space.expandGrid();
    ASSERT_EQ(points.size(), 4u);
    // First dimension slowest; override keys sorted inside each point.
    EXPECT_EQ(points[0], "tage-gsc+sic@sic.ctrbits=5,sic.logsize=8");
    EXPECT_EQ(points[1], "tage-gsc+sic@sic.ctrbits=6,sic.logsize=8");
    EXPECT_EQ(points[2], "tage-gsc+sic@sic.ctrbits=5,sic.logsize=9");
    EXPECT_EQ(points[3], "tage-gsc+sic@sic.ctrbits=6,sic.logsize=9");
}

TEST(ParamSpaceTest, GridWithNoDimensionsIsTheBasePoint)
{
    ParamSpace space;
    space.baseSpec = "tage-gsc+i";
    EXPECT_EQ(space.expandGrid(),
              std::vector<std::string>{"tage-gsc+i"});
}

TEST(ParamSpaceTest, DimensionOverridesBaseSpecKey)
{
    ParamSpace space;
    space.baseSpec = "tage-gsc+sic@sic.logsize=7,sic.weight=2";
    space.dimensions.push_back(parseDimension("sic.logsize=9,10"));
    const std::vector<std::string> points = space.expandGrid();
    ASSERT_EQ(points.size(), 2u);
    EXPECT_EQ(points[0], "tage-gsc+sic@sic.logsize=9,sic.weight=2");
    EXPECT_EQ(points[1], "tage-gsc+sic@sic.logsize=10,sic.weight=2");
}

TEST(ParamSpaceTest, DuplicateDimensionKeysThrow)
{
    ParamSpace space;
    space.baseSpec = "tage-gsc";
    space.dimensions.push_back(parseDimension("sic.logsize=8,9"));
    space.dimensions.push_back(parseDimension("sic.logsize=10,11"));
    EXPECT_THROW(space.expandGrid(), std::invalid_argument);
}

TEST(ParamSpaceTest, RandomSamplingIsSeededAndDeduplicated)
{
    ParamSpace space;
    space.baseSpec = "tage-gsc+sic";
    space.dimensions.push_back(parseDimension("sic.logsize=7..10"));
    space.dimensions.push_back(parseDimension("sic.ctrbits=4..6"));
    const std::vector<std::string> a = space.sampleRandom(6, 42);
    const std::vector<std::string> b = space.sampleRandom(6, 42);
    EXPECT_EQ(a, b);
    EXPECT_EQ(a.size(), 6u);
    // All samples are distinct grid members.
    const std::vector<std::string> grid = space.expandGrid();
    std::set<std::string> unique(a.begin(), a.end());
    EXPECT_EQ(unique.size(), a.size());
    for (const std::string &point : a)
        EXPECT_NE(std::find(grid.begin(), grid.end(), point), grid.end())
            << point;
    // A different seed explores differently.
    EXPECT_NE(space.sampleRandom(6, 43), a);
    // Exhausting a small space returns the whole space, once each.
    EXPECT_EQ(space.sampleRandom(1000, 7).size(), grid.size());
}

// ---------------------------------------------------------------------------
// Sweep engine + journal.
// ---------------------------------------------------------------------------

namespace
{

std::vector<BenchmarkSpec>
sweepBenchmarks()
{
    return {findBenchmark("MM-4"), findBenchmark("WS03"),
            findBenchmark("SPEC2K6-04")};
}

/** A 12-point grid over the SIC geometry (cheap: small tables). */
std::vector<std::string>
twelvePoints()
{
    ParamSpace space;
    space.baseSpec = "tage-gsc+sic@tage.logsize=8,gsc.logsize=8";
    space.dimensions.push_back(parseDimension("sic.logsize=7,8,9"));
    space.dimensions.push_back(parseDimension("sic.ctrbits=4,5"));
    space.dimensions.push_back(parseDimension("sic.weight=2,3"));
    return space.expandGrid();
}

SweepOptions
sweepOptions(const std::string &journal, unsigned jobs)
{
    SweepOptions options;
    options.journalPath = journal;
    options.branchesPerTrace = 2000;
    options.jobs = jobs;
    return options;
}

} // anonymous namespace

TEST(SweepJournal, TwelvePointGridBitIdenticalAcrossJobs)
{
    const std::vector<std::string> points = twelvePoints();
    ASSERT_EQ(points.size(), 12u);
    std::string first;
    for (unsigned jobs : {1u, 2u, 4u}) {
        const std::string path =
            tmpPath("sweep_jobs" + std::to_string(jobs) + ".csv");
        std::remove(path.c_str());
        const SweepResults results =
            runSweep(sweepBenchmarks(), points, sweepOptions(path, jobs));
        EXPECT_EQ(results.cells.size(), 36u);
        EXPECT_EQ(results.simulatedCells, 36u);
        const std::string content = readFile(path);
        if (first.empty())
            first = content;
        else
            EXPECT_EQ(content, first) << "jobs=" << jobs;
        std::remove(path.c_str());
    }
    // 12 points x 3 benchmarks + metadata + header, newline-terminated.
    EXPECT_EQ(std::count(first.begin(), first.end(), '\n'), 38);
}

TEST(SweepJournal, ResumeAfterKillIsBitIdentical)
{
    const std::vector<std::string> points = twelvePoints();
    const std::string full = tmpPath("sweep_full.csv");
    const std::string killed = tmpPath("sweep_killed.csv");
    std::remove(full.c_str());
    std::remove(killed.c_str());

    runSweep(sweepBenchmarks(), points, sweepOptions(full, 2));
    const std::string reference = readFile(full);

    // Simulate a kill mid-append: keep the header, a dozen committed
    // rows and a truncated tail that still "parses" as a prefix.
    const std::size_t cut = reference.find('\n', reference.size() / 3);
    ASSERT_NE(cut, std::string::npos);
    writeFile(killed, reference.substr(0, cut + 1) + "\"tage-gsc+sic@tage");

    const SweepResults resumed =
        runSweep(sweepBenchmarks(), points, sweepOptions(killed, 4));
    EXPECT_LT(resumed.simulatedCells, 36u);
    EXPECT_GT(resumed.simulatedCells, 0u);
    EXPECT_EQ(readFile(killed), reference);

    // Resuming a complete journal simulates nothing and changes nothing.
    const SweepResults noop =
        runSweep(sweepBenchmarks(), points, sweepOptions(killed, 1));
    EXPECT_EQ(noop.simulatedCells, 0u);
    EXPECT_EQ(readFile(killed), reference);
    EXPECT_EQ(noop.cells.size(), 36u);

    std::remove(full.c_str());
    std::remove(killed.c_str());
}

TEST(SweepJournal, MatchesSuiteRunnerCellForCell)
{
    // The sweep engine must agree bit for bit with the suite runner: both
    // stream the same sources through the one per-benchmark pass, at any
    // worker count, and a sim.delay point rides the same pass on the
    // pipeline engine.
    const std::vector<std::string> points = {
        "tage-gsc@tage.logsize=8", "tage-gsc@tage.logsize=9",
        "tage-gsc@sim.delay=8,tage.logsize=8"};
    for (unsigned jobs : {1u, 4u}) {
        const std::string path = tmpPath("sweep_vs_suite.csv");
        std::remove(path.c_str());
        const SweepResults sweep =
            runSweep(sweepBenchmarks(), points, sweepOptions(path, jobs));
        std::remove(path.c_str());
        ASSERT_EQ(sweep.cells.size(), 9u);

        SuiteRunOptions suiteOptions;
        suiteOptions.branchesPerTrace = 2000;
        suiteOptions.jobs = jobs;
        const SuiteResults suite = runSuite(sweepBenchmarks(), points,
                                            suiteOptions);
        for (const SweepCell &cell : sweep.cells) {
            const SuiteCell &ref = suite.at(cell.benchmark, cell.spec);
            EXPECT_EQ(cell.mispredictions, ref.mispredictions) << jobs;
            EXPECT_EQ(cell.conditionals, ref.conditionals) << jobs;
            EXPECT_EQ(cell.instructions, ref.instructions) << jobs;
        }
        // The delayed point really ran on the pipeline engine.
        EXPECT_NE(suite.at("MM-4", points[2]).mispredictions,
                  suite.at("MM-4", points[0]).mispredictions);
    }
}

TEST(SweepJournal, MetricsRegistryIsInertAndFillsSimulatedSlots)
{
    const std::vector<std::string> points = {
        "tage-gsc@tage.logsize=8", "tage-gsc@tage.logsize=9"};
    const std::vector<BenchmarkSpec> benchmarks = sweepBenchmarks();
    const std::size_t npoints = points.size();
    const std::string path = tmpPath("sweep_metrics.csv");

    std::remove(path.c_str());
    runSweep(benchmarks, points, sweepOptions(path, 1));
    const std::string reference = readFile(path);

    // Fresh sweep with a registry: the same journal bytes, and every
    // slot b * npoints + p holds that cell's identity and probes.
    for (unsigned jobs : {1u, 4u}) {
        std::remove(path.c_str());
        obs::MetricsRegistry registry;
        registry.phaseInterval = 500;
        SweepOptions options = sweepOptions(path, jobs);
        options.metrics = &registry;
        runSweep(benchmarks, points, options);
        EXPECT_EQ(readFile(path), reference) << jobs;
        ASSERT_EQ(registry.size(), benchmarks.size() * npoints);
        for (std::size_t b = 0; b < benchmarks.size(); ++b)
            for (std::size_t p = 0; p < npoints; ++p) {
                const obs::CellObs &oc = registry.cell(b * npoints + p);
                EXPECT_EQ(oc.benchmark, benchmarks[b].name);
                EXPECT_EQ(oc.config, points[p]);
                EXPECT_FALSE(oc.scope.empty());
                EXPECT_NE(oc.phase, nullptr);
                EXPECT_GT(oc.wallSeconds, 0.0);
            }
    }

    // Resume after the last three rows were lost: only the re-simulated
    // cells get filled slots; the resumed ones stay empty.
    std::string partial = reference;
    for (int i = 0; i < 3; ++i)
        partial.erase(partial.rfind('\n', partial.size() - 2) + 1);
    writeFile(path, partial);
    obs::MetricsRegistry registry;
    SweepOptions options = sweepOptions(path, 4);
    options.metrics = &registry;
    const SweepResults resumed = runSweep(benchmarks, points, options);
    EXPECT_EQ(resumed.simulatedCells, 3u);
    EXPECT_EQ(readFile(path), reference);
    ASSERT_EQ(registry.size(), benchmarks.size() * npoints);
    const std::size_t firstSimulated = registry.size() - 3;
    for (std::size_t i = 0; i < registry.size(); ++i) {
        const obs::CellObs &oc = registry.cell(i);
        if (i < firstSimulated) {
            EXPECT_TRUE(oc.benchmark.empty()) << i;
            EXPECT_TRUE(oc.scope.empty()) << i;
            EXPECT_EQ(oc.wallSeconds, 0.0) << i;
        } else {
            EXPECT_EQ(oc.benchmark, benchmarks[i / npoints].name) << i;
            EXPECT_EQ(oc.config, points[i % npoints]) << i;
            EXPECT_FALSE(oc.scope.empty()) << i;
        }
    }
    std::remove(path.c_str());
}

TEST(SweepJournal, ForeignJournalsAreRejected)
{
    const std::vector<std::string> points = {"tage-gsc@tage.logsize=8"};
    const std::string path = tmpPath("sweep_foreign.csv");
    std::remove(path.c_str());
    runSweep(sweepBenchmarks(), points, sweepOptions(path, 1));

    // Different points: the journal rows no longer belong to the sweep.
    EXPECT_THROW(runSweep(sweepBenchmarks(),
                          {"tage-gsc@tage.logsize=9"},
                          sweepOptions(path, 1)),
                 std::runtime_error);
    // Different run options: merging 2000-branch cells with 5000-branch
    // cells would silently corrupt the averages.
    SweepOptions longer = sweepOptions(path, 1);
    longer.branchesPerTrace = 5000;
    EXPECT_THROW(runSweep(sweepBenchmarks(), points, longer),
                 std::runtime_error);
    SweepOptions warmed = sweepOptions(path, 1);
    warmed.sim.warmupBranches = 100;
    EXPECT_THROW(runSweep(sweepBenchmarks(), points, warmed),
                 std::runtime_error);
    // A foreign header is rejected outright.
    writeFile(path, "some,other,header\n");
    EXPECT_THROW(runSweep(sweepBenchmarks(), points, sweepOptions(path, 1)),
                 std::runtime_error);
    std::remove(path.c_str());
}

TEST(SweepJournal, RowRoundTripAndMalformedRows)
{
    SweepCell cell;
    cell.spec = "tage-gsc+sic@sic.ctrbits=5,sic.logsize=8";
    cell.benchmark = "MM-4";
    cell.suite = "CBP4";
    cell.storageBits = 12345;
    cell.mispredictions = 42;
    cell.conditionals = 1000;
    cell.instructions = 7000;
    const SweepCell parsed = parseJournalRow(formatJournalRow(cell));
    EXPECT_EQ(parsed.spec, cell.spec);
    EXPECT_EQ(parsed.benchmark, cell.benchmark);
    EXPECT_EQ(parsed.suite, cell.suite);
    EXPECT_EQ(parsed.storageBits, cell.storageBits);
    EXPECT_EQ(parsed.mispredictions, cell.mispredictions);
    EXPECT_DOUBLE_EQ(parsed.mpki(), cell.mpki());

    EXPECT_THROW(parseJournalRow("no-quote,MM-4,CBP4,1,2,3,4"),
                 std::runtime_error);
    EXPECT_THROW(parseJournalRow("\"spec\",MM-4,CBP4,1,2,3"),
                 std::runtime_error);
    EXPECT_THROW(parseJournalRow("\"spec\",MM-4,CBP4,1,2,3,x"),
                 std::runtime_error);

    // A malformed row anywhere but the (truncated) tail is an error.
    const std::string meta = journalMeta({}, sweepOptions("unused", 1));
    const std::string path = tmpPath("sweep_malformed.csv");
    writeFile(path, meta + "\n" + journalHeader() + "\ngarbage line\n" +
                        formatJournalRow(cell) + "\n");
    EXPECT_THROW(loadJournal(path), std::runtime_error);
    // A journal without the metadata line is rejected.
    writeFile(path, journalHeader() + "\n" + formatJournalRow(cell) + "\n");
    EXPECT_THROW(loadJournal(path), std::runtime_error);
    // ... while a non-newline-terminated tail is dropped silently, and
    // the metadata line is surfaced to the caller.
    writeFile(path, meta + "\n" + journalHeader() + "\n" +
                        formatJournalRow(cell) + "\n\"tage-gsc@tage");
    std::string loadedMeta;
    EXPECT_EQ(loadJournal(path, &loadedMeta).size(), 1u);
    EXPECT_EQ(loadedMeta, meta);
    std::remove(path.c_str());
}

TEST(SweepJournal, RecordedTraceContentIsFingerprinted)
{
    // A recorded benchmark's counters depend on the trace file bytes:
    // resuming a journal against a different recording under the same
    // benchmark name must be rejected, not silently merged.
    const std::string dir = IMLI_TEST_DATA_DIR;
    const BenchmarkSpec r1 =
        makeRecordedBenchmark("R1", "REC", dir + "/rec-01.cbp");
    const BenchmarkSpec r1swapped =
        makeRecordedBenchmark("R1", "REC", dir + "/rec-02.cbp");
    const std::vector<std::string> points = {"tage-gsc@tage.logsize=8"};
    const std::string path = tmpPath("sweep_recorded.csv");
    std::remove(path.c_str());

    const SweepResults first =
        runSweep({r1}, points, sweepOptions(path, 1));
    EXPECT_EQ(first.simulatedCells, 1u);
    EXPECT_THROW(runSweep({r1swapped}, points, sweepOptions(path, 1)),
                 std::runtime_error);
    // The unchanged recording resumes cleanly.
    EXPECT_EQ(runSweep({r1}, points, sweepOptions(path, 1)).simulatedCells,
              0u);
    std::remove(path.c_str());
}

TEST(SweepJournal, InputValidation)
{
    SweepOptions options = sweepOptions(tmpPath("sweep_valid.csv"), 1);
    EXPECT_THROW(runSweep(sweepBenchmarks(), {}, options),
                 std::invalid_argument);
    EXPECT_THROW(runSweep({}, {"tage-gsc"}, options),
                 std::invalid_argument);
    // Duplicate points after canonicalization.
    EXPECT_THROW(runSweep(sweepBenchmarks(),
                          {"tage-gsc+oh+sic", "tage-gsc+i"}, options),
                 std::invalid_argument);
    options.journalPath = "";
    EXPECT_THROW(runSweep(sweepBenchmarks(), {"tage-gsc"}, options),
                 std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Pareto layer vs an O(n^2) oracle.
// ---------------------------------------------------------------------------

namespace
{

/** The textbook dominance definition, straight off the acceptance bar. */
bool
oracleDominates(const ParetoEntry &a, const ParetoEntry &b)
{
    return a.storageBits <= b.storageBits && a.avgMpki <= b.avgMpki &&
           (a.storageBits < b.storageBits || a.avgMpki < b.avgMpki);
}

std::vector<bool>
oracleDominated(const std::vector<ParetoEntry> &entries)
{
    std::vector<bool> dominated(entries.size(), false);
    for (std::size_t i = 0; i < entries.size(); ++i)
        for (std::size_t j = 0; j < entries.size(); ++j)
            if (i != j && oracleDominates(entries[j], entries[i]))
                dominated[i] = true;
    return dominated;
}

} // anonymous namespace

TEST(Pareto, MarkDominatedMatchesOracleOnRandomClouds)
{
    Xoroshiro128 rng(2026);
    for (int round = 0; round < 20; ++round) {
        std::vector<ParetoEntry> entries(40);
        for (std::size_t i = 0; i < entries.size(); ++i) {
            entries[i].spec = "p" + std::to_string(i);
            // Small value ranges force plenty of exact ties on each axis.
            entries[i].storageBits = 100 + 10 * rng.below(6);
            entries[i].avgMpki = 1.0 + 0.25 * double(rng.below(8));
            entries[i].benchmarkCount = 1;
        }
        std::vector<ParetoEntry> marked = entries;
        markDominated(marked);
        const std::vector<bool> oracle = oracleDominated(entries);
        for (std::size_t i = 0; i < entries.size(); ++i)
            EXPECT_EQ(marked[i].dominated, oracle[i])
                << "round " << round << " point " << i << " (storage "
                << entries[i].storageBits << ", mpki "
                << entries[i].avgMpki << ")";

        // Every frontier member is oracle-non-dominated and vice versa.
        const std::vector<ParetoEntry> frontier = paretoFrontier(entries);
        std::size_t oracleFrontier = 0;
        for (bool d : oracle)
            oracleFrontier += d ? 0 : 1;
        EXPECT_EQ(frontier.size(), oracleFrontier);
        for (std::size_t i = 1; i < frontier.size(); ++i) {
            EXPECT_LE(frontier[i - 1].storageBits, frontier[i].storageBits);
        }
    }
}

TEST(Pareto, ExactTiesShareTheFrontier)
{
    std::vector<ParetoEntry> entries(2);
    entries[0].spec = "a";
    entries[0].storageBits = 100;
    entries[0].avgMpki = 2.0;
    entries[1].spec = "b";
    entries[1].storageBits = 100;
    entries[1].avgMpki = 2.0;
    markDominated(entries);
    EXPECT_FALSE(entries[0].dominated);
    EXPECT_FALSE(entries[1].dominated);
    EXPECT_EQ(paretoFrontier(entries).size(), 2u);
}

TEST(Pareto, AggregateCellsGroupsAndFilters)
{
    std::vector<SweepCell> cells;
    for (int b = 0; b < 2; ++b) {
        SweepCell cell;
        cell.spec = "tage-gsc";
        cell.benchmark = "B" + std::to_string(b);
        cell.suite = b == 0 ? "CBP4" : "CBP3";
        cell.storageBits = 1000;
        cell.mispredictions = b == 0 ? 10 : 30;
        cell.conditionals = 100;
        cell.instructions = 1000;
        cells.push_back(cell);
    }
    const std::vector<ParetoEntry> all = aggregateCells(cells);
    ASSERT_EQ(all.size(), 1u);
    EXPECT_EQ(all[0].benchmarkCount, 2u);
    EXPECT_DOUBLE_EQ(all[0].avgMpki, 20.0);
    const std::vector<ParetoEntry> cbp4 = aggregateCells(cells, "CBP4");
    ASSERT_EQ(cbp4.size(), 1u);
    EXPECT_DOUBLE_EQ(cbp4[0].avgMpki, 10.0);
    EXPECT_TRUE(aggregateCells(cells, "REC").empty());

    cells[1].storageBits = 2000;
    EXPECT_THROW(aggregateCells(cells), std::runtime_error);
}

TEST(Pareto, PartialJournalsAreRejected)
{
    // Averages over different benchmark subsets are not comparable: a
    // spec with a missing cell must not silently "dominate" or be
    // dominated on a skewed average.
    std::vector<SweepCell> cells;
    const auto add = [&](const char *spec, const char *bench,
                         std::uint64_t mispred) {
        SweepCell cell;
        cell.spec = spec;
        cell.benchmark = bench;
        cell.suite = "CBP4";
        cell.storageBits = 1000;
        cell.mispredictions = mispred;
        cell.conditionals = 100;
        cell.instructions = 1000;
        cells.push_back(cell);
    };
    add("a", "B1", 10);
    add("a", "B2", 90);
    add("b", "B1", 20);
    EXPECT_THROW(aggregateCells(cells), std::runtime_error);
    add("b", "B2", 20);
    EXPECT_EQ(aggregateCells(cells).size(), 2u);
}

// ---------------------------------------------------------------------------
// Shard / plan / merge orchestration.
// ---------------------------------------------------------------------------

TEST(ShardPlan, PartitionIsContiguousCoveringAndEven)
{
    const std::vector<std::string> points = {"tage-gsc@tage.logsize=8"};
    const SweepOptions options = sweepOptions(tmpPath("plan.csv"), 1);
    for (std::size_t count : {1, 2, 3, 5}) {
        const ShardPlan plan =
            planShards(sweepBenchmarks(), points, options, count);
        ASSERT_EQ(plan.shards.size(), count);
        EXPECT_EQ(plan.benchmarks.size(), 3u);
        EXPECT_EQ(plan.meta, journalMeta(sweepBenchmarks(), options));
        // Contiguous, covering, in order; as even as possible with
        // earlier shards taking the remainder (sizes never grow).
        std::size_t next = 0;
        for (std::size_t i = 0; i < count; ++i) {
            EXPECT_EQ(plan.shards[i].index, i);
            EXPECT_EQ(plan.shards[i].beginBench, next);
            EXPECT_GE(plan.shards[i].endBench, plan.shards[i].beginBench);
            EXPECT_LE(plan.shards[i].benchmarkCount(),
                      (3 + count - 1) / count);
            if (i > 0)
                EXPECT_LE(plan.shards[i].benchmarkCount(),
                          plan.shards[i - 1].benchmarkCount());
            next = plan.shards[i].endBench;
        }
        EXPECT_EQ(next, 3u);
    }
    // 2 shards over 3 benchmarks: the first takes the remainder.
    const ShardPlan two = planShards(sweepBenchmarks(), points, options, 2);
    EXPECT_EQ(two.shards[0].benchmarkCount(), 2u);
    EXPECT_EQ(two.shards[1].benchmarkCount(), 1u);
    // 5 shards over 3 benchmarks: the surplus shards are empty (and an
    // empty shard's fragment is still a valid, row-less journal).
    const ShardPlan five = planShards(sweepBenchmarks(), points, options, 5);
    EXPECT_EQ(five.shards[3].benchmarkCount(), 0u);
    EXPECT_EQ(five.shards[4].benchmarkCount(), 0u);
    // Deterministic: mergeShardJournals re-derives exactly this plan.
    const ShardPlan again = planShards(sweepBenchmarks(), points, options, 2);
    for (std::size_t i = 0; i < 2; ++i) {
        EXPECT_EQ(again.shards[i].beginBench, two.shards[i].beginBench);
        EXPECT_EQ(again.shards[i].endBench, two.shards[i].endBench);
    }
    EXPECT_EQ(shardJournalPath("sweep.csv", 3), "sweep.csv.shard3");
}

TEST(ShardPlan, ValidatesLikeRunSweep)
{
    const SweepOptions options = sweepOptions(tmpPath("plan_valid.csv"), 1);
    // A plan that prints is a plan that will run: the same up-front
    // validation as runSweep, plus the shard count itself.
    EXPECT_THROW(planShards(sweepBenchmarks(), {}, options, 2),
                 std::invalid_argument);
    EXPECT_THROW(planShards({}, {"tage-gsc"}, options, 2),
                 std::invalid_argument);
    EXPECT_THROW(planShards(sweepBenchmarks(),
                            {"tage-gsc+oh+sic", "tage-gsc+i"}, options, 2),
                 std::invalid_argument);
    EXPECT_THROW(planShards(sweepBenchmarks(), {"tage-gsc"}, options, 0),
                 std::invalid_argument);
}

TEST(ShardMerge, TwoShardMergeIsByteIdenticalToRunSweep)
{
    const std::vector<std::string> points = twelvePoints();
    const std::string reference = tmpPath("shard_ref.csv");
    const std::string merged = tmpPath("shard_merged.csv");
    std::remove(reference.c_str());
    std::remove(merged.c_str());
    for (std::size_t i = 0; i < 2; ++i)
        std::remove(shardJournalPath(merged, i).c_str());

    runSweep(sweepBenchmarks(), points, sweepOptions(reference, 2));

    const SweepOptions options = sweepOptions(merged, 1);
    const ShardPlan plan = planShards(sweepBenchmarks(), points, options, 2);
    std::size_t simulated = 0;
    for (const ShardRange &range : plan.shards)
        simulated +=
            runShard(sweepBenchmarks(), points, options, range).simulatedCells;
    EXPECT_EQ(simulated, 36u);

    std::vector<std::size_t> shardsSeen;
    std::vector<std::size_t> cellsSeen;
    const SweepResults results = mergeShardJournals(
        sweepBenchmarks(), points, options, 2,
        [&](const ShardRange &range,
            const std::vector<ParetoEntry> &entries) {
            shardsSeen.push_back(range.index);
            std::size_t cells = 0;
            for (const ParetoEntry &entry : entries)
                cells += entry.benchmarkCount;
            cellsSeen.push_back(cells);
        });
    EXPECT_EQ(results.cells.size(), 36u);
    EXPECT_EQ(results.simulatedCells, 0u);  // merge validates, never runs
    EXPECT_EQ(readFile(merged), readFile(reference));

    // Progress fired once per shard, in order, with the incremental
    // Pareto view growing by each shard's cell block (2 benchmarks x 12
    // points, then the last benchmark's 12).
    ASSERT_EQ(shardsSeen.size(), 2u);
    EXPECT_EQ(shardsSeen[0], 0u);
    EXPECT_EQ(shardsSeen[1], 1u);
    ASSERT_EQ(cellsSeen.size(), 2u);
    EXPECT_EQ(cellsSeen[0], 24u);
    EXPECT_EQ(cellsSeen[1], 36u);

    // The merged results agree with the journal a resume would load.
    const SweepResults resumed =
        runSweep(sweepBenchmarks(), points, sweepOptions(merged, 1));
    EXPECT_EQ(resumed.simulatedCells, 0u);
    EXPECT_EQ(readFile(merged), readFile(reference));

    std::remove(reference.c_str());
    std::remove(merged.c_str());
    for (std::size_t i = 0; i < 2; ++i)
        std::remove(shardJournalPath(merged, i).c_str());
}

TEST(ShardMerge, TruncatedFragmentIsCompletedByRerun)
{
    const std::vector<std::string> points = twelvePoints();
    const std::string reference = tmpPath("shard_kill_ref.csv");
    const std::string journal = tmpPath("shard_kill.csv");
    std::remove(reference.c_str());
    std::remove(journal.c_str());
    for (std::size_t i = 0; i < 2; ++i)
        std::remove(shardJournalPath(journal, i).c_str());

    runSweep(sweepBenchmarks(), points, sweepOptions(reference, 1));

    const SweepOptions options = sweepOptions(journal, 1);
    const ShardPlan plan = planShards(sweepBenchmarks(), points, options, 2);
    for (const ShardRange &range : plan.shards)
        runShard(sweepBenchmarks(), points, options, range);

    // Kill shard 0 mid-append: keep its committed rows plus a truncated
    // tail that still "parses" as a prefix of a row.
    const std::string fragment = shardJournalPath(journal, 0);
    const std::string intact = readFile(fragment);
    const std::size_t cut = intact.find('\n', intact.size() / 2);
    ASSERT_NE(cut, std::string::npos);
    writeFile(fragment, intact.substr(0, cut + 1) + "\"tage-gsc+sic@tage");

    // The merge drops the tail, finds cells missing, and refuses with an
    // error naming the shard to re-run.
    try {
        mergeShardJournals(sweepBenchmarks(), points, options, 2);
        FAIL() << "merge accepted an incomplete fragment";
    } catch (const std::runtime_error &e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("cell(s) missing"), std::string::npos) << what;
        EXPECT_NE(what.find("shard 0"), std::string::npos) << what;
        EXPECT_NE(what.find("re-run"), std::string::npos) << what;
    }

    // Re-running the shard resumes its fragment — simulating only the
    // dropped cells — after which the merge completes byte-identically.
    const SweepResults rerun =
        runShard(sweepBenchmarks(), points, options, plan.shards[0]);
    EXPECT_GT(rerun.simulatedCells, 0u);
    EXPECT_LT(rerun.simulatedCells, 24u);
    mergeShardJournals(sweepBenchmarks(), points, options, 2);
    EXPECT_EQ(readFile(journal), readFile(reference));

    std::remove(reference.c_str());
    std::remove(journal.c_str());
    for (std::size_t i = 0; i < 2; ++i)
        std::remove(shardJournalPath(journal, i).c_str());
}

TEST(ShardMerge, MissingAndForeignFragmentsAreRejected)
{
    const std::vector<std::string> points = {"tage-gsc@tage.logsize=8"};
    const std::string journal = tmpPath("shard_foreign.csv");
    std::remove(journal.c_str());
    for (std::size_t i = 0; i < 2; ++i)
        std::remove(shardJournalPath(journal, i).c_str());

    const SweepOptions options = sweepOptions(journal, 1);
    const ShardPlan plan = planShards(sweepBenchmarks(), points, options, 2);
    runShard(sweepBenchmarks(), points, options, plan.shards[0]);

    // Shard 1 never ran: the merge names the missing fragment.
    try {
        mergeShardJournals(sweepBenchmarks(), points, options, 2);
        FAIL() << "merge accepted a missing fragment";
    } catch (const std::runtime_error &e) {
        EXPECT_NE(std::string(e.what()).find("missing fragment for shard 1"),
                  std::string::npos)
            << e.what();
    }

    // A fragment holding another shard's rows is rejected, not merged.
    writeFile(shardJournalPath(journal, 1),
              readFile(shardJournalPath(journal, 0)));
    try {
        mergeShardJournals(sweepBenchmarks(), points, options, 2);
        FAIL() << "merge accepted rows outside the shard's range";
    } catch (const std::runtime_error &e) {
        EXPECT_NE(std::string(e.what()).find("outside its benchmark range"),
                  std::string::npos)
            << e.what();
    }

    // Fragments recorded under different run options belong to a
    // different sweep: the metadata fingerprint rejects them.
    std::remove(shardJournalPath(journal, 1).c_str());
    runShard(sweepBenchmarks(), points, options, plan.shards[1]);
    SweepOptions longer = options;
    longer.branchesPerTrace = 5000;
    try {
        mergeShardJournals(sweepBenchmarks(), points, longer, 2);
        FAIL() << "merge accepted fragments with a foreign fingerprint";
    } catch (const std::runtime_error &e) {
        EXPECT_NE(std::string(e.what()).find("different options"),
                  std::string::npos)
            << e.what();
    }

    // With both fragments intact and matching options the merge lands.
    mergeShardJournals(sweepBenchmarks(), points, options, 2);
    EXPECT_EQ(loadJournal(journal).size(), 3u);

    std::remove(journal.c_str());
    for (std::size_t i = 0; i < 2; ++i)
        std::remove(shardJournalPath(journal, i).c_str());
}

TEST(ShardMerge, RunShardValidatesItsRange)
{
    const SweepOptions options = sweepOptions(tmpPath("shard_range.csv"), 1);
    ShardRange bad;
    bad.index = 0;
    bad.beginBench = 2;
    bad.endBench = 5;  // past the 3-benchmark sweep
    EXPECT_THROW(runShard(sweepBenchmarks(), {"tage-gsc"}, options, bad),
                 std::invalid_argument);
    bad.beginBench = 3;
    bad.endBench = 2;  // inverted
    EXPECT_THROW(runShard(sweepBenchmarks(), {"tage-gsc"}, options, bad),
                 std::invalid_argument);
    SweepOptions noJournal = options;
    noJournal.journalPath = "";
    ShardRange ok;
    ok.endBench = 1;
    EXPECT_THROW(runShard(sweepBenchmarks(), {"tage-gsc"}, noJournal, ok),
                 std::invalid_argument);
    EXPECT_THROW(mergeShardJournals(sweepBenchmarks(), {"tage-gsc"},
                                    noJournal, 2),
                 std::invalid_argument);
    EXPECT_THROW(mergeShardJournals(sweepBenchmarks(), {"tage-gsc"},
                                    options, 0),
                 std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Incremental Pareto aggregation (the merge's evolving frontier view).
// ---------------------------------------------------------------------------

namespace
{

SweepCell
paretoCell(const std::string &spec, const std::string &bench,
           const std::string &suite, std::uint64_t bits,
           std::uint64_t mispredictions)
{
    SweepCell cell;
    cell.spec = spec;
    cell.benchmark = bench;
    cell.suite = suite;
    cell.storageBits = bits;
    cell.mispredictions = mispredictions;
    cell.conditionals = 100;
    cell.instructions = 1000;
    return cell;
}

} // anonymous namespace

TEST(IncrementalParetoTest, CompleteJournalMatchesAggregateCells)
{
    const std::vector<SweepCell> cells = {
        paretoCell("a", "B1", "CBP4", 1000, 10),
        paretoCell("b", "B1", "CBP4", 2000, 5),
        paretoCell("c", "B1", "CBP3", 1500, 40),
        paretoCell("a", "B2", "CBP3", 1000, 30),
        paretoCell("b", "B2", "CBP4", 2000, 15),
        paretoCell("c", "B2", "CBP4", 1500, 20),
    };
    // Fed in journal order, the incremental view IS aggregateCells.
    IncrementalPareto incremental;
    for (const SweepCell &cell : cells)
        incremental.add(cell);
    EXPECT_EQ(incremental.cellCount(), 6u);
    // entries() marks dominance; aggregateCells leaves that to
    // markDominated — mark the reference before comparing.
    std::vector<ParetoEntry> reference = aggregateCells(cells);
    markDominated(reference);
    const std::vector<ParetoEntry> running = incremental.entries();
    ASSERT_EQ(running.size(), reference.size());
    for (std::size_t i = 0; i < reference.size(); ++i) {
        EXPECT_EQ(running[i].spec, reference[i].spec);
        EXPECT_DOUBLE_EQ(running[i].avgMpki, reference[i].avgMpki);
        EXPECT_EQ(running[i].storageBits, reference[i].storageBits);
        EXPECT_EQ(running[i].benchmarkCount, reference[i].benchmarkCount);
        EXPECT_EQ(running[i].dominated, reference[i].dominated);
    }
    // The frontiers agree too (same specs, same order).
    const std::vector<ParetoEntry> frontier = incremental.frontier();
    const std::vector<ParetoEntry> expected = paretoFrontier(reference);
    ASSERT_EQ(frontier.size(), expected.size());
    for (std::size_t i = 0; i < expected.size(); ++i)
        EXPECT_EQ(frontier[i].spec, expected[i].spec);

    // Fold order does not change the averages — shards land in any order.
    IncrementalPareto shuffled;
    for (std::size_t i = cells.size(); i-- > 0;)
        shuffled.add(cells[i]);
    for (const ParetoEntry &entry : shuffled.entries()) {
        const auto it = std::find_if(
            reference.begin(), reference.end(),
            [&](const ParetoEntry &r) { return r.spec == entry.spec; });
        ASSERT_NE(it, reference.end()) << entry.spec;
        EXPECT_DOUBLE_EQ(entry.avgMpki, it->avgMpki) << entry.spec;
        EXPECT_EQ(entry.benchmarkCount, it->benchmarkCount) << entry.spec;
    }
}

TEST(IncrementalParetoTest, ReportsRunningAveragesWhereAggregateRefuses)
{
    // Mid-merge the journal is partial: aggregateCells refuses (its
    // averages are final results), the incremental view reports running
    // averages with benchmarkCount saying how much is behind each.
    const std::vector<SweepCell> cells = {
        paretoCell("a", "B1", "CBP4", 1000, 10),
        paretoCell("a", "B2", "CBP3", 1000, 90),
        paretoCell("b", "B1", "CBP4", 2000, 20),
    };
    EXPECT_THROW(aggregateCells(cells), std::runtime_error);
    IncrementalPareto incremental;
    for (const SweepCell &cell : cells)
        incremental.add(cell);
    const std::vector<ParetoEntry> entries = incremental.entries();
    ASSERT_EQ(entries.size(), 2u);
    EXPECT_EQ(entries[0].spec, "a");
    EXPECT_EQ(entries[0].benchmarkCount, 2u);
    EXPECT_DOUBLE_EQ(entries[0].avgMpki, 50.0);
    EXPECT_EQ(entries[1].spec, "b");
    EXPECT_EQ(entries[1].benchmarkCount, 1u);
    EXPECT_DOUBLE_EQ(entries[1].avgMpki, 20.0);

    // Suite filtering happens at add(): only matching cells count.
    IncrementalPareto cbp4("CBP4");
    for (const SweepCell &cell : cells)
        cbp4.add(cell);
    EXPECT_EQ(cbp4.cellCount(), 2u);
    const std::vector<ParetoEntry> filtered = cbp4.entries();
    ASSERT_EQ(filtered.size(), 2u);
    EXPECT_DOUBLE_EQ(filtered[0].avgMpki, 10.0);
    EXPECT_EQ(filtered[0].benchmarkCount, 1u);

    // A spec reappearing with different storage bits is corruption.
    IncrementalPareto strict;
    strict.add(paretoCell("a", "B1", "CBP4", 1000, 10));
    EXPECT_THROW(strict.add(paretoCell("a", "B2", "CBP4", 1001, 10)),
                 std::runtime_error);
}
