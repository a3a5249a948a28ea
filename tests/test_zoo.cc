/**
 * @file
 * Tests for the predictor zoo: every spec constructs, runs, reports
 * storage in the paper's budget ranges, and rejects nonsense.
 */

#include <gtest/gtest.h>

#include "src/predictors/zoo.hh"
#include "src/sim/simulator.hh"
#include "src/workloads/suite.hh"

using namespace imli;

class ZooSpecs : public ::testing::TestWithParam<std::string>
{
};

TEST_P(ZooSpecs, ConstructsAndRuns)
{
    PredictorPtr pred = makePredictor(GetParam());
    ASSERT_NE(pred, nullptr);
    EXPECT_FALSE(pred->name().empty());
    EXPECT_GT(pred->storage().totalBits(), 0u);

    const Trace t = generateTrace(findBenchmark("WS03"), 4000);
    const SimResult r = simulate(*pred, t);
    EXPECT_GT(r.conditionals, 0u);
    EXPECT_GT(r.accuracy(), 0.5) << "any real predictor beats a coin here";
}

INSTANTIATE_TEST_SUITE_P(AllSpecs, ZooSpecs,
                         ::testing::ValuesIn(knownSpecs()));

TEST(Zoo, UnknownSpecsThrow)
{
    EXPECT_THROW(makePredictor(""), std::invalid_argument);
    EXPECT_THROW(makePredictor("alpha21264"), std::invalid_argument);
    EXPECT_THROW(makePredictor("tage-gsc+bogus"), std::invalid_argument);
    EXPECT_THROW(makePredictor("bimodal+i"), std::invalid_argument);
    // An empty add-on is an error, not a token to drop, and the message
    // says so instead of naming an empty add-on as unknown.
    for (const char *spec :
         {"tage-gsc+", "bimodal+", "tage-gsc++i", "gehl+i+"}) {
        try {
            makePredictor(spec);
            ADD_FAILURE() << spec << " was accepted";
        } catch (const std::invalid_argument &e) {
            EXPECT_NE(std::string(e.what()).find("empty add-on"),
                      std::string::npos)
                << spec << ": " << e.what();
        }
    }
}

TEST(Zoo, NamesReflectAddons)
{
    EXPECT_EQ(makePredictor("tage-gsc")->name(), "TAGE-GSC");
    EXPECT_EQ(makePredictor("tage-gsc+i")->name(), "TAGE-GSC+I");
    EXPECT_EQ(makePredictor("tage-gsc+sic")->name(), "TAGE-GSC+SIC");
    EXPECT_EQ(makePredictor("tage-gsc+i+l")->name(), "TAGE-GSC+I+L");
    EXPECT_EQ(makePredictor("gehl+wh")->name(), "GEHL+WH");
    EXPECT_EQ(makePredictor("gehl+loop")->name(), "GEHL+LOOP");
}

// ---------------------------------------------------------------------------
// Storage budgets: the paper's Table 1 / Table 2 size columns.
// ---------------------------------------------------------------------------

TEST(Zoo, TageGscBudget)
{
    // Paper: 228 Kbits.  Our realisation lands in the same region.
    const double kbits = makePredictor("tage-gsc")->storage().totalKbits();
    EXPECT_GT(kbits, 205.0);
    EXPECT_LT(kbits, 240.0);
}

TEST(Zoo, ImliAddsAboutFiveKbits)
{
    // Paper Table 1: 228 -> 234 Kbits (+708 bytes = +5.5 Kbits).
    const double base = makePredictor("tage-gsc")->storage().totalKbits();
    const double imli =
        makePredictor("tage-gsc+i")->storage().totalKbits();
    EXPECT_NEAR(imli - base, 5.53, 0.3);
}

TEST(Zoo, GehlBudgetMatchesPaper)
{
    // Paper: 204 Kbits for the 17-table GEHL.
    const double kbits = makePredictor("gehl")->storage().totalKbits();
    EXPECT_GT(kbits, 200.0);
    EXPECT_LT(kbits, 210.0);
}

TEST(Zoo, LocalAddonCostsTensOfKbits)
{
    const double base = makePredictor("gehl")->storage().totalKbits();
    const double local = makePredictor("gehl+l")->storage().totalKbits();
    // Paper Table 2: 204 -> 256 Kbits.
    EXPECT_GT(local - base, 30.0);
    EXPECT_LT(local - base, 70.0);
}

TEST(Zoo, WormholeCostsAboutFourteenHundredBytes)
{
    const auto base = makePredictor("tage-gsc")->storage().totalBytes();
    const auto wh = makePredictor("tage-gsc+wh")->storage().totalBytes();
    const auto delta = wh - base;
    // Paper Section 3.3: 1413 bytes (the loop predictor rides along as
    // the trip-count provider).
    EXPECT_GT(delta, 1200u);
    EXPECT_LT(delta, 1800u);
}

TEST(Zoo, ImliCheaperThanLocal)
{
    // The paper's cost argument in one assertion.
    const auto base = makePredictor("tage-gsc")->storage().totalBits();
    const auto imli = makePredictor("tage-gsc+i")->storage().totalBits();
    const auto local = makePredictor("tage-gsc+l")->storage().totalBits();
    EXPECT_LT(imli - base, (local - base) / 3);
}

TEST(Zoo, DeterministicAcrossInstances)
{
    const Trace t = generateTrace(findBenchmark("SPEC2K6-12"), 20000);
    PredictorPtr a = makePredictor("tage-gsc+i");
    PredictorPtr b = makePredictor("tage-gsc+i");
    const SimResult ra = simulate(*a, t);
    const SimResult rb = simulate(*b, t);
    EXPECT_EQ(ra.mispredictions, rb.mispredictions);
}
