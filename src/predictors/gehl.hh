/**
 * @file
 * The GEHL host predictor (paper, Section 3.2.2, Figure 6).
 *
 * An O-GEHL predictor: 17 tables of 2K 6-bit counters indexed with
 * geometric global history lengths up to 600 bits (204 Kbits), an adder
 * tree and the dynamic update threshold.  Add-ons plug into the same adder
 * tree: the IMLI-SIC and IMLI-OH tables (GEHL+I), a local-history bank and
 * loop predictor (GEHL+L, the FTL recipe), or the wormhole side predictor
 * for the Section 3.3 comparison.
 *
 * Composition: only the core — the adder tree's lookup and training —
 * lives here.  The component plumbing (loop-family overlay, IMLI
 * resolve, speculation contract, digest, storage ledger) is the
 * CompositeHost layer (composite_host.hh), shared with TAGE-GSC.
 */

#ifndef IMLI_SRC_PREDICTORS_GEHL_HH
#define IMLI_SRC_PREDICTORS_GEHL_HH

#include <string>
#include <type_traits>

#include "src/predictors/composite_host.hh"
#include "src/predictors/statistical_corrector.hh"

namespace imli
{

/** GEHL with optional IMLI / local / loop / wormhole add-ons. */
class GehlPredictor : public CompositeHost
{
  public:
    struct Config : CompositeHostConfig
    {
        VotingEngine::Config voting{/*thetaInit=*/34, /*thetaMin=*/1,
                                    /*thetaMax=*/511, /*tcBits=*/7};

        Config()
        {
            gsc = GlobalGehlComponent::Config{
                /*numTables=*/17, /*logEntries=*/11, /*counterBits=*/6,
                /*minHistory=*/0, /*maxHistory=*/600,
                /*imliIndexTables=*/0, /*label=*/"gehl"};
            loop = LoopPredictor::Config{/*logSets=*/3, /*ways=*/4};
            configName = "GEHL";
        }
    };

    GehlPredictor() : GehlPredictor(Config()) {}

    explicit GehlPredictor(const Config &config);

    const Config &config() const { return cfg; }

  protected:
    bool predictHost(std::uint64_t pc) override;
    void updateHost(std::uint64_t pc, bool taken, bool final_pred) override;
    void accountHost(StorageAccount &acct) const override;

  private:
    Config cfg;
    GlobalGehlComponent global;
    VotingEngine voting;

    // Core predict/update pairing state (the loop-family half lives in
    // CompositeHost).
    struct LookupState
    {
        ScContext ctx;
        int sum = 0;
        bool gehlPred = false;
    } look;

    // Allocation-regression guard (see tage.hh): pairing state must stay
    // inline value types, never heap-backed containers.
    static_assert(std::is_trivially_copyable_v<LookupState>,
                  "per-lookup state must stay heap-allocation-free");
};

} // namespace imli

#endif // IMLI_SRC_PREDICTORS_GEHL_HH
