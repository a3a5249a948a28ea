/**
 * @file
 * The TAGE-GSC host predictor (paper, Section 3.2.1, Figures 4 and 5):
 * a TAGE predictor backed by a global-history statistical corrector, i.e.
 * the CBP4-winning TAGE-SC-L with the loop predictor and local-history
 * components deactivated.  Add-ons re-enable them (+L), plug the IMLI
 * components into the corrector (+I), or attach the wormhole side
 * predictor for the Section 3.3 comparison.
 *
 * Composition: only the core — TAGE + corrector lookup and training —
 * lives here.  The component plumbing (loop-family overlay, IMLI
 * resolve, speculation contract, digest, storage ledger) is the
 * CompositeHost layer (composite_host.hh), shared with GEHL.
 */

#ifndef IMLI_SRC_PREDICTORS_TAGE_GSC_HH
#define IMLI_SRC_PREDICTORS_TAGE_GSC_HH

#include <string>
#include <type_traits>

#include "src/predictors/composite_host.hh"
#include "src/predictors/statistical_corrector.hh"
#include "src/predictors/tage.hh"

namespace imli
{

/** TAGE + global statistical corrector, with optional add-ons. */
class TageGscPredictor : public CompositeHost
{
  public:
    struct Config : CompositeHostConfig
    {
        TagePredictor::Config tage;
        BiasComponent::Config bias{/*logEntries=*/9, /*counterBits=*/6,
                                   /*numTables=*/2};
        StatisticalCorrector::Config sc;

        Config()
        {
            gsc = GlobalGehlComponent::Config{
                /*numTables=*/6, /*logEntries=*/10, /*counterBits=*/6,
                /*minHistory=*/0, /*maxHistory=*/200,
                /*imliIndexTables=*/0, /*label=*/"gsc-global"};
            local = LocalComponent::Config{
                /*historyEntries=*/256, /*historyBits=*/16,
                /*numTables=*/3,        /*logEntries=*/10,
                /*counterBits=*/6,      /*label=*/"local"};
            loop = LoopPredictor::Config{/*logSets=*/2, /*ways=*/4};
            configName = "TAGE-GSC";
        }
    };

    TageGscPredictor() : TageGscPredictor(Config()) {}

    explicit TageGscPredictor(const Config &config);

    const Config &config() const { return cfg; }

  protected:
    bool predictHost(std::uint64_t pc) override;
    void updateHost(std::uint64_t pc, bool taken, bool final_pred) override;
    void accountHost(StorageAccount &acct) const override;

    void attachProbesHost(obs::MetricsScope &scope) override
    {
        tage.attachProbes(scope);
        corrector.attachProbes(scope);
    }

  private:
    Config cfg;
    TagePredictor tage;
    BiasComponent bias;
    GlobalGehlComponent gscGlobal;
    StatisticalCorrector corrector;

    // Core predict/update pairing state (the loop-family half lives in
    // CompositeHost).
    struct LookupState
    {
        ScContext ctx;
        TagePredictor::Prediction tagePrediction;
        StatisticalCorrector::Decision decision;
    } look;

    // Allocation-regression guard (see tage.hh): pairing state must stay
    // inline value types, never heap-backed containers.
    static_assert(std::is_trivially_copyable_v<LookupState>,
                  "per-lookup state must stay heap-allocation-free");
};

} // namespace imli

#endif // IMLI_SRC_PREDICTORS_TAGE_GSC_HH
