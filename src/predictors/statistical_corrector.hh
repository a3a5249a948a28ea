/**
 * @file
 * Statistical corrector building blocks (paper, Figure 5).
 *
 * The GSC is "a neural predictor featuring several tables indexed with
 * global history (or a variation of the global history)" plus bias tables
 * hashed with the TAGE prediction.  It confirms the TAGE prediction in the
 * general case and reverts it when TAGE has statistically mispredicted in
 * similar circumstances.
 *
 * This file provides:
 *  - BiasComponent: PC+prediction indexed bias tables;
 *  - GlobalGehlComponent: a bank of global-history GEHL tables, reusable
 *    as the whole GEHL predictor (Figure 6) or as the GSC global part,
 *    with the Section 4.2 option of hashing the IMLI counter into the
 *    indices of its last tables;
 *  - StatisticalCorrector: the decision wrapper (confirm/revert policy
 *    with confidence-scaled revert threshold).
 */

#ifndef IMLI_SRC_PREDICTORS_STATISTICAL_CORRECTOR_HH
#define IMLI_SRC_PREDICTORS_STATISTICAL_CORRECTOR_HH

#include <cstdint>
#include <string>
#include <vector>

#include "src/history/history_manager.hh"
#include "src/obs/metrics.hh"
#include "src/predictors/sc_component.hh"
#include "src/util/arena.hh"
#include "src/util/counters.hh"

namespace imli
{

/**
 * Bias tables: two tables of signed counters indexed with hashes of the PC
 * and the main (TAGE) prediction.  They learn "TAGE is statistically wrong
 * for this branch" patterns and anchor the corrector sum.
 */
class BiasComponent : public ScComponent
{
  public:
    struct Config
    {
        unsigned logEntries = 10;  //!< per table
        unsigned counterBits = 6;
        unsigned numTables = 2;
    };

    BiasComponent() : BiasComponent(Config()) {}

    explicit BiasComponent(const Config &config);

    int vote(const ScContext &ctx) const override;
    void update(const ScContext &ctx, bool taken) override;
    void account(StorageAccount &acct) const override;
    std::string name() const override { return "bias"; }

  private:
    unsigned index(unsigned table, const ScContext &ctx) const;

    Config cfg;
    TableArena<SignedCounter> tables; //!< one allocation, all tables
};

/**
 * A bank of GEHL tables indexed with geometric global history lengths.
 * Doubles as the full GEHL predictor core (17 tables, up to 600 bits of
 * history) and as the global part of the statistical corrector.
 */
class GlobalGehlComponent : public ScComponent
{
  public:
    struct Config
    {
        unsigned numTables = 6;    //!< including the L=0 table if minHistory==0
        unsigned logEntries = 9;   //!< log2 entries per table
        unsigned counterBits = 6;
        unsigned minHistory = 0;   //!< 0 => first table is PC-indexed only
        unsigned maxHistory = 200;
        /**
         * Number of trailing tables whose index additionally hashes the
         * IMLI counter (paper, Section 4.2: "inserting the IMLI counter in
         * the indices of two tables in the global history component of the
         * SC").  0 disables the feature.
         */
        unsigned imliIndexTables = 0;
        std::string label = "gsc-global";
    };

    GlobalGehlComponent(const Config &config, HistoryManager &hist);

    int vote(const ScContext &ctx) const override;
    void update(const ScContext &ctx, bool taken) override;
    void account(StorageAccount &acct) const override;
    std::string name() const override { return cfg.label; }

    const std::vector<unsigned> &historyLengths() const { return lengths; }

  private:
    unsigned index(unsigned table, const ScContext &ctx) const;

    Config cfg;
    std::vector<unsigned> lengths;
    std::vector<FoldedHistory *> folds; //!< nullptr for the L=0 table
    TableArena<SignedCounter> tables; //!< one allocation, all tables
};

/**
 * The confirm/revert decision of the TAGE-GSC composition, following the
 * TAGE-SC-L arbitration: when the corrector sum disagrees with TAGE, the
 * sum magnitude selects one of three confidence bands.  The high band
 * always reverts; the two lower bands consult adaptive chooser counters
 * that learn, per workload, whether the corrector tends to be right when
 * it disagrees at that confidence level.  This is what lets a single
 * small IMLI table overturn a large TAGE on the branches it understands
 * without harming the branches it does not.
 */
class StatisticalCorrector
{
  public:
    struct Config
    {
        VotingEngine::Config voting;
        unsigned chooserBits = 6;    //!< width of the chooser counters
        unsigned chooserLogEntries = 6; //!< per-PC chooser table size
    };

    StatisticalCorrector() : StatisticalCorrector(Config()) {}

    explicit StatisticalCorrector(const Config &config);

    void addComponent(ScComponent *component);

    struct Decision
    {
        bool finalPred = false;
        bool scPred = false;
        int sum = 0;
        bool reverted = false;
        int band = -1; //!< 0 = weak, 1 = medium, 2 = strong disagreement
    };

    /** Combine the corrector sum with the TAGE prediction. */
    Decision decide(const ScContext &ctx, bool tage_pred,
                    int tage_confidence) const;

    /** Gated training + threshold adaptation + per-branch maintenance. */
    void train(const ScContext &ctx, bool taken, const Decision &decision);

    void account(StorageAccount &acct) const;

    /**
     * Resolve the corrector probes: agree (sum confirmed TAGE),
     * disagree, and reverse (disagreement that actually overturned the
     * TAGE prediction).  Fire in train(), once per resolved branch.
     */
    void attachProbes(obs::MetricsScope &scope);

    /** Chooser counter values for @p pc, exposed for tests. */
    int weakChooser(std::uint64_t pc) const;
    int mediumChooser(std::uint64_t pc) const;

  private:
    unsigned chooserIndex(std::uint64_t pc) const;

    Config cfg;
    VotingEngine voting;
    /**
     * Per-PC band choosers: >= 0 means "trust the corrector" in that
     * band for branches hashing to this entry.  Indexing by PC keeps the
     * arbitration of IMLI-favoured loop branches independent from the
     * noise branches the corrector cannot beat (the TAGE-SC-L
     * per-branch-threshold idea).
     */
    std::vector<std::int8_t> firstH;  //!< weak-disagreement band
    std::vector<std::int8_t> secondH; //!< medium-disagreement band

    obs::ProbeCounter obsAgree;
    obs::ProbeCounter obsDisagree;
    obs::ProbeCounter obsReverse;
};

} // namespace imli

#endif // IMLI_SRC_PREDICTORS_STATISTICAL_CORRECTOR_HH
