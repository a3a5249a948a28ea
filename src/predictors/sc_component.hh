/**
 * @file
 * The neural adder-tree component contract shared by GEHL and the
 * statistical corrector of TAGE-GSC.
 *
 * The paper's Figures 5 and 6 show the same structure twice: a set of
 * tables of signed counters, each contributing a centred vote to an adder
 * tree; the prediction is the sign of the sum.  The IMLI-SIC and IMLI-OH
 * tables, the local-history tables and the bias tables are all just more
 * inputs to that tree.  ScComponent captures the contract so one component
 * implementation plugs into both host predictors:
 *
 *  - vote(ctx): centred contribution for the current branch;
 *  - update(ctx, taken): train the voting counters (the host gates this on
 *    its confidence/threshold policy, the O-GEHL rule);
 *  - onResolved(ctx, taken): unconditional per-branch state maintenance
 *    (local history shifts, IMLI outer-history writes) that must happen
 *    regardless of the training gate.
 */

#ifndef IMLI_SRC_PREDICTORS_SC_COMPONENT_HH
#define IMLI_SRC_PREDICTORS_SC_COMPONENT_HH

#include <cstdint>
#include <string>
#include <vector>

#include "src/util/storage.hh"

namespace imli
{

/** Per-branch inputs to the adder tree. */
struct ScContext
{
    std::uint64_t pc = 0;

    /** Host main prediction (TAGE); bias tables hash it in. */
    bool mainPred = false;

    /** Current Inner Most Loop Iteration counter value. */
    unsigned imliCount = 0;

    /** Outer-loop iteration counter (the OMLI extension; 0 when off). */
    unsigned omliCount = 0;

    /** Out[N-1][M] recovered from the IMLI outer-history table. */
    bool ohBit = false;

    /** Out[N-1][M-1] recovered from the PIPE vector. */
    bool pipeBit = false;
};

/** One voting component of a neural predictor. */
class ScComponent
{
  public:
    virtual ~ScComponent() = default;

    /** Centred contribution (sum of 2c+1 over this component's tables). */
    virtual int vote(const ScContext &ctx) const = 0;

    /** Train the voting counters towards @p taken (threshold-gated). */
    virtual void update(const ScContext &ctx, bool taken) = 0;

    /** Unconditional per-branch state maintenance.  Default: none. */
    virtual void
    onResolved(const ScContext &ctx, bool taken)
    {
        (void)ctx;
        (void)taken;
    }

    /** Add this component's tables to the budget ledger. */
    virtual void account(StorageAccount &acct) const = 0;

    virtual std::string name() const = 0;
};

/**
 * Adder tree plus the O-GEHL adaptive training threshold.
 *
 * Threshold adaptation (Seznec, ISCA 2005): on a misprediction the
 * threshold-tuning counter moves up; on a correct but low-confidence
 * prediction (|sum| < theta) it moves down; saturation nudges theta.  This
 * dynamically balances update frequency against table lifetime.
 */
class VotingEngine
{
  public:
    struct Config
    {
        int thetaInit = 8;   //!< initial threshold
        int thetaMin = 1;
        int thetaMax = 255;
        int tcBits = 7;      //!< tuning counter width
    };

    VotingEngine() : VotingEngine(Config()) {}

    explicit VotingEngine(const Config &config);

    /** Register a voting component (non-owning). */
    void addComponent(ScComponent *component);

    /** Sum of all component votes for @p ctx. */
    int sum(const ScContext &ctx) const;

    /** Current adaptive threshold. */
    int theta() const { return thresholdValue; }

    /**
     * Decide whether counters should train, and adapt the threshold.
     * Call once per conditional branch with the engine's own prediction.
     *
     * @param mispredicted this engine's sign prediction was wrong
     * @param abs_sum |sum| at prediction time
     * @return true when components must be trained
     */
    bool onOutcome(bool mispredicted, int abs_sum);

    /** Train every component (the host calls this when onOutcome says so). */
    void trainAll(const ScContext &ctx, bool taken);

    /** Per-branch unconditional maintenance for every component. */
    void resolveAll(const ScContext &ctx, bool taken);

    void account(StorageAccount &acct) const;

    const std::vector<ScComponent *> &components() const { return comps; }

  private:
    Config cfg;
    std::vector<ScComponent *> comps;
    int thresholdValue;
    int tuningCounter = 0;
};

} // namespace imli

#endif // IMLI_SRC_PREDICTORS_SC_COMPONENT_HH
