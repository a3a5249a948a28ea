/**
 * @file
 * The host composition layer: one implementation of everything a host
 * predictor shares with every other host.
 *
 * Architecture.  A "host" (TAGE-GSC, GEHL) is a core direction
 * predictor wrapped in a fixed set of optional components: the IMLI
 * counter components feeding the corrector/adder tree, a local-history
 * voting bank, and the loop family (loop table, ITTAGE-style tagged
 * exit predictor, wormhole) that *overrides* the core's answer on
 * confident loop exits.  Before this layer existed, each host
 * hand-rolled the identical plumbing — loop-family wiring in
 * predict/update, `SpecCheckpoint` fan-out, `stateDigest()`,
 * `storageBits()` ledgers — so every new component paid the
 * duplication tax once per host.  `CompositeHost` registers each
 * component's predict / update / speculate / checkpoint / digest /
 * storage hooks exactly once:
 *
 *   predict(pc)  = predictHost(pc)             [virtual: core lookup]
 *                  then loop/itl/wh overlay     [shared, this file]
 *   update(...)  = loop-family training         [shared]
 *                  then updateHost(...)         [virtual: core train]
 *                  then IMLI resolve, loop-PC transition, history push
 *   speculation  = host_spec:: checkpoint/restore/speculate/squash
 *                  over (history, IMLI, local, loop family)
 *   storage()    = accountHost(acct)            [virtual: core ledger]
 *                  then imli / loop / itl / wormhole line items
 *
 * A concrete host supplies only its core: the three `*Host` hooks.  The
 * composition order is load-bearing — it reproduces the pre-refactor
 * hosts bit for bit (pinned by the 88-benchmark CSV identity protocol in
 * CHANGES.md and the zoo-wide checkpoint property test).
 */

#ifndef IMLI_SRC_PREDICTORS_COMPOSITE_HOST_HH
#define IMLI_SRC_PREDICTORS_COMPOSITE_HOST_HH

#include <memory>
#include <optional>
#include <string>
#include <type_traits>

#include "src/core/imli_components.hh"
#include "src/history/history_manager.hh"
#include "src/predictors/host_speculation.hh"
#include "src/predictors/ittage_loop.hh"
#include "src/predictors/local_component.hh"
#include "src/predictors/loop_predictor.hh"
#include "src/predictors/predictor.hh"
#include "src/predictors/statistical_corrector.hh"
#include "src/predictors/wormhole.hh"
#include "src/util/hashing.hh"

namespace imli
{

/**
 * The component slice every host Config shares: the global-history bank
 * and the IMLI / local / loop-family add-ons.  Host Config structs
 * inherit from this, so the composition layer and the spec grammar
 * (zoo.hh: one override applier per shared key) read one type, while
 * each host keeps its core geometry (TAGE tables, adder tree, ...) in
 * the derived struct and sets its own defaults for the shared fields in
 * the derived constructor.
 */
struct CompositeHostConfig
{
    /**
     * The global-history GEHL bank: the GSC bank of TAGE-GSC's corrector
     * ("gsc-global") or GEHL's main adder-tree bank ("gehl").  The gsc.*
     * override keys land here on either host.
     */
    GlobalGehlComponent::Config gsc;

    ImliComponents::Config imli;
    bool enableImli = false; //!< master switch for the SIC/OH/OMLI add-ons

    bool enableLocal = false;
    LocalComponent::Config local;

    /** Instantiate the loop predictor (needed by WH for trip counts). */
    bool enableLoop = false;
    /** Let a confident loop prediction override the core's answer. */
    bool loopOverride = false;
    LoopPredictor::Config loop;

    bool enableItl = false;
    IttageLoopPredictor::Config itl;

    bool enableWh = false;
    WormholePredictor::Config wh;

    std::string configName = "host";
};

/** Core-plus-components host predictor (see file header). */
class CompositeHost : public ConditionalPredictor
{
  public:
    bool predict(std::uint64_t pc) final;
    void update(std::uint64_t pc, bool taken, std::uint64_t target) final;
    void trackOtherInst(std::uint64_t pc, BranchType type, bool taken,
                        std::uint64_t target) final;

    // Speculation contract (see predictor.hh): checkpoint = global/path
    // head + IMLI counter/PIPE (+OMLI) + in-flight local-history ticket +
    // the loop-family state (loop / ITTAGE-loop / wormhole journal
    // tickets and the loop-tracking PC) — the paper's Section 4.4
    // recovery state, extended to the per-branch speculative iteration
    // counts and in-flight local bits the loop components carry.  Tables
    // and counters stay architectural (commit-updated); only the
    // journals' visibility bounds and the loop PC travel in the
    // checkpoint, so a snapshot is still a few tens of bits.
    bool supportsSpeculation() const override { return true; }
    void prepareSpeculation(unsigned max_inflight) override;
    SpecCheckpoint checkpoint() const override;
    void restore(const SpecCheckpoint &cp) override;
    void speculate(std::uint64_t pc, bool pred_taken,
                   std::uint64_t target) override;
    void squashSpeculation() override;
    std::uint64_t stateDigest() const override;

    std::string name() const override { return comp.configName; }
    StorageAccount storage() const final;

    /** Every fold of the core and the GSC bank lives in histMgr. */
    HistoryManager *foldBank() final { return &histMgr; }

    /**
     * Shared-component probe registration (IMLI / local / loop /
     * ITTAGE-loop), then the core's own probes via attachProbesHost().
     */
    void attachProbes(obs::MetricsScope &scope) final;

    /** IMLI state access for experiments (delay sweeps, checkpoints). */
    ImliComponents &imliState() { return imliComps; }

    /** Width of the global-history head pointer a checkpoint carries. */
    unsigned headPointerBits() const
    {
        return ceilLog2(histMgr.history().capacityBits());
    }

  protected:
    /**
     * @p longest_history sizes the shared history buffer (the host's
     * longest registered fold); @p digest_seed keeps each host family's
     * stateDigest() stream distinct.
     */
    CompositeHost(const CompositeHostConfig &config,
                  unsigned longest_history, std::uint64_t digest_seed);

    /** Core lookup: cache pairing state, return the core's direction. */
    virtual bool predictHost(std::uint64_t pc) = 0;

    /**
     * Core training for the branch last passed to predictHost().
     * @p final_pred is the overlay's final answer (the loop family may
     * have overridden the core) — TAGE's allocation policy trains
     * against it, exactly as the hand-wired hosts did.
     */
    virtual void updateHost(std::uint64_t pc, bool taken,
                            bool final_pred) = 0;

    /** Core storage line items (appended before the component ledger). */
    virtual void accountHost(StorageAccount &acct) const = 0;

    /** Core probe registration (the TAGE/SC probes live here).
     *  Default: the core has nothing to observe. */
    virtual void attachProbesHost(obs::MetricsScope &scope)
    {
        (void)scope;
    }

    CompositeHostConfig comp;
    HistoryManager histMgr;
    ImliComponents imliComps;
    std::unique_ptr<LocalComponent> local;
    std::unique_ptr<LoopPredictor> loopPred;
    std::unique_ptr<IttageLoopPredictor> ittageLoop;
    std::unique_ptr<WormholePredictor> wormhole;

  private:
    std::optional<unsigned> currentTripCount() const;
    host_spec::LoopFamily loopFamily() const;

    /** PC of the backward branch closing the loop currently iterating. */
    std::uint64_t currentLoopPc = 0;

    std::uint64_t digestSeed;

    // Loop-family predict/update pairing state; the core's own pairing
    // state lives in the derived class.
    struct FamilyLookup
    {
        LoopPredictor::Prediction loopPrediction;
        IttageLoopPredictor::Prediction itlPrediction;
        WormholePredictor::Prediction whPrediction;
        std::optional<unsigned> tripCount;
        bool finalPred = false;
    } famLook;

    // Allocation-regression guard (see tage.hh): pairing state must stay
    // inline value types, never heap-backed containers.
    static_assert(std::is_trivially_copyable_v<FamilyLookup>,
                  "per-lookup state must stay heap-allocation-free");
};

} // namespace imli

#endif // IMLI_SRC_PREDICTORS_COMPOSITE_HOST_HH
