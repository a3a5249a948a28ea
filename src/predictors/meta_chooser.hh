/**
 * @file
 * The adaptive meta-prediction chooser: a host that arbitrates N
 * sub-predictors per branch, online.
 *
 * Motivation (ROADMAP / PAPERS.md "Workload Characterization for Branch
 * Predictability"): per-branch predictability varies enough across
 * workload classes that *selection* is its own research dimension —
 * when does a branch want TAGE's tagged matches, GEHL's long adder
 * tree, or a cheap gshare?  The chooser turns the zoo into one
 * predictor: every sub predicts every branch, a per-PC meta table picks
 * (or fuses) the answer, and every sub still trains on every branch, so
 * switching arms never restarts learning.
 *
 * Three policies, all per-PC (a `meta.logsize`-bit hashed table):
 *
 *  - Tournament: N saturating counters per entry, one per sub; the
 *    highest counter's sub is followed (tie -> lowest index), correct
 *    subs count up, wrong subs count down — the classic Alpha-21264
 *    chooser generalized from 2 arms to N.
 *  - UCB bandit: per-entry arms carry pull/reward counters; the arm
 *    maximizing reward-rate + sqrt(explore * ln(total) / pulls) is
 *    followed (unpulled arms first).  Counters halve on saturation, so
 *    the bandit re-explores after a phase change.
 *  - Perceptron fusion: N+1 signed weights per entry (bias + one per
 *    sub); the sign of the dot product with the subs' +/-1 predictions
 *    is followed, trained perceptron-style on mispredict or weak sum.
 *
 * Speculation.  The meta tables are architectural (commit-trained), so
 * the chooser's only speculative state is its subs': checkpoint()
 * snapshots every sub's SpecCheckpoint into a ring journal slot (the
 * ticket-journal idiom of the loop-family predictors) and returns a
 * checkpoint whose localTicket is the slot's sequence number;
 * restore() replays the stored sub-checkpoints.  speculate() forwards
 * the chooser's *final* answer — the direction the pipeline actually
 * follows — to every sub, so `meta(X)` under a selector policy drives
 * X exactly as X alone (result- and digest-identical; pinned in
 * tests/test_meta_chooser.cc).  Correct at any --update-delay.
 */

#ifndef IMLI_SRC_PREDICTORS_META_CHOOSER_HH
#define IMLI_SRC_PREDICTORS_META_CHOOSER_HH

#include <array>
#include <cstdint>
#include <string>
#include <type_traits>
#include <vector>

#include "src/obs/metrics.hh"
#include "src/predictors/predictor.hh"

namespace imli
{

/** Meta-predictor host arbitrating N sub-predictors (see file header). */
class MetaChooserPredictor : public ConditionalPredictor
{
  public:
    /** Most sub-predictors one chooser can arbitrate. */
    static constexpr std::size_t kMaxSubs = 8;

    enum class Policy
    {
        Tournament,
        Ucb,
        Fusion,
    };

    struct Config
    {
        Policy policy = Policy::Tournament;
        unsigned logEntries = 12;  //!< meta.logsize: log2 meta-table entries
        unsigned counterBits = 2;  //!< meta.ctrbits: tournament counter width
        unsigned countBits = 8;    //!< meta.countbits: UCB pull/reward width
        unsigned explore = 2;      //!< meta.explore: UCB exploration scale
        unsigned weightBits = 8;   //!< meta.wbits: fusion weight width
        /** meta.theta: fusion training threshold; 0 = 1.93*N + 14. */
        unsigned theta = 0;
        std::string configName = "meta";
    };

    MetaChooserPredictor(const Config &config,
                         std::vector<PredictorPtr> sub_predictors);

    bool predict(std::uint64_t pc) override;
    void update(std::uint64_t pc, bool taken, std::uint64_t target) override;
    void trackOtherInst(std::uint64_t pc, BranchType type, bool taken,
                        std::uint64_t target) override;

    bool supportsSpeculation() const override;
    void prepareSpeculation(unsigned max_inflight) override;
    SpecCheckpoint checkpoint() const override;
    void restore(const SpecCheckpoint &cp) override;
    void speculate(std::uint64_t pc, bool pred_taken,
                   std::uint64_t target) override;
    void squashSpeculation() override;
    std::uint64_t stateDigest() const override;

    /**
     * Arm-selection histogram ("meta/arm": the followed sub index for
     * the selector policies, the fused direction bucket for Fusion) plus
     * each sub's own probes under a "subN/" prefix.
     */
    void attachProbes(obs::MetricsScope &scope) override;

    std::string name() const override { return cfg.configName; }
    StorageAccount storage() const override;

    const Config &config() const { return cfg; }
    std::size_t subCount() const { return subs.size(); }
    /** Sub access for the meta(X) == X identity tests. */
    const ConditionalPredictor &sub(std::size_t i) const { return *subs[i]; }

  private:
    std::size_t entryIndex(std::uint64_t pc) const;
    std::size_t chooseTournament(std::size_t entry) const;
    std::size_t chooseUcb(std::size_t entry) const;
    int fusionSum(std::size_t entry) const;
    void trainTournament(std::size_t entry, bool taken);
    void trainUcb(std::size_t entry, bool taken);
    void trainFusion(std::size_t entry, bool taken);

    Config cfg;
    std::vector<PredictorPtr> subs;
    unsigned resolvedTheta;

    // Meta tables (architectural, commit-trained).  One flat array per
    // policy; entry e, arm a lives at e * numSubs + a.
    std::vector<std::uint16_t> counters; //!< tournament
    std::vector<std::uint32_t> pulls;    //!< ucb
    std::vector<std::uint32_t> rewards;  //!< ucb
    std::vector<std::int32_t> weights;   //!< fusion: e * (numSubs+1) + 1+a

    // Checkpoint ring journal: slot s holds the N sub-checkpoints of the
    // checkpoint() call with sequence number seq, at ring[(seq % slots) *
    // numSubs + i].  A checkpoint is restorable while fewer than `slots`
    // younger checkpoints have been taken — sized by prepareSpeculation
    // to 4x the in-flight window, far beyond the engine's live span.
    mutable std::vector<SpecCheckpoint> ring;
    mutable std::vector<std::uint64_t> ringSeq;
    mutable std::uint64_t nextSeq = 0;
    std::size_t ringSlots = 0;

    // predict/update pairing state.
    struct LookupState
    {
        std::array<bool, kMaxSubs> subPred{};
        std::size_t chosen = 0;
        int sum = 0;
        bool finalPred = false;
    } look;
    static_assert(std::is_trivially_copyable_v<LookupState>,
                  "per-lookup state must stay heap-allocation-free");

    obs::ProbeHistogram obsArm;
};

} // namespace imli

#endif // IMLI_SRC_PREDICTORS_META_CHOOSER_HH
