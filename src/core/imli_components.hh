/**
 * @file
 * Aggregation of the IMLI machinery for a host predictor (the "IMLIcount +
 * IMLI hist" box of the paper's Figures 5 and 6).
 *
 * Owns the IMLI counter, the outer-history storage and the two voting
 * tables, wires the per-branch dataflow between them, and exposes:
 *  - context filling at prediction time (counter value + outer bits);
 *  - per-branch resolution (outer-history write + counter heuristic);
 *  - the speculative checkpoint (counter + PIPE: 10 + 16 = 26 bits);
 *  - the Section 4.4 storage audit (708 bytes with both components).
 */

#ifndef IMLI_SRC_CORE_IMLI_COMPONENTS_HH
#define IMLI_SRC_CORE_IMLI_COMPONENTS_HH

#include <cstdint>
#include <vector>

#include "src/core/imli_counter.hh"
#include "src/core/imli_oh.hh"
#include "src/core/imli_outer_history.hh"
#include "src/core/imli_sic.hh"
#include "src/core/omli.hh"
#include "src/obs/metrics.hh"
#include "src/predictors/sc_component.hh"

namespace imli
{

/** Complete IMLI predictor-side state for one host predictor. */
class ImliComponents
{
  public:
    struct Config
    {
        bool enableSic = true;
        bool enableOh = true;
        /** The beyond-the-paper OMLI extension (DESIGN.md section 8). */
        bool enableOmli = false;
        ImliSic::Config sic;
        ImliOh::Config oh;
        OmliSic::Config omliSic;
        unsigned omliCounterBits = 8;
        ImliOuterHistory::Config outer;
        unsigned counterBits = 10;
        /** Modelled commit delay of the outer-history table (branches). */
        unsigned ohUpdateDelay = 0;
    };

    ImliComponents() : ImliComponents(Config()) {}

    explicit ImliComponents(const Config &config);

    /**
     * Fill the IMLI fields of a prediction context: the current counter
     * value and, when IMLI-OH is enabled, the two outer-history bits for
     * @p pc.  Call at prediction time, before any vote.
     */
    void fillContext(ScContext &ctx, std::uint64_t pc) const;

    /**
     * Per-branch resolution for every conditional branch: writes the
     * outer-history storage (pre-counter-update IMLI value) and then
     * applies the counter heuristic.
     */
    void onResolved(std::uint64_t pc, std::uint64_t target, bool taken);

    /**
     * Fetch-side speculative step (pipeline simulation, Section 4.3.2):
     * exactly onResolved() with @p dir the *predicted* direction, minus
     * the outer-history table write — the PIPE transfer and the counter
     * heuristic are the checkpointed speculative half, the table write is
     * deferred to the commit-time onResolved().  save()/restore() of
     * exactly this state is the pipeline engine's IMLI checkpoint.
     */
    void speculate(std::uint64_t pc, std::uint64_t target, bool dir);

    /** Voting tables to register with the host's adder tree. */
    std::vector<ScComponent *> components();

    /** Speculative state: counter value + PIPE vector. */
    struct Checkpoint
    {
        ImliCounter::Checkpoint counter = 0;
        ImliOuterHistory::Checkpoint pipe = 0;
        OmliCounter::Checkpoint omli;
    };

    Checkpoint save() const;
    void restore(const Checkpoint &cp);

    /** Width of the checkpoint in bits (the paper's 10 + 16 = 26). */
    unsigned checkpointBits() const;

    /**
     * Account the state not owned by the host adder tree (counter, outer
     * history, PIPE).  The SIC/OH voting tables are registered with the
     * host and accounted there.
     */
    void account(StorageAccount &acct) const;

    /**
     * Account everything including the voting tables — the standalone
     * Section 4.4 audit (708 bytes with the paper's default geometry).
     */
    void accountAll(StorageAccount &acct) const;

    /**
     * Resolve the IMLI counter-value histogram probe (log2 buckets, one
     * sample per resolved conditional — the distribution of inner-loop
     * iteration depths the counter actually saw).
     */
    void attachProbes(obs::MetricsScope &scope);

    const ImliCounter &counter() const { return imliCount; }
    const OmliCounter &omliCounter() const { return omliCount; }
    ImliOuterHistory &outerHistory() { return outer; }
    const Config &config() const { return cfg; }

  private:
    Config cfg;
    ImliCounter imliCount;
    OmliCounter omliCount;
    ImliOuterHistory outer;
    ImliSic sic;
    ImliOh oh;
    OmliSic omliSic;

    obs::ProbeHistogram obsCount;
};

} // namespace imli

#endif // IMLI_SRC_CORE_IMLI_COMPONENTS_HH
