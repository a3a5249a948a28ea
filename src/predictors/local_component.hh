/**
 * @file
 * Local-history voting component (the "L" of TAGE-SC-L and the local part
 * of FTL; paper, Section 5).
 *
 * A table of per-branch histories feeds a bank of GEHL tables indexed with
 * hash(PC, local history prefix).  For the GEHL host this reproduces the
 * paper's FTL recipe: "4 tables of 2K 6-bit counters and a 256-entry table
 * of 24-bit local histories".  The component also demonstrates why the
 * paper argues against local history in hardware: its speculative state is
 * per-branch, needing the in-flight window machinery modelled in
 * src/history/inflight_window.hh rather than a small checkpoint.
 */

#ifndef IMLI_SRC_PREDICTORS_LOCAL_COMPONENT_HH
#define IMLI_SRC_PREDICTORS_LOCAL_COMPONENT_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "src/history/inflight_window.hh"
#include "src/history/local_history.hh"
#include "src/obs/metrics.hh"
#include "src/predictors/sc_component.hh"
#include "src/util/arena.hh"
#include "src/util/counters.hh"

namespace imli
{

/** Local-history GEHL bank. */
class LocalComponent : public ScComponent
{
  public:
    struct Config
    {
        unsigned historyEntries = 256; //!< local history table entries
        unsigned historyBits = 24;     //!< per-branch history width
        unsigned numTables = 4;        //!< voting tables
        unsigned logEntries = 11;      //!< 2K entries per table
        unsigned counterBits = 6;
        std::string label = "local";
    };

    LocalComponent() : LocalComponent(Config()) {}

    explicit LocalComponent(const Config &config);

    int vote(const ScContext &ctx) const override;
    void update(const ScContext &ctx, bool taken) override;
    /**
     * Shifts the branch outcome into its local history — every branch.
     * Commit-time in pipeline mode: the architectural table write, paired
     * FIFO with the speculate() that fetched the branch (the oldest
     * in-flight window entry retires).
     */
    void onResolved(const ScContext &ctx, bool taken) override;
    void account(StorageAccount &acct) const override;
    std::string name() const override { return cfg.label; }

    // ---- Speculative local history (pipeline simulation) ----------------
    //
    // This is the machinery the paper says makes local history expensive
    // (Section 2.3.2): the table is written at commit only, so fetch must
    // associatively search the window of in-flight branches for a younger
    // speculative history of the same entry.  Enabled, the InflightWindow
    // is the live read path: votes and trains read through it, and
    // attachProbes() counts the fetch-front search work.

    /**
     * Switch the component to speculative (pipeline) operation with up to
     * @p max_inflight branches between fetch and commit.  Sizing the
     * window to the pipeline depth means no in-flight entry is ever
     * evicted early, so fetch-time reads are exact.  Resets any previous
     * window.
     */
    void enableSpeculation(unsigned max_inflight);

    bool speculationEnabled() const { return window != nullptr; }

    /**
     * Fetch-side step: insert the speculative local history following the
     * branch at @p pc (current speculative read + the predicted outcome)
     * into the in-flight window.  Lifts any restore-time visibility
     * bound — speculation always happens at the fetch front.
     */
    void speculate(std::uint64_t pc, bool pred_taken);

    /**
     * Bound the speculative read path to window entries with ticket <=
     * @p max_ticket (the commit sandbox's fetch-time view); UINT64_MAX
     * lifts the bound.  Non-destructive.
     */
    void setTicketHorizon(std::uint64_t max_ticket);

    /** Ticket of the youngest in-flight entry (0 before any insert). */
    std::uint64_t lastTicket() const;

    /** Misprediction squash: drop all in-flight entries, lift the bound. */
    void squashSpeculation();

    /**
     * Register local/window_searches (one per speculate(), re-fetches
     * after a squash included) and local/window_compares (the in-flight
     * entries those searches visit).  The vote()/update() lookups and
     * the commit sandbox's re-derivations are not counted: they model
     * no extra hardware search.
     */
    void attachProbes(obs::MetricsScope &scope);

    const Config &config() const { return cfg; }

  private:
    unsigned index(unsigned table, const ScContext &ctx) const;

    /**
     * The local history the branch at @p pc observes: the youngest
     * visible in-flight speculative history for its table entry, falling
     * back to the architectural table.  Identical to a plain table read
     * when speculation is off (or the window misses).
     */
    std::uint64_t specHistory(std::uint64_t pc) const;

    Config cfg;
    LocalHistoryTable histories;
    std::vector<unsigned> lengths; //!< history prefix length per table
    TableArena<SignedCounter> tables; //!< one allocation, all tables

    // Mutable: vote() is const but the associative search bumps the
    // window's entriesSearched() cost counter (a measurement, not state
    // the prediction depends on).
    mutable std::unique_ptr<InflightWindow> window;
    std::uint64_t ticketHorizon = UINT64_MAX;

    obs::ProbeCounter obsSearches;
    obs::ProbeCounter obsCompares;
};

} // namespace imli

#endif // IMLI_SRC_PREDICTORS_LOCAL_COMPONENT_HH
