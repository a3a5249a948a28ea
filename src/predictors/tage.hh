/**
 * @file
 * TAGE: TAgged GEometric history length predictor (Seznec & Michaud 2006;
 * refinements from "A new case for TAGE", MICRO 2011).
 *
 * TAGE is the main prediction engine of TAGE-GSC (paper, Section 3.2.1).
 * A bimodal base table is backed by N partially tagged tables indexed with
 * geometrically increasing global history lengths; the longest matching
 * table provides the prediction, with the "use alt on newly allocated"
 * heuristic arbitrating between provider and alternate predictions, and
 * usefulness counters steering allocation on mispredictions.
 *
 * Memory model: the tagged tables live in ONE cache-line-aligned
 * TableArena allocation.  All tables share logEntries, so table t spans
 * arena elements [t << logEntries, (t + 1) << logEntries) — the stride is
 * the power-of-two entry count and element (t, i) is the flat offset
 * (t << logEntries) + i, reachable with a shift and an add from the
 * single base pointer (no per-table pointer chase).  Entries pack to 4
 * bytes (int8 ctr, uint16 tag, uint8 u), 16 per 64-byte line.  Lookup
 * state (per-table indices and tags) is a pair of fixed-capacity inline
 * arrays sized by kMaxTables; predict() therefore performs no heap
 * allocation, which a trivially-copyable static_assert pins.
 */

#ifndef IMLI_SRC_PREDICTORS_TAGE_HH
#define IMLI_SRC_PREDICTORS_TAGE_HH

#include <array>
#include <cstdint>
#include <string>
#include <type_traits>
#include <vector>

#include "src/history/history_manager.hh"
#include "src/obs/metrics.hh"
#include "src/predictors/bimodal.hh"
#include "src/util/arena.hh"
#include "src/util/storage.hh"

namespace imli
{

/** Geometric series of history lengths, strictly increasing. */
std::vector<unsigned> geometricLengths(unsigned count, unsigned min_length,
                                       unsigned max_length);

/**
 * The TAGE engine.  It does not implement ConditionalPredictor itself: it
 * is composed (with a statistical corrector and side predictors) into
 * TageGscPredictor; tests drive it through a thin standalone adapter.
 */
class TagePredictor
{
  public:
    /**
     * Hard cap on numTables: sizes the inline per-lookup index/tag
     * arrays and the provider-match bitmask (uint32).  Matches the
     * spec-grammar bound on the tage.tables DSE key; the constructor
     * rejects larger geometries.
     */
    static constexpr unsigned kMaxTables = 32;

    struct Config
    {
        unsigned numTables = 12;     //!< tagged tables
        unsigned minHistory = 4;     //!< shortest history length
        unsigned maxHistory = 640;   //!< longest history length
        unsigned logEntries = 10;    //!< log2 entries per tagged table
        unsigned counterBits = 3;    //!< signed prediction counter width
        unsigned usefulBits = 2;     //!< usefulness counter width
        unsigned baseLogEntries = 12;//!< log2 entries of the bimodal base
        unsigned tagBitsMin = 8;     //!< tag width of the shortest table
        unsigned tagBitsMax = 13;    //!< tag width of the longest table
        unsigned tickLogMax = 10;    //!< u-reset controller saturation log2
    };

    /** Result of a lookup, consumed by the statistical corrector. */
    struct Prediction
    {
        bool taken = false;     //!< final TAGE prediction
        int provider = -1;      //!< providing table (-1 = bimodal base)
        bool usedAlt = false;   //!< alt prediction subsumed the provider
        bool altTaken = false;  //!< the alternate prediction
        /**
         * Provider confidence in {0 = weak, 1 = medium, 2 = high}, from
         * the absolute value of the providing counter; the statistical
         * corrector scales its revert threshold with it.
         */
        int confidence = 0;
    };

    /**
     * @param config table geometry
     * @param hist shared history manager (owned by the composed predictor)
     */
    TagePredictor(const Config &config, HistoryManager &hist);

    /** Look up @p pc; caches lookup state for the paired update(). */
    Prediction predict(std::uint64_t pc);

    /**
     * Train on the resolved outcome.  @p final_pred is the prediction the
     * composed predictor actually emitted (allocation keys off the overall
     * misprediction, as in TAGE-SC-L).  Does NOT push global history; the
     * host does that once per branch for all components.
     */
    void update(std::uint64_t pc, bool taken, bool final_pred);

    const Config &config() const { return cfg; }
    const std::vector<unsigned> &historyLengths() const { return lengths; }

    void account(StorageAccount &acct) const;

    /**
     * Resolve the TAGE probe set against @p scope: which component
     * resolved each branch (provider counter / alternate / bimodal
     * base), allocation success/fail, and useful-bit reset sweeps.
     * Probes fire in update() only — the pipeline engine re-calls
     * predict() at commit, so update() is the once-per-branch point.
     */
    void attachProbes(obs::MetricsScope &scope);

  private:
    struct Entry
    {
        std::int8_t ctr = 0;   //!< signed prediction counter
        std::uint16_t tag = 0; //!< partial tag
        std::uint8_t u = 0;    //!< usefulness
    };

    unsigned tagBits(unsigned table) const;
    unsigned tableIndex(unsigned table, std::uint64_t pc) const;
    std::uint16_t tableTag(unsigned table, std::uint64_t pc) const;
    bool counterTaken(std::int8_t ctr) const { return ctr >= 0; }
    void counterUpdate(std::int8_t &ctr, bool taken, int bits);
    unsigned nextRandom();

    Config cfg;
    HistoryManager &histMgr;
    std::vector<unsigned> lengths;
    TableArena<Entry> tables;
    BimodalPredictor base;

    // Per-table folded histories (owned by the HistoryManager).
    std::vector<FoldedHistory *> indexFolds;
    std::vector<FoldedHistory *> tagFolds1;
    std::vector<FoldedHistory *> tagFolds2;

    // "use alt on newly allocated" arbitration counters.
    std::vector<std::int8_t> useAltOnNa;

    // Allocation throttling (u-bit ageing).
    std::uint32_t tick = 0;

    // predict/update pairing state
    struct LookupState
    {
        std::uint64_t pc = 0;
        int provider = -1;
        int altTable = -1; // -1 = bimodal
        unsigned providerIndex = 0;
        unsigned altIndex = 0;
        bool providerPred = false;
        bool altPred = false;
        bool finalPred = false;
        bool providerNew = false;
        bool usedAlt = false;
        //!< per-table indices/tags this lookup — fixed-capacity inline
        //!< storage, so predict() never touches the heap
        std::array<unsigned, kMaxTables> indices{};
        std::array<std::uint16_t, kMaxTables> tags{};
    } look;

    // Allocation-regression guard: a std::vector member would make the
    // lookup state non-trivially-copyable and fail this assert.
    static_assert(std::is_trivially_copyable_v<LookupState>,
                  "per-lookup state must stay heap-allocation-free");

    std::uint32_t lfsr = 0xbeefu;

    // Detached by default (null sinks): each is one never-taken branch
    // on the update path until attachProbes() resolves it.
    obs::ProbeCounter obsProvider;
    obs::ProbeCounter obsAlt;
    obs::ProbeCounter obsBase;
    obs::ProbeCounter obsAllocSuccess;
    obs::ProbeCounter obsAllocFail;
    obs::ProbeCounter obsUsefulReset;
};

} // namespace imli

#endif // IMLI_SRC_PREDICTORS_TAGE_HH
