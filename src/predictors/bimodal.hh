/**
 * @file
 * Bimodal predictor (Smith, 1981): a PC-indexed table of saturating
 * counters.  Serves as the weakest baseline in the shootout example and as
 * the fallback ("base") predictor inside TAGE.
 */

#ifndef IMLI_SRC_PREDICTORS_BIMODAL_HH
#define IMLI_SRC_PREDICTORS_BIMODAL_HH

#include <vector>

#include "src/predictors/predictor.hh"
#include "src/util/counters.hh"

namespace imli
{

/** PC-indexed table of n-bit saturating counters. */
class BimodalPredictor : public ConditionalPredictor
{
  public:
    /**
     * @param log_entries log2 of the table size
     * @param counter_bits width of each counter
     */
    explicit BimodalPredictor(unsigned log_entries = 13,
                              unsigned counter_bits = 2);

    bool predict(std::uint64_t pc) override;
    void update(std::uint64_t pc, bool taken, std::uint64_t target) override;

    /**
     * Bimodal keeps no speculative history at all (the degenerate case of
     * the paper's recovery argument): the base-class no-op checkpoint /
     * restore / speculate defaults are exactly right.
     */
    bool supportsSpeculation() const override { return true; }

    std::string name() const override { return "bimodal"; }
    StorageAccount storage() const override;

    /** Direct table access for composition (TAGE base predictor). */
    bool lookup(std::uint64_t pc) const;

    /** True when the counter for @p pc holds a weak (hysteresis) state. */
    bool isWeak(std::uint64_t pc) const;

    void train(std::uint64_t pc, bool taken);

  private:
    unsigned index(std::uint64_t pc) const;

    std::vector<SatCounter> table;
    unsigned mask;
};

} // namespace imli

#endif // IMLI_SRC_PREDICTORS_BIMODAL_HH
