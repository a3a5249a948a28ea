/**
 * @file
 * Saturating counters, the basic storage element of every predictor table.
 *
 * Two flavours are provided, matching the two idioms in the branch
 * prediction literature:
 *
 *  - SatCounter: an unsigned up/down counter in [0, 2^bits - 1]; the MSB is
 *    the prediction ("taken" iff counter >= midpoint).  Used by bimodal,
 *    gshare and the TAGE tagged entries.
 *  - SignedCounter: a signed counter in [-2^(bits-1), 2^(bits-1) - 1];
 *    its centred value (2c + 1) feeds neural adder trees (GEHL / statistical
 *    corrector), following Seznec's O-GEHL formulation.
 *
 * Both counters update with branch-free clamped arithmetic: step by +/-1 in
 * a wide intermediate, then clamp with min/max-style ternaries the compiler
 * lowers to conditional moves.  The counter update sits inside the
 * per-branch train loop of every table of every predictor, and the step
 * direction correlates with the (by construction hard-to-predict) branch
 * outcome, so a data-dependent jump here costs a host-side mispredict per
 * simulated mispredict.  Semantics are exactly the saturating if/else
 * formulation — CI pins bit-identity over the full suite matrix.
 */

#ifndef IMLI_SRC_UTIL_COUNTERS_HH
#define IMLI_SRC_UTIL_COUNTERS_HH

#include <cassert>
#include <cstdint>

namespace imli
{

/** Unsigned saturating counter of a configurable width. */
class SatCounter
{
  public:
    SatCounter() = default;

    /**
     * @param num_bits counter width in bits (1..15)
     * @param initial initial counter value
     */
    explicit SatCounter(unsigned num_bits, unsigned initial = 0)
        : bits(static_cast<std::uint8_t>(num_bits)),
          value(static_cast<std::int16_t>(initial))
    {
        assert(num_bits >= 1 && num_bits <= 15);
        assert(initial <= maxValue());
    }

    /** Largest representable value. */
    unsigned maxValue() const { return (1u << bits) - 1; }

    /** Midpoint: smallest value predicting taken. */
    unsigned midpoint() const { return 1u << (bits - 1); }

    /** Saturating increment. */
    void
    increment()
    {
        const int cap = static_cast<int>(maxValue());
        const int next = value + 1;
        value = static_cast<std::int16_t>(next > cap ? cap : next);
    }

    /** Saturating decrement. */
    void
    decrement()
    {
        const int next = value - 1;
        value = static_cast<std::int16_t>(next < 0 ? 0 : next);
    }

    /** Move towards taken (true) or not-taken (false). */
    void
    update(bool taken)
    {
        const int step = taken ? 1 : -1;
        const int cap = static_cast<int>(maxValue());
        int next = value + step;
        next = next < 0 ? 0 : next;
        value = static_cast<std::int16_t>(next > cap ? cap : next);
    }

    /** Prediction encoded in the MSB. */
    bool taken() const { return static_cast<unsigned>(value) >= midpoint(); }

    /**
     * Weak counters are the two values adjacent to the midpoint; entries
     * holding weak counters are preferred victims during TAGE allocation.
     */
    bool
    isWeak() const
    {
        const unsigned v = static_cast<unsigned>(value);
        return v == midpoint() || v + 1 == midpoint();
    }

    unsigned raw() const { return static_cast<unsigned>(value); }

    void
    set(unsigned v)
    {
        assert(v <= maxValue());
        value = static_cast<std::int16_t>(v);
    }

    /** Reset to the weakest state for the given direction. */
    void
    reset(bool taken_dir)
    {
        value = static_cast<std::int16_t>(taken_dir ? midpoint()
                                                    : midpoint() - 1);
    }

    unsigned numBits() const { return bits; }

  private:
    std::uint8_t bits = 2;
    std::int16_t value = 0;
};

/** Signed saturating counter for neural adder trees. */
class SignedCounter
{
  public:
    SignedCounter() = default;

    /**
     * @param num_bits counter width in bits (1..16; one bit is a pure
     *        sign vote in [-1, 0], the low end of the spec grammar's
     *        gsc/sic/oh.ctrbits ranges)
     * @param initial initial value, must be representable
     */
    explicit SignedCounter(unsigned num_bits, int initial = 0)
        : bits(static_cast<std::uint8_t>(num_bits)),
          value(static_cast<std::int16_t>(initial))
    {
        assert(num_bits >= 1 && num_bits <= 16);
        assert(initial >= minValue() && initial <= maxValue());
    }

    int maxValue() const { return (1 << (bits - 1)) - 1; }
    int minValue() const { return -(1 << (bits - 1)); }

    /** Saturating update towards the branch outcome. */
    void
    update(bool taken)
    {
        const int step = taken ? 1 : -1;
        const int lo = minValue();
        const int hi = maxValue();
        int next = value + step;
        next = next < lo ? lo : next;
        value = static_cast<std::int16_t>(next > hi ? hi : next);
    }

    /**
     * Centred value 2c + 1 used as the adder-tree summand; never zero, so
     * every table always votes one way or the other (O-GEHL convention).
     */
    int centered() const { return 2 * value + 1; }

    /** Sign as a direction prediction. */
    bool taken() const { return value >= 0; }

    int raw() const { return value; }

    void
    set(int v)
    {
        assert(v >= minValue() && v <= maxValue());
        value = static_cast<std::int16_t>(v);
    }

    unsigned numBits() const { return bits; }

  private:
    std::uint8_t bits = 6;
    std::int16_t value = 0;
};

} // namespace imli

#endif // IMLI_SRC_UTIL_COUNTERS_HH
