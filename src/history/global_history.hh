/**
 * @file
 * Global branch and path history with speculative-head checkpointing.
 *
 * The history is a circular bit buffer with two pointers (paper,
 * Section 2.3.1): the speculative head advances at prediction time, the
 * commit head at commit time.  Checkpointing the speculative head pointer
 * (a few bits) is all a superscalar core needs to recover the global
 * history after a misprediction — the contrast with local-history
 * management is the paper's central hardware argument.
 *
 * In immediate-update simulation only the speculative head moves; the
 * spec/ module exercises the two-pointer protocol explicitly, and the
 * pipeline simulator (src/sim/pipeline_simulator.hh) drives checkpoint /
 * restore per in-flight branch as hardware would.
 */

#ifndef IMLI_SRC_HISTORY_GLOBAL_HISTORY_HH
#define IMLI_SRC_HISTORY_GLOBAL_HISTORY_HH

#include <cstdint>
#include <vector>

namespace imli
{

/**
 * Circular global history buffer.  Bit i of the logical history is the
 * direction of the i-th most recent branch (0 = most recent).  A parallel
 * path-history register folds in low PC bits of each branch.
 */
class GlobalHistory
{
  public:
    /** @param capacity buffer capacity in bits; power of two, >= max hist. */
    explicit GlobalHistory(unsigned capacity = 4096);

    /** Append one outcome (and path bits) at the speculative head. */
    void push(bool taken, std::uint64_t pc);

    /** Logical history bit @p age ago (0 = most recent). */
    bool bit(unsigned age) const;

    /**
     * Pack the @p length most recent bits into a word (bit 0 = most
     * recent).  @p length must be <= 64; longer histories are consumed
     * through FoldedHistory instead.
     */
    std::uint64_t recent(unsigned length) const;

    /** 64-bit path history (low PC bits of recent branches, shifted). */
    std::uint64_t path() const { return pathHist; }

    /** Number of pushes so far (monotonic, for checkpoint width math). */
    std::uint64_t headPointer() const { return head; }

    /**
     * Checkpoint of the speculative state: the head pointer and the path
     * register.  The buffer contents older than the head are immutable, so
     * restoring the pointer restores the history — this is what makes the
     * hardware cheap.
     */
    struct Checkpoint
    {
        std::uint64_t head = 0;
        std::uint64_t pathHist = 0;
    };

    Checkpoint save() const { return {head, pathHist}; }

    /**
     * Move the speculative head to @p cp.  Rewinding is the hardware
     * recovery path: bits pushed after the checkpoint become dead.  A
     * *forward* restore (to a checkpoint taken before the current head
     * was rewound) is also allowed — the pipeline simulator's commit
     * sandwich restores a branch's fetch point, trains, and returns to
     * the fetch front; the buffer retains the in-between bits, so moving
     * the pointer forward restores them.  The caller guarantees
     * |distance| stays within the buffer capacity, and that the bits the
     * next push ages out after a backward restore (fold length positions
     * behind the restored head) were not overwritten by the pushes that
     * had moved past it (see host_spec::historyCapacity()).
     */
    void restore(const Checkpoint &cp);

    unsigned capacityBits() const
    {
        return static_cast<unsigned>(buffer.size());
    }

  private:
    std::vector<std::uint8_t> buffer; //!< one history bit per element
    std::uint64_t head = 0;           //!< speculative head (total pushes)
    std::uint64_t pathHist = 0;
    unsigned mask;
};

} // namespace imli

#endif // IMLI_SRC_HISTORY_GLOBAL_HISTORY_HH
