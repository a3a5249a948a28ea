/**
 * @file
 * Model of the in-flight branch window a superscalar core must search to
 * maintain speculative local history (paper, Section 2.3.2, Figure 3).
 *
 * The local history table is updated at commit time only.  At prediction
 * time the hardware must check whether any in-flight (predicted but not
 * committed) branch maps to the same local-history entry; if so, the most
 * recent in-flight speculative history must be used instead of the table
 * contents.  That requires (a) storing the history alongside every
 * in-flight branch and (b) an associative search per fetch.  This class
 * implements that structure and counts its costs; LocalComponent reads
 * speculative local history through it on the pipeline engine, and its
 * local/window_compares probe puts numbers behind the paper's complexity
 * argument (bench_sec44_storage).
 */

#ifndef IMLI_SRC_HISTORY_INFLIGHT_WINDOW_HH
#define IMLI_SRC_HISTORY_INFLIGHT_WINDOW_HH

#include <cstdint>
#include <deque>
#include <optional>

#include "src/history/local_history.hh"

namespace imli
{

/**
 * Window of speculative branch instances, each carrying the speculative
 * local history its successors must observe.
 */
class InflightWindow
{
  public:
    /**
     * @param capacity maximum in-flight branches (ROB-limited)
     * @param history_bits width of the carried local history
     */
    InflightWindow(unsigned capacity, unsigned history_bits);

    /**
     * Record a newly predicted branch with the speculative history that
     * *follows* it (i.e., including its own predicted outcome).
     *
     * @param local_index local-history-table index of the branch
     * @param spec_history history after appending the predicted outcome
     * @return a ticket identifying the instance for squash/commit
     */
    std::uint64_t insert(unsigned local_index, std::uint64_t spec_history);

    /**
     * Associative search (youngest first) for the most recent in-flight
     * instance mapping to @p local_index.  Every call increments the
     * searched-entries counter — this is the per-fetch energy the paper
     * says real designs refuse to pay.
     */
    std::optional<std::uint64_t> lookup(unsigned local_index);

    /**
     * lookup() restricted to instances with ticket <= @p max_ticket.
     * This is the time-travel view the pipeline simulator's commit
     * sandwich needs: re-deriving a branch's fetch-time lookup state must
     * see only the in-flight instances that were already in the window at
     * that branch's fetch, without destroying the younger ones (they are
     * still in flight).  Entries skipped for being too young still count
     * as searched — the hardware comparators examine them either way.
     */
    std::optional<std::uint64_t> lookupBefore(unsigned local_index,
                                              std::uint64_t max_ticket);

    /**
     * Ticket of the most recent insert ever (0 before the first insert —
     * tickets start at 1, so 0 as a lookupBefore() bound means "nothing
     * visible" and as a squashAfter() bound means "squash everything").
     */
    std::uint64_t lastTicket() const { return nextTicket - 1; }

    /** Commit the oldest in-flight branch (it leaves the window). */
    void commitOldest();

    /**
     * Squash every instance younger than (inserted after) @p ticket.  The
     * bound need not name a live instance: a ticket older than every
     * resident entry (including 0, or one whose instance was already
     * evicted or committed) squashes the whole window, and a ticket from
     * the future (never issued yet) squashes nothing.  Both follow from
     * the one rule "pop while back().ticket > ticket" and are pinned by
     * tests — recovery code may hold tickets for instances that are gone.
     */
    void squashAfter(std::uint64_t ticket);

    /** Squash everything (pipeline flush). */
    void squashAll();

    std::size_t size() const { return window.size(); }
    unsigned capacity() const { return cap; }

    /**
     * Entries visited by lookup()/lookupBefore() so far (associative-
     * search cost).  A plain uint64 event counter: it wraps modulo 2^64
     * like every other counter in the library — at one entry per
     * nanosecond that is five centuries, so no saturation logic.
     */
    std::uint64_t entriesSearched() const { return searched; }

    /** Storage held by the window: history bits per in-flight branch. */
    std::uint64_t storageBits() const;

  private:
    struct Entry
    {
        std::uint64_t ticket;
        unsigned localIndex;
        std::uint64_t history;
    };

    std::deque<Entry> window; //!< oldest at front
    unsigned cap;
    unsigned histBits;
    std::uint64_t nextTicket = 1;
    std::uint64_t searched = 0;
};

} // namespace imli

#endif // IMLI_SRC_HISTORY_INFLIGHT_WINDOW_HH
