/**
 * @file
 * TableArena: contiguous cache-line-aware storage for multi-table
 * predictor state.
 *
 * Every TAGE/GEHL-family predictor owns N same-sized tables of small
 * entries.  Holding them as std::vector<std::vector<Entry>> costs one
 * heap allocation per table and a pointer dereference per access, and
 * scatters the tables across the heap so a predict/update pair touching
 * all N tables walks N unrelated regions.  TableArena packs the whole
 * predictor into ONE allocation, aligned to the cache line:
 *
 *     +--------- table 0 ---------+--------- table 1 ---------+-- ...
 *     ^ base (64-byte aligned)    ^ base + (1 << logEntries)
 *
 * The per-table stride is the power-of-two entry count (1 << logEntries),
 * so addressing is base + (table << logEntries) + index — two adds and a
 * shift, no pointer chase — and a table's row never straddles another's.
 * Entries stay the caller's type (packed int8/int16 structs), so a
 * 64-byte line holds 8-21 entries and the sequential ageing sweeps walk
 * the arena at streaming bandwidth.
 */

#ifndef IMLI_SRC_UTIL_ARENA_HH
#define IMLI_SRC_UTIL_ARENA_HH

#include <cassert>
#include <cstddef>
#include <new>
#include <vector>

namespace imli
{

/** Cache line size assumed for table alignment. */
constexpr std::size_t kCacheLineBytes = 64;

/**
 * Minimal allocator aligning every allocation to the cache line, so the
 * arena base (and therefore every power-of-two table boundary) starts on
 * a fresh line.  Stateless; all instances compare equal.
 */
template <typename T>
struct CacheAlignedAllocator
{
    using value_type = T;

    CacheAlignedAllocator() = default;
    template <typename U>
    CacheAlignedAllocator(const CacheAlignedAllocator<U> &)
    {
    }

    T *
    allocate(std::size_t n)
    {
        return static_cast<T *>(::operator new(
            n * sizeof(T), std::align_val_t{kCacheLineBytes}));
    }

    void
    deallocate(T *p, std::size_t) noexcept
    {
        ::operator delete(p, std::align_val_t{kCacheLineBytes});
    }

    template <typename U>
    bool
    operator==(const CacheAlignedAllocator<U> &) const
    {
        return true;
    }
    template <typename U>
    bool
    operator!=(const CacheAlignedAllocator<U> &) const
    {
        return false;
    }
};

/**
 * N same-sized predictor tables in one contiguous allocation with
 * power-of-two strides.  Replaces vector<vector<Entry>>: at(t, i) is the
 * flat element base[(t << logEntries) + i], row(t) exposes a table as a
 * plain Entry* span, and begin()/end() iterate the whole arena in
 * table-major order (identical to iterating the old nested vectors).
 */
template <typename Entry>
class TableArena
{
  public:
    TableArena() = default;

    /**
     * @param num_tables table count (the slow dimension)
     * @param log_entries log2 entries per table (the stride)
     * @param init value every entry starts from
     */
    TableArena(unsigned num_tables, unsigned log_entries,
               const Entry &init = Entry())
        : logEntriesVal(log_entries), tableCount(num_tables),
          store(static_cast<std::size_t>(num_tables) << log_entries, init)
    {
    }

    Entry &
    at(unsigned table, unsigned index)
    {
        assert(table < tableCount && index < stride());
        return store[(static_cast<std::size_t>(table) << logEntriesVal) +
                     index];
    }

    const Entry &
    at(unsigned table, unsigned index) const
    {
        assert(table < tableCount && index < stride());
        return store[(static_cast<std::size_t>(table) << logEntriesVal) +
                     index];
    }

    /** Table @p table as a contiguous span of stride() entries. */
    Entry *row(unsigned table)
    {
        assert(table < tableCount);
        return store.data() +
               (static_cast<std::size_t>(table) << logEntriesVal);
    }
    const Entry *row(unsigned table) const
    {
        assert(table < tableCount);
        return store.data() +
               (static_cast<std::size_t>(table) << logEntriesVal);
    }

    /** Entries per table (the power-of-two stride). */
    std::size_t stride() const { return std::size_t{1} << logEntriesVal; }
    unsigned numTables() const { return tableCount; }
    /** Total entries across all tables. */
    std::size_t size() const { return store.size(); }

    /** Whole-arena iteration (table-major), for ageing/reset sweeps. */
    auto begin() { return store.begin(); }
    auto end() { return store.end(); }
    auto begin() const { return store.begin(); }
    auto end() const { return store.end(); }

  private:
    unsigned logEntriesVal = 0;
    unsigned tableCount = 0;
    std::vector<Entry, CacheAlignedAllocator<Entry>> store;
};

} // namespace imli

#endif // IMLI_SRC_UTIL_ARENA_HH
