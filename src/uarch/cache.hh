/**
 * @file
 * Set-associative cache model and the two-level data hierarchy.
 *
 * Tags are real: hit/miss behaviour emerges from the address stream
 * (the workload generator's locality pools), not from drawn flags.
 * Replacement is true LRU per set.
 */

#ifndef TEMPEST_UARCH_CACHE_HH
#define TEMPEST_UARCH_CACHE_HH

#include <cstdint>
#include <vector>

#include "uarch/pipeline_config.hh"
#include "workload/instruction.hh"

namespace tempest
{

struct ActivityRecord;
class StateWriter;
class StateReader;

/**
 * One level of set-associative cache with LRU replacement.
 *
 * Addresses are cache-line numbers (byte address / line size); the
 * cache is indexed by the low bits of the line number, so the set
 * count must be a power of two.
 */
class Cache
{
  public:
    /**
     * @param size_bytes total capacity
     * @param ways associativity
     * @param line_bytes line size
     */
    Cache(std::uint64_t size_bytes, int ways,
          std::uint64_t line_bytes = 64);

    /**
     * Look up a line; on miss the line is filled (allocate-on-miss).
     * @return true on hit.
     */
    bool access(std::uint64_t line_addr);

    /** Look up without filling on miss. */
    bool probe(std::uint64_t line_addr) const;

    /** Invalidate everything. */
    void flush();

    int sets() const { return sets_; }
    int ways() const { return ways_; }

    std::uint64_t accesses() const { return accesses_; }
    std::uint64_t misses() const { return misses_; }

    /** @return misses / accesses (0 if no accesses). */
    double missRate() const;

    void resetStats();

    /** Serialize tags, LRU clocks, and hit/miss statistics. */
    void saveState(StateWriter& w) const;

    /** Restore state; the cache geometry must match. */
    void loadState(StateReader& r);

  private:
    struct Way
    {
        std::uint64_t tag = 0;
        std::uint64_t lastUse = 0;
        bool valid = false;
    };

    int findWay(int set, std::uint64_t tag) const;

    /** Set index of a line address: its low log2(sets_) bits. */
    int
    setOf(std::uint64_t line_addr) const
    {
        return static_cast<int>(line_addr &
                                (static_cast<std::uint64_t>(sets_) - 1));
    }

    /** Tag of a line address: the bits above the set index. */
    std::uint64_t
    tagOf(std::uint64_t line_addr) const
    {
        return line_addr >> setShift_;
    }

    int sets_;
    int setShift_; // ckpt:skip(derived: log2(sets_))
    int ways_;
    std::vector<Way> lines_; ///< sets_ * ways_, row-major by set
    std::uint64_t useClock_ = 0;
    std::uint64_t accesses_ = 0;
    std::uint64_t misses_ = 0;
};

/**
 * The L1D + unified L2 data hierarchy (Table 2: 64KB 4-way 2-cycle
 * L1, 2MB 8-way L2, 250-cycle memory).
 */
class DataHierarchy
{
  public:
    explicit DataHierarchy(const PipelineConfig& config);

    /**
     * Access a line for a load or store: consults L1 then L2,
     * filling on miss, and charges cache activity.
     * @return the level that serviced the access.
     */
    MemLevel access(std::uint64_t line_addr, ActivityRecord& activity);

    /** @return load-to-use latency for a given service level. */
    int latency(MemLevel level) const;

    Cache& l1() { return l1_; }
    Cache& l2() { return l2_; }
    const Cache& l1() const { return l1_; }
    const Cache& l2() const { return l2_; }

    /** Serialize both levels. */
    void saveState(StateWriter& w) const;

    /** Restore both levels. */
    void loadState(StateReader& r);

  private:
    Cache l1_;
    Cache l2_;
    int l1HitCycles_; // ckpt:skip(config, supplied by the restoring run)
    int l2HitCycles_; // ckpt:skip(config, supplied by the restoring run)
    int memCycles_;   // ckpt:skip(config, supplied by the restoring run)
};

} // namespace tempest

#endif // TEMPEST_UARCH_CACHE_HH
