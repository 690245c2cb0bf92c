#include "uarch/cache.hh"

#include <bit>

#include "common/log.hh"
#include "common/types.hh"
#include "sim/checkpoint/stateio.hh"
#include "uarch/activity.hh"

namespace tempest
{

Cache::Cache(std::uint64_t size_bytes, int ways,
             std::uint64_t line_bytes)
    : ways_(ways)
{
    if (ways < 1)
        fatal("cache associativity must be >= 1");
    if (line_bytes == 0 || size_bytes % (line_bytes * ways) != 0)
        fatal("cache size must be a multiple of ways * line size");
    sets_ = static_cast<int>(size_bytes / (line_bytes * ways));
    if (sets_ < 1)
        fatal("cache must have at least one set");
    if (!std::has_single_bit(static_cast<unsigned>(sets_)))
        fatal("cache set count must be a power of two, got ", sets_);
    setShift_ = std::countr_zero(static_cast<unsigned>(sets_));
    lines_.assign(static_cast<std::size_t>(sets_) * ways_, Way{});
}

int
Cache::findWay(int set, std::uint64_t tag) const
{
    const auto base = static_cast<std::size_t>(set) * ways_;
    for (int w = 0; w < ways_; ++w) {
        const Way& way = lines_[base + w];
        if (way.valid && way.tag == tag)
            return w;
    }
    return invalidIndex;
}

bool
Cache::access(std::uint64_t line_addr)
{
    ++accesses_;
    ++useClock_;
    const int set = setOf(line_addr);
    const std::uint64_t tag = tagOf(line_addr);
    const auto base = static_cast<std::size_t>(set) * ways_;

    const int hit_way = findWay(set, tag);
    if (hit_way != invalidIndex) {
        lines_[base + hit_way].lastUse = useClock_;
        return true;
    }

    ++misses_;
    // Fill: choose an invalid way, else the LRU way.
    int victim = 0;
    std::uint64_t oldest = ~0ULL;
    for (int w = 0; w < ways_; ++w) {
        const Way& way = lines_[base + w];
        if (!way.valid) {
            victim = w;
            break;
        }
        if (way.lastUse < oldest) {
            oldest = way.lastUse;
            victim = w;
        }
    }
    Way& way = lines_[base + victim];
    way.valid = true;
    way.tag = tag;
    way.lastUse = useClock_;
    return false;
}

bool
Cache::probe(std::uint64_t line_addr) const
{
    return findWay(setOf(line_addr), tagOf(line_addr)) != invalidIndex;
}

void
Cache::flush()
{
    for (auto& way : lines_)
        way.valid = false;
}

double
Cache::missRate() const
{
    return accesses_ ? static_cast<double>(misses_) /
                           static_cast<double>(accesses_)
                     : 0.0;
}

void
Cache::resetStats()
{
    accesses_ = 0;
    misses_ = 0;
}

DataHierarchy::DataHierarchy(const PipelineConfig& config)
    : l1_(64 * 1024, 4),
      l2_(2 * 1024 * 1024, 8),
      l1HitCycles_(config.l1HitCycles),
      l2HitCycles_(config.l2HitCycles),
      memCycles_(config.memCycles)
{
}

MemLevel
DataHierarchy::access(std::uint64_t line_addr,
                      ActivityRecord& activity)
{
    ++activity.l1dAccesses;
    if (l1_.access(line_addr))
        return MemLevel::L1;
    ++activity.l2Accesses;
    if (l2_.access(line_addr))
        return MemLevel::L2;
    return MemLevel::Memory;
}

int
DataHierarchy::latency(MemLevel level) const
{
    switch (level) {
      case MemLevel::L1: return l1HitCycles_;
      case MemLevel::L2: return l1HitCycles_ + l2HitCycles_;
      case MemLevel::Memory: return memCycles_;
    }
    panic("unreachable memory level");
}

void
Cache::saveState(StateWriter& w) const
{
    w.i32(sets_);
    w.i32(ways_);
    w.u64(useClock_);
    w.u64(accesses_);
    w.u64(misses_);
    for (const Way& way : lines_) {
        w.u64(way.tag);
        w.u64(way.lastUse);
        w.boolean(way.valid);
    }
}

void
Cache::loadState(StateReader& r)
{
    const int sets = r.i32();
    const int ways = r.i32();
    if (sets != sets_ || ways != ways_) {
        fatal("checkpoint cache mismatch: saved ", sets, "x", ways,
              ", this cache is ", sets_, "x", ways_);
    }
    useClock_ = r.u64();
    accesses_ = r.u64();
    misses_ = r.u64();
    for (Way& way : lines_) {
        way.tag = r.u64();
        way.lastUse = r.u64();
        way.valid = r.boolean();
    }
}

void
DataHierarchy::saveState(StateWriter& w) const
{
    l1_.saveState(w);
    l2_.saveState(w);
}

void
DataHierarchy::loadState(StateReader& r)
{
    l1_.loadState(r);
    l2_.loadState(r);
}

} // namespace tempest
