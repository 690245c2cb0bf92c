/**
 * @file
 * Serialized select trees (§2.2 of the paper).
 *
 * A superscalar has one select tree per functional unit, serialized
 * in static priority order: tree i masks the requests already
 * granted by trees 0..i-1, so the highest-priority FU always
 * receives work first — the root cause of asymmetric ALU heating.
 *
 * A turned-off FU's tree grants nothing and masks nothing, which is
 * exactly how fine-grain turnoff plugs in (the existing busy
 * signal). Round-robin mode rotates the tree-to-FU order each cycle
 * and models the paper's ideal (but unimplementably complex)
 * comparator.
 *
 * The head/tail configuration of the queue is already encoded in
 * the queue's logical order (only the select-tree root changes
 * between modes, §2.1.1), so the trees here simply consume the
 * queue's logical-order ready bitmap: each tree grants the lowest
 * set bit (oldest = highest priority) of the not-yet-granted ready
 * entries ANDed with its eligibility mask, and serialization is a
 * bit clear in a scratch copy of the ready mask — no per-entry
 * scan, no per-candidate callback.
 */

#ifndef TEMPEST_UARCH_SELECT_HH
#define TEMPEST_UARCH_SELECT_HH

#include <bit>
#include <cstdint>
#include <vector>

#include "common/log.hh"
#include "uarch/issue_queue.hh"

namespace tempest
{

/** One grant: FU index and the chosen entry's physical slot. */
struct Grant
{
    int fu;
    int physIdx;
};

/** Serialized per-FU select trees over one issue queue. */
class SelectNetwork
{
  public:
    /** @param num_fus number of functional units (= trees). */
    explicit SelectNetwork(int num_fus) : numFus_(num_fus)
    {
        if (num_fus < 1)
            fatal("select network needs at least one FU");
    }

    int numFus() const { return numFus_; }

    /** Enable/disable round-robin tree rotation (ideal policy). */
    void setRoundRobin(bool enabled) { roundRobin_ = enabled; }
    bool roundRobin() const { return roundRobin_; }

    /**
     * Run one cycle of select over logical-order masks, each
     * iq.bitWords() words long.
     *
     * @param iq the queue to select from (its ready bitmap)
     * @param cycle current cycle (drives round-robin rotation)
     * @param max_grants remaining global issue budget
     * @param fu_on bit fu set iff FU fu may take work; an off FU's
     *        tree grants nothing and masks nothing
     * @param elig elig[fu]: the entries tree fu may take
     * @param limited entries that share a port budget, or nullptr
     * @param limit grants `limited` entries may take this cycle;
     *        once spent, the later trees skip them (L1D ports)
     * @param grants output; grants are appended in tree order
     * @return number of grants appended
     */
    int
    select(const IssueQueue& iq, std::uint64_t cycle, int max_grants,
           std::uint64_t fu_on, const std::uint64_t* const* elig,
           const std::uint64_t* limited, int limit,
           std::vector<Grant>& grants)
    {
        if (max_grants <= 0)
            return 0;

        // Snapshot the queue's ready bitmap once; the trees then
        // serialize by clearing granted bits in this scratch mask.
        const std::uint64_t* ready = iq.readyBits();
        const int num_words = iq.bitWords();
        avail_.resize(static_cast<std::size_t>(num_words));
        std::uint64_t any = 0;
        for (int w = 0; w < num_words; ++w) {
            avail_[static_cast<std::size_t>(w)] = ready[w];
            any |= ready[w];
        }
        if (any == 0)
            return 0;

        int num_granted = 0;
        int fu = roundRobin_ ? static_cast<int>(cycle % numFus_) : 0;
        for (int t = 0; t < numFus_ && num_granted < max_grants;
             ++t, fu = fu + 1 == numFus_ ? 0 : fu + 1) {
            if (((fu_on >> fu) & 1) == 0)
                continue; // busy/turned-off: no grant, no masking
            const std::uint64_t* e = elig[fu];
            for (int w = 0; w < num_words; ++w) {
                std::uint64_t& avail =
                    avail_[static_cast<std::size_t>(w)];
                std::uint64_t m = avail & e[w];
                if (limited != nullptr && limit <= 0)
                    m &= ~limited[w];
                if (m == 0)
                    continue;
                const std::uint64_t bit = m & (~m + 1);
                avail &= ~bit;
                if (limited != nullptr && (limited[w] & bit) != 0)
                    --limit;
                grants.push_back(
                    {fu, iq.physOfLogical(w * 64 + std::countr_zero(m))});
                ++num_granted;
                break;
            }
        }
        return num_granted;
    }

  private:
    int numFus_;
    bool roundRobin_ = false;
    // Scratch request mask reused across cycles (no allocation at
    // steady state).
    std::vector<std::uint64_t> avail_;
};

} // namespace tempest

#endif // TEMPEST_UARCH_SELECT_HH
