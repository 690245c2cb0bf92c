/**
 * @file
 * Compacting issue queue with per-entry compaction-activity
 * accounting and the paper's two head/tail configurations (§2.1).
 *
 * Entries live in a *physical* array; instruction age/priority is a
 * *logical* position. The compaction mode maps logical to physical:
 *
 * - Conventional: logical i -> physical i. Head (oldest, highest
 *   priority) at physical 0, tail grows upward.
 * - Toggled: logical i -> physical (i + N/2) mod N. Head at the
 *   middle of the queue, compaction wraps from physical 0 to N-1
 *   over the long wires (charged the "long compaction" energy).
 *
 * Compaction shifts valid entries toward the head by the number of
 * free slots below them, at most issueWidth positions per cycle
 * (the hardware supports compacting up to n invalid entries per
 * cycle in an n-wide machine). The paper's clock-gating rules are
 * applied: only entries that move drive their data wires and mux
 * selects; an instruction issued in cycle c is marked invalid but
 * compacts starting in cycle c+1 (the replay window).
 *
 * Toggling the mode leaves physical contents in place and
 * re-derives logical positions, reproducing the paper's transiently
 * inverted priorities right after a toggle.
 *
 * Storage is structure-of-arrays (DESIGN.md §14): each entry field
 * lives in its own parallel array indexed by physical slot, and all
 * boolean per-entry state is packed into 64-bit bitmaps, so every
 * per-cycle scan walks contiguous words instead of striding through
 * an array of structs:
 *
 * - `seq_`, `src0_`/`src1_`, `lineAddr_` (u64) and `cls_`,
 *   `numSrcs_` (u8): the payload arrays.
 * - `tag0_`/`tag1_` (u16): the low 16 bits of each source's
 *   producer seq, the wakeup CAM's tags; derived state, moved by
 *   compaction and rebuilt by loadState. Wakeup compares a
 *   completing seq against every slot's tags at once and confirms
 *   a hit against `src0_`/`src1_`; select's class masks compare
 *   `cls_` the same way. The tag arrays and `cls_` are padded to
 *   whole bitmap words, so the vector loads never leave them.
 * - `validBits_`/`pendingBits_`: occupancy, by physical slot.
 * - `needsBits_[s]`: bit p set iff the entry at p is waiting on
 *   source s (the set the wakeup CAM watches). The union of the
 *   two is the old waiting bitmap; physical indexing makes a mode
 *   toggle a no-op for these maps — entries do not move.
 * - `hasDestBits_`/`mispredBits_`: remaining per-entry flags.
 * - `ready_`, indexed by *logical* position: bit l is set iff the
 *   entry at logical l is ready to issue. The select network walks
 *   these words with std::countr_zero, so priority order falls out
 *   of bit order with no per-entry scan.
 *
 * The arrays are carved from an Arena (the owning simulator's, or a
 * private one for standalone construction) and serialized as bulk
 * blob writes — see the `ckpt:bulk(iq-soa)` annotations.
 *
 * `IqEntry` remains as a dispatch descriptor and as a materialized
 * per-entry view for tests; the core dispatches through
 * dispatchFields() and never builds one.
 */

#ifndef TEMPEST_UARCH_ISSUE_QUEUE_HH
#define TEMPEST_UARCH_ISSUE_QUEUE_HH

#include <bit>
#include <cstdint>

#include "common/arena.hh"
#include "uarch/activity.hh"
#include "uarch/pipeline_config.hh"
#include "workload/instruction.hh"

namespace tempest
{

class StateWriter;
class StateReader;

/** Head/tail configuration (§2.1.1). */
enum class CompactionMode
{
    Conventional, ///< head at physical 0
    Toggled       ///< head at physical N/2, wrap-around compaction
};

/** One issue-queue entry (dispatch descriptor / materialized view). */
struct IqEntry
{
    bool valid = false;
    /** Issued this cycle; becomes a hole at the next compaction. */
    bool pendingInvalid = false;

    std::uint64_t seq = 0;
    OpClass cls = OpClass::IntAlu;
    int numSrcs = 0;
    std::uint64_t src[2] = {0, 0};
    bool srcReady[2] = {true, true};
    bool hasDest = true;
    std::uint64_t lineAddr = 0;
    bool mispredicted = false;

    /** @return true if all sources are ready and not yet issued. */
    bool
    ready() const
    {
        if (!valid || pendingInvalid)
            return false;
        for (int i = 0; i < numSrcs; ++i) {
            if (!srcReady[i])
                return false;
        }
        return true;
    }
};

/** Compacting issue queue for one instruction class. */
class IssueQueue
{
  public:
    /**
     * @param num_entries queue size (even; Table 2: 32)
     * @param issue_width max compaction distance per cycle
     * @param kind integer or floating-point queue
     * @param arena arena the SoA arrays are carved from; nullptr
     *        uses a private arena (standalone tests/benches)
     */
    IssueQueue(int num_entries, int issue_width, QueueKind kind,
               Arena* arena = nullptr);

    IssueQueue(const IssueQueue&) = delete;
    IssueQueue& operator=(const IssueQueue&) = delete;

    int size() const { return size_; }
    QueueKind kind() const { return kind_; }
    CompactionMode mode() const { return mode_; }

    /** Number of valid entries (including pending-invalid ones). */
    int count() const { return count_; }

    /**
     * @return true if dispatch can insert this cycle: there is a
     * free logical slot above every occupied entry. Holes awaiting
     * compaction can make the queue unavailable even when count()
     * < size(), which is faithful to the hardware.
     */
    bool canDispatch() const;

    /**
     * Insert an instruction at the logical tail. The caller must
     * check canDispatch() first; fatal() otherwise. Charges the
     * payload RAM write.
     */
    void dispatch(const IqEntry& entry, ActivityRecord& activity);

    /**
     * dispatch() from loose fields, the core's path straight from
     * its fetch ring. `wait0`/`wait1`: the source's producer has not
     * completed; an unused source holds seq 0 and never waits. The
     * per-entry bits are written without branches.
     */
    void dispatchFields(std::uint64_t seq, OpClass cls, int num_srcs,
                        std::uint64_t src0, std::uint64_t src1,
                        bool wait0, bool wait1, bool has_dest,
                        bool mispredicted, std::uint64_t line_addr,
                        ActivityRecord& activity);

    /**
     * Wake dependents of a completed producer: one destination-tag
     * broadcast across all entries (charged, then wakeup()).
     */
    void broadcast(std::uint64_t producer_seq,
                   ActivityRecord& activity);

    /**
     * Wake dependents of several producers that completed in the
     * same cycle (one tag-broadcast charge each, then wakeup()).
     */
    void broadcastMany(const std::uint64_t* producer_seqs, int n,
                       ActivityRecord& activity);

    /**
     * The wakeup CAM for the `n` producers completing this cycle:
     * each seq's low 16 bits are compared against every waiting
     * source's tag at once (SSE2 where the target has it, else
     * the scalar twin), a hit is confirmed against the full
     * producer seq, and an entry left waiting on nothing moves to
     * the ready bitmap. Charges nothing; the writeback loop
     * charges the broadcast through chargeWakeup().
     */
    void
    wakeup(const std::uint64_t* producer_seqs, int n)
    {
        wakeupImpl(producer_seqs, n, false);
    }

    /**
     * Charge the cycle's tag-broadcast activity for `n_tags`
     * completing destinations. No-op when the queue is empty (the
     * broadcast drivers are clock-gated) or n_tags <= 0.
     */
    void chargeWakeup(int n_tags, ActivityRecord& activity);

    /** Ready bitmap in logical-priority order: bit l of word l/64
     * is set iff the entry at logical position l is ready. */
    const std::uint64_t* readyBits() const { return ready_; }

    /** Number of 64-bit words in the ready/waiting bitmaps. */
    int bitWords() const { return words_; }

    /** Op class of the entry at a physical slot (issue hot path;
     * the index must come from a grant). */
    OpClass
    opClassAt(int phys) const
    {
        return static_cast<OpClass>(cls_[phys]);
    }

    /**
     * Logical-order bitmap (bitWords() words into `out`) of the
     * slots whose op class lies in [lo, hi]; only the bits of
     * valid entries are meaningful. One-word queues compare all of
     * `cls_` at once (SSE2 where the target has it), larger ones
     * run the scalar twin.
     */
    void
    classMask(OpClass lo, OpClass hi, std::uint64_t* out) const
    {
        classMaskImpl(lo, hi, out, false);
    }

    /** Unchecked field reads for the issue hot path; the index
     * must name a valid entry (it came from a grant). */
    std::uint64_t seqAt(int phys) const { return seq_[phys]; }
    int numSrcsAt(int phys) const { return numSrcs_[phys]; }
    std::uint64_t lineAddrAt(int phys) const
    {
        return lineAddr_[phys];
    }
    bool hasDestAt(int phys) const
    {
        return testBit(hasDestBits_, phys);
    }
    bool mispredictedAt(int phys) const
    {
        return testBit(mispredBits_, phys);
    }

    /**
     * Visit ready entries in priority (logical) order by walking
     * the ready bitmap. The visitor receives (physical index,
     * materialized entry view) and returns false to stop. Entries
     * issued by the visitor itself are not revisited; entries
     * dispatched during iteration are not picked up.
     */
    template <typename Visitor>
    void
    forEachReadyInPriorityOrder(Visitor&& visit) const
    {
        for (int w = 0; w < words_; ++w) {
            std::uint64_t m = ready_[w];
            while (m != 0) {
                const int l = w * 64 + std::countr_zero(m);
                m &= m - 1;
                const int p = physOfLogical(l);
                const IqEntry e = materialize(p);
                if (!visit(p, e))
                    return;
            }
        }
    }

    /**
     * Mark an entry (by physical index) as issued: charges payload
     * read + select access; entry becomes a hole next cycle.
     */
    void markIssued(int phys_idx, ActivityRecord& activity);

    /**
     * One cycle of compaction: convert pending invalids to holes,
     * shift valid entries toward the head by at most issueWidth,
     * and charge per-entry compaction activity with the clock-
     * gating rules. Also accounts per-half occupancy and the
     * always-on clock-gate control logic. Call once per core cycle.
     */
    void
    compactStep(ActivityRecord& activity)
    {
        compactStepImpl(activity, false);
    }

    /** @return true if compactStep() would only charge its
     * per-cycle counters and select would find nothing: no pending
     * invalids, no holes below the tail, no ready entry. */
    bool
    quiescent() const
    {
        if (pendingInvalidCount_ != 0 || tailLogical_ != count_)
            return false;
        for (int w = 0; w < words_; ++w) {
            if (ready_[w] != 0)
                return false;
        }
        return true;
    }

    /** Charge `n` cycles of what compactStep() charges every cycle
     * (clock-gate control, per-half occupancy): all that a
     * quiescent queue's compactStep() does. */
    void chargeCycles(std::uint64_t n, ActivityRecord& activity) const;

    /**
     * Flip the head/tail configuration. Physical contents stay in
     * place; logical positions are re-derived, so relative priority
     * of in-flight instructions changes transiently (§2.1.1).
     */
    void toggleMode();

    /** Number of mode toggles performed. */
    std::uint64_t toggleCount() const { return toggleCount_; }

    /** Physical index of a logical position under the current
     * mode. Inputs are in [0, size), so the toggled-mode rotation
     * by size/2 reduces with one conditional subtract (no `%`). */
    int
    physOfLogical(int logical) const
    {
        if (mode_ == CompactionMode::Conventional)
            return logical;
        const int p = logical + half_;
        return p >= size_ ? p - size_ : p;
    }

    /** Logical position of a physical index. */
    int
    logicalOfPhys(int phys) const
    {
        if (mode_ == CompactionMode::Conventional)
            return phys;
        // size - size/2 == size/2 for the even sizes we require.
        const int l = phys + half_;
        return l >= size_ ? l - size_ : l;
    }

    /** Physical half (0 = lower) of a physical index. */
    int
    halfOfPhys(int phys) const
    {
        return phys < half_ ? 0 : 1;
    }

    /** Materialized entry view by physical index (tests; the hot
     * paths use the field accessors above). */
    IqEntry entryAtPhys(int phys) const;

    /** Valid entries currently in a physical half. */
    int occupancyOfHalf(int half) const;

    /** Dispatched-but-unready entries the wakeup CAM is watching
     * (for tests: an entry ready at dispatch never appears). */
    int
    waitingCount() const
    {
        int n = 0;
        for (int w = 0; w < words_; ++w)
            n += std::popcount(needsBits_[0][w] | needsBits_[1][w]);
        return n;
    }

    /** Serialize entries, bitmaps, mode, and bookkeeping. */
    void saveState(StateWriter& w) const;

    /** Restore state saved by saveState(); the queue geometry
     * (size, kind) must match the saved one. */
    void loadState(StateReader& r);

  private:
    int queueIndex() const { return static_cast<int>(kind_); }

    /** Build the struct view of one physical slot. */
    IqEntry materialize(int phys) const;

    /** compactStep body; force_generic pins the reference pass so
     * the unit tests can diff the two implementations. */
    void compactStepImpl(ActivityRecord& activity,
                         bool force_generic);

    /** Compaction pass over single-word bitmaps: holes and runs
     * are derived with mask arithmetic, runs of entries move with
     * one memmove per field array and one mask shift per bitmap
     * (the hot path; every shipped queue fits one word). */
    void compactWordPass(ActivityRecord& activity);

    /** Reference per-entry compaction pass (queues > 64 entries);
     * must charge and move exactly like compactWordPass. */
    void compactGenericPass(ActivityRecord& activity);

    friend struct IqTestPeer;

    static std::uint64_t
    mask64(int n)
    {
        return n >= 64 ? ~0ULL : (1ULL << n) - 1;
    }

    /** wakeup() body; force_scalar pins the scalar tag compare so
     * the unit tests can diff it against the vector one. */
    void wakeupImpl(const std::uint64_t* producer_seqs, int n,
                    bool force_scalar);

    /** classMask() body; force_scalar pins the scalar twin. */
    void classMaskImpl(OpClass lo, OpClass hi, std::uint64_t* out,
                       bool force_scalar) const;

    /** A one-word physical-slot mask in logical order (toggled
     * mode rotates it by half_). */
    std::uint64_t
    logicalWord(std::uint64_t phys_mask) const
    {
        if (mode_ == CompactionMode::Conventional)
            return phys_mask;
        return ((phys_mask >> half_) |
                (phys_mask << (size_ - half_))) &
               mask64(size_);
    }

    /** Recompute tag0_/tag1_ from src0_/src1_ (loadState). */
    void rebuildTags();

    /** Recompute the cached tail position (one past the highest
     * occupied logical slot). */
    void recomputeTail();

    /** Rebuild the logical-order ready bitmap from entry state
     * (used after a mode toggle re-derives logical positions). */
    void rebuildReadyBits();

    static bool
    testBit(const std::uint64_t* map, int i)
    {
        return (map[i >> 6] >> (i & 63)) & 1;
    }

    static void
    setBit(std::uint64_t* map, int i)
    {
        map[i >> 6] |= 1ULL << (i & 63);
    }

    static void
    clearBit(std::uint64_t* map, int i)
    {
        map[i >> 6] &= ~(1ULL << (i & 63));
    }

    /** Relocate one bit: clears `from`, writes its old value at
     * `to` (unconditionally, so stale destination bits die). */
    static void
    moveBit(std::uint64_t* map, int from, int to)
    {
        const bool was = testBit(map, from);
        clearBit(map, from);
        if (was)
            setBit(map, to);
        else
            clearBit(map, to);
    }

    void setReadyBit(int logical) { setBit(ready_, logical); }
    void clearReadyBit(int logical) { clearBit(ready_, logical); }

    bool
    testReadyBit(int logical) const
    {
        return testBit(ready_, logical);
    }

    /** @return true if the valid entry at `phys` waits on nothing
     * and has not issued. */
    bool
    slotReady(int phys) const
    {
        return testBit(validBits_, phys) &&
               !testBit(pendingBits_, phys) &&
               !testBit(needsBits_[0], phys) &&
               !testBit(needsBits_[1], phys);
    }

    int size_;
    // ckpt:skip(derived: size_ / 2)
    int half_; ///< size_ / 2, the toggled-mode rotation
    int words_; ///< bitmap words, (size_ + 63) / 64
    int issueWidth_; // ckpt:skip(config, supplied by the restoring run)
    QueueKind kind_;
    CompactionMode mode_ = CompactionMode::Conventional;
    int count_ = 0;
    std::uint64_t toggleCount_ = 0;

    // Incremental bookkeeping kept consistent by dispatch/compact/
    // toggle so the per-cycle paths avoid full scans.
    int tailLogical_ = 0;       ///< one past highest occupied slot
    int halfCount_[2] = {0, 0}; ///< valid entries per physical half
    int pendingInvalidCount_ = 0; ///< issued, not yet holes

    // ckpt:skip(allocator backing the SoA arrays, not state)
    Arena ownArena_; ///< used when the caller supplies no arena

    // SoA payload arrays, indexed by physical slot; arena-owned
    // (freed when the arena dies), serialized as bulk blobs. `cls_`
    // is padded to whole bitmap words for the vector class compare;
    // the padding stays zero and is never serialized.
    std::uint64_t* seq_;      // ckpt:bulk(iq-soa)
    std::uint64_t* src0_;     // ckpt:bulk(iq-soa)
    std::uint64_t* src1_;     // ckpt:bulk(iq-soa)
    std::uint64_t* lineAddr_; // ckpt:bulk(iq-soa)
    std::uint8_t* cls_;       // ckpt:bulk(iq-soa)
    std::uint8_t* numSrcs_;   // ckpt:bulk(iq-soa)

    // Per-entry flags as bitmaps, indexed by physical slot.
    std::uint64_t* validBits_;   // ckpt:bulk(iq-soa)
    std::uint64_t* pendingBits_; // ckpt:bulk(iq-soa)
    std::uint64_t* hasDestBits_; // ckpt:bulk(iq-soa)
    std::uint64_t* mispredBits_; // ckpt:bulk(iq-soa)
    /** needsBits_[s] bit p: entry at p waits on source s. */
    std::uint64_t* needsBits_[2]; // ckpt:bulk(iq-soa)

    /** Ready entries by logical position (see file comment). */
    std::uint64_t* ready_; // ckpt:bulk(iq-soa)

    // Wakeup tags: the low 16 bits of src0_/src1_ by physical slot,
    // padded like cls_. An entry waits only on an in-flight
    // producer, and the in-flight window is far below 2^16 seqs, so
    // a tag hit is almost always real; wakeupImpl() still confirms
    // it against the full seq.
    std::uint16_t* tag0_; // ckpt:skip(derived: low bits of src0_)
    std::uint16_t* tag1_; // ckpt:skip(derived: low bits of src1_)
};

} // namespace tempest

#endif // TEMPEST_UARCH_ISSUE_QUEUE_HH
