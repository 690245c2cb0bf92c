#include "uarch/issue_queue.hh"

#include <algorithm>
#include <bit>
#include <cstring>

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

#include "common/log.hh"
#include "sim/checkpoint/stateio.hh"

namespace tempest
{

namespace
{

/** Slots per bitmap word; the tag and class arrays are padded to
 * whole words, so a vector load at any slot below the padded end
 * stays inside them. */
constexpr int kWordSlots = 64;

/**
 * Tag hits of one bitmap word's slots: bit i of hit0 (hit1) is set
 * iff bit i of care0 (care1) is set and tags0[i] (tags1[i]) equals
 * the low 16 bits of one of seqs[0..n). The scalar twin of
 * tagHits().
 */
void
tagHitsScalar(const std::uint16_t* tags0, const std::uint16_t* tags1,
              std::uint64_t care0, std::uint64_t care1,
              const std::uint64_t* seqs, int n, std::uint64_t& hit0,
              std::uint64_t& hit1)
{
    const auto hits = [seqs, n](const std::uint16_t* tags,
                                std::uint64_t care) {
        std::uint64_t out = 0;
        for (std::uint64_t m = care; m != 0; m &= m - 1) {
            const int i = std::countr_zero(m);
            for (int t = 0; t < n; ++t) {
                if (tags[i] == static_cast<std::uint16_t>(seqs[t]))
                    out |= 1ULL << i;
            }
        }
        return out;
    };
    hit0 = hits(tags0, care0);
    hit1 = hits(tags1, care1);
}

#if defined(__SSE2__)
/** tagHitsScalar() sixteen slots at a time: per 16-slot group with a
 * `care` bit, the four tag vectors load once, every seq is compared
 * against all of them (8 lanes per compare), and the accumulated
 * lanes pack into one byte mask per source. */
void
tagHits(const std::uint16_t* tags0, const std::uint16_t* tags1,
        std::uint64_t care0, std::uint64_t care1,
        const std::uint64_t* seqs, int n, std::uint64_t& hit0,
        std::uint64_t& hit1)
{
    hit0 = 0;
    hit1 = 0;
    const std::uint64_t care = care0 | care1;
    for (int g = 0; g < kWordSlots; g += 16) {
        if (((care >> g) & 0xffff) == 0)
            continue;
        const auto* at0 = reinterpret_cast<const __m128i*>(tags0 + g);
        const auto* at1 = reinterpret_cast<const __m128i*>(tags1 + g);
        const __m128i t0lo = _mm_loadu_si128(at0);
        const __m128i t0hi = _mm_loadu_si128(at0 + 1);
        const __m128i t1lo = _mm_loadu_si128(at1);
        const __m128i t1hi = _mm_loadu_si128(at1 + 1);
        __m128i e0lo = _mm_setzero_si128();
        __m128i e0hi = _mm_setzero_si128();
        __m128i e1lo = _mm_setzero_si128();
        __m128i e1hi = _mm_setzero_si128();
        for (int t = 0; t < n; ++t) {
            const __m128i key =
                _mm_set1_epi16(static_cast<short>(seqs[t]));
            e0lo = _mm_or_si128(e0lo, _mm_cmpeq_epi16(t0lo, key));
            e0hi = _mm_or_si128(e0hi, _mm_cmpeq_epi16(t0hi, key));
            e1lo = _mm_or_si128(e1lo, _mm_cmpeq_epi16(t1lo, key));
            e1hi = _mm_or_si128(e1hi, _mm_cmpeq_epi16(t1hi, key));
        }
        const auto bytes = [](__m128i lo, __m128i hi) {
            return static_cast<std::uint64_t>(static_cast<std::uint32_t>(
                _mm_movemask_epi8(_mm_packs_epi16(lo, hi))));
        };
        hit0 |= bytes(e0lo, e0hi) << g;
        hit1 |= bytes(e1lo, e1hi) << g;
    }
    hit0 &= care0;
    hit1 &= care1;
}

/** Bits i < n (n <= 64) with lo <= cls[i] <= hi, sixteen slots at
 * a time: an unsigned range test (cls - lo <= hi - lo) per byte
 * lane. */
std::uint64_t
classBits(const std::uint8_t* cls, int n, std::uint8_t lo,
          std::uint8_t hi)
{
    const __m128i base = _mm_set1_epi8(static_cast<char>(lo));
    const __m128i span = _mm_set1_epi8(static_cast<char>(hi - lo));
    std::uint64_t bits = 0;
    for (int g = 0; g < n; g += 16) {
        const __m128i d = _mm_sub_epi8(
            _mm_loadu_si128(reinterpret_cast<const __m128i*>(cls + g)),
            base);
        const __m128i in = _mm_cmpeq_epi8(_mm_min_epu8(d, span), d);
        bits |= static_cast<std::uint64_t>(
                    static_cast<std::uint32_t>(_mm_movemask_epi8(in)))
                << g;
    }
    return n >= 64 ? bits : bits & ((1ULL << n) - 1);
}
#else
constexpr auto tagHits = tagHitsScalar;
#endif

} // namespace

IssueQueue::IssueQueue(int num_entries, int issue_width,
                       QueueKind kind, Arena* arena)
    : size_(num_entries), half_(num_entries / 2),
      words_((num_entries + 63) / 64), issueWidth_(issue_width),
      kind_(kind), ownArena_(4096)
{
    if (num_entries < 2 || num_entries % 2 != 0)
        fatal("issue queue size must be even and >= 2");
    if (issue_width < 1)
        fatal("issue width must be >= 1");
    Arena& a = arena != nullptr ? *arena : ownArena_;
    const auto n = static_cast<std::size_t>(size_);
    const auto w = static_cast<std::size_t>(words_);
    const std::size_t padded = w * kWordSlots;
    seq_ = a.alloc<std::uint64_t>(n);
    src0_ = a.alloc<std::uint64_t>(n);
    src1_ = a.alloc<std::uint64_t>(n);
    lineAddr_ = a.alloc<std::uint64_t>(n);
    cls_ = a.alloc<std::uint8_t>(padded);
    numSrcs_ = a.alloc<std::uint8_t>(n);
    tag0_ = a.alloc<std::uint16_t>(padded);
    tag1_ = a.alloc<std::uint16_t>(padded);
    validBits_ = a.alloc<std::uint64_t>(w);
    pendingBits_ = a.alloc<std::uint64_t>(w);
    hasDestBits_ = a.alloc<std::uint64_t>(w);
    mispredBits_ = a.alloc<std::uint64_t>(w);
    needsBits_[0] = a.alloc<std::uint64_t>(w);
    needsBits_[1] = a.alloc<std::uint64_t>(w);
    ready_ = a.alloc<std::uint64_t>(w);
}

IqEntry
IssueQueue::materialize(int phys) const
{
    IqEntry e;
    e.valid = testBit(validBits_, phys);
    e.pendingInvalid = testBit(pendingBits_, phys);
    e.seq = seq_[phys];
    e.cls = static_cast<OpClass>(cls_[phys]);
    e.numSrcs = numSrcs_[phys];
    e.src[0] = src0_[phys];
    e.src[1] = src1_[phys];
    e.srcReady[0] = !testBit(needsBits_[0], phys);
    e.srcReady[1] = !testBit(needsBits_[1], phys);
    e.hasDest = testBit(hasDestBits_, phys);
    e.lineAddr = lineAddr_[phys];
    e.mispredicted = testBit(mispredBits_, phys);
    return e;
}

IqEntry
IssueQueue::entryAtPhys(int phys) const
{
    if (phys < 0 || phys >= size_)
        panic("issue-queue physical index out of range");
    return materialize(phys);
}

int
IssueQueue::occupancyOfHalf(int half) const
{
    if (half != 0 && half != 1)
        panic("issue-queue half must be 0 or 1");
    return halfCount_[half];
}

void
IssueQueue::recomputeTail()
{
    tailLogical_ = 0;
    for (int l = size_ - 1; l >= 0; --l) {
        if (testBit(validBits_, physOfLogical(l))) {
            tailLogical_ = l + 1;
            break;
        }
    }
}

void
IssueQueue::rebuildReadyBits()
{
    std::memset(ready_, 0,
                static_cast<std::size_t>(words_) * 8);
    for (int p = 0; p < size_; ++p) {
        if (slotReady(p))
            setReadyBit(logicalOfPhys(p));
    }
}

bool
IssueQueue::canDispatch() const
{
    // The tail is one past the highest occupied logical slot;
    // dispatch drives instructions only to the tail end, so holes
    // awaiting compaction can block dispatch even when count() is
    // below capacity.
    return tailLogical_ < size_;
}

void
IssueQueue::dispatch(const IqEntry& entry, ActivityRecord& activity)
{
    dispatchFields(entry.seq, entry.cls, entry.numSrcs, entry.src[0],
                   entry.src[1], entry.numSrcs > 0 && !entry.srcReady[0],
                   entry.numSrcs > 1 && !entry.srcReady[1],
                   entry.hasDest, entry.mispredicted, entry.lineAddr,
                   activity);
}

void
IssueQueue::dispatchFields(std::uint64_t seq, OpClass cls,
                           int num_srcs, std::uint64_t src0,
                           std::uint64_t src1, bool wait0, bool wait1,
                           bool has_dest, bool mispredicted,
                           std::uint64_t line_addr,
                           ActivityRecord& activity)
{
    if (tailLogical_ >= size_)
        fatal("dispatch into a queue with no tail slot; check "
              "canDispatch() first");
    const int phys = physOfLogical(tailLogical_);
    const int half = halfOfPhys(phys);
    seq_[phys] = seq;
    cls_[phys] = static_cast<std::uint8_t>(cls);
    numSrcs_[phys] = static_cast<std::uint8_t>(num_srcs);
    src0_[phys] = src0;
    src1_[phys] = src1;
    tag0_[phys] = static_cast<std::uint16_t>(src0);
    tag1_[phys] = static_cast<std::uint16_t>(src1);
    lineAddr_[phys] = line_addr;
    const int w = phys >> 6;
    const int b = phys & 63;
    const std::uint64_t bit = 1ULL << b;
    const auto put = [w, b, bit](std::uint64_t* map, bool on) {
        map[w] = (map[w] & ~bit) | (static_cast<std::uint64_t>(on) << b);
    };
    validBits_[w] |= bit;
    pendingBits_[w] &= ~bit;
    put(hasDestBits_, has_dest);
    put(mispredBits_, mispredicted);
    put(needsBits_[0], wait0);
    put(needsBits_[1], wait1);
    ready_[tailLogical_ >> 6] |=
        static_cast<std::uint64_t>(!(wait0 || wait1))
        << (tailLogical_ & 63);
    ++tailLogical_;
    ++count_;
    ++halfCount_[half];
    // Payload RAM write plus the entry write itself, charged to
    // the physical half that receives the dispatch.
    ++activity.iqPayloadAccesses[queueIndex()];
    ++activity.iqDispatchWrites[queueIndex()][half];
}

void
IssueQueue::broadcast(std::uint64_t producer_seq,
                      ActivityRecord& activity)
{
    broadcastMany(&producer_seq, 1, activity);
}

void
IssueQueue::broadcastMany(const std::uint64_t* producer_seqs, int n,
                          ActivityRecord& activity)
{
    if (n <= 0)
        return;
    activity.iqTagBroadcasts[queueIndex()] +=
        static_cast<std::uint64_t>(n);
    wakeup(producer_seqs, n);
}

void
IssueQueue::wakeupImpl(const std::uint64_t* producer_seqs, int n,
                       bool force_scalar)
{
    if (n <= 0)
        return;
    // A tag hit is a real one only if the whole seq matches.
    const auto* seqs_end = producer_seqs + n;
    const auto confirm = [&](std::uint64_t& hit,
                             const std::uint64_t* src) {
        for (std::uint64_t m = hit; m != 0; m &= m - 1) {
            const int i = std::countr_zero(m);
            if (std::find(producer_seqs, seqs_end, src[i]) == seqs_end)
                hit &= ~(1ULL << i);
        }
    };
    for (int w = 0; w < words_; ++w) {
        std::uint64_t need0 = needsBits_[0][w];
        std::uint64_t need1 = needsBits_[1][w];
        if ((need0 | need1) == 0)
            continue;
        const auto base = static_cast<std::size_t>(w) * kWordSlots;
        std::uint64_t hit0;
        std::uint64_t hit1;
        if (force_scalar)
            tagHitsScalar(tag0_ + base, tag1_ + base, need0, need1,
                          producer_seqs, n, hit0, hit1);
        else
            tagHits(tag0_ + base, tag1_ + base, need0, need1,
                    producer_seqs, n, hit0, hit1);
        confirm(hit0, src0_ + base);
        confirm(hit1, src1_ + base);
        need0 &= ~hit0;
        need1 &= ~hit1;
        needsBits_[0][w] = need0;
        needsBits_[1][w] = need1;
        // Entries left waiting on nothing become ready.
        std::uint64_t woke = (hit0 | hit1) & ~(need0 | need1);
        if (words_ == 1) {
            ready_[0] |= logicalWord(woke);
            continue;
        }
        for (; woke != 0; woke &= woke - 1) {
            setReadyBit(logicalOfPhys(static_cast<int>(base) +
                                      std::countr_zero(woke)));
        }
    }
}

void
IssueQueue::classMaskImpl(OpClass lo, OpClass hi, std::uint64_t* out,
                          bool force_scalar) const
{
    const auto l = static_cast<std::uint8_t>(lo);
    const auto h = static_cast<std::uint8_t>(hi);
#if defined(__SSE2__)
    if (words_ == 1 && !force_scalar) {
        out[0] = logicalWord(classBits(cls_, size_, l, h));
        return;
    }
#endif
    // The scalar twin walks logical positions directly.
    for (int w = 0; w < words_; ++w)
        out[w] = 0;
    for (int i = 0; i < size_; ++i) {
        const auto d =
            static_cast<std::uint8_t>(cls_[physOfLogical(i)] - l);
        out[i >> 6] |= static_cast<std::uint64_t>(d <= h - l)
                       << (i & 63);
    }
}

void
IssueQueue::chargeWakeup(int n_tags, ActivityRecord& activity)
{
    // Clock-gated when nothing is in the queue: an empty queue's
    // broadcast drivers never fire.
    if (n_tags <= 0 || count_ == 0)
        return;
    activity.iqTagBroadcasts[queueIndex()] +=
        static_cast<std::uint64_t>(n_tags);
}

void
IssueQueue::chargeCycles(std::uint64_t n,
                         ActivityRecord& activity) const
{
    // The clock-gating control logic runs every cycle, and the
    // valid entries burn leakage whether or not anything moves.
    const int q = queueIndex();
    activity.iqClockGateCycles[q] += n;
    activity.iqOccupiedCycles[q][0] +=
        n * static_cast<std::uint64_t>(halfCount_[0]);
    activity.iqOccupiedCycles[q][1] +=
        n * static_cast<std::uint64_t>(halfCount_[1]);
}

void
IssueQueue::rebuildTags()
{
    for (int p = 0; p < size_; ++p) {
        tag0_[p] = static_cast<std::uint16_t>(src0_[p]);
        tag1_[p] = static_cast<std::uint16_t>(src1_[p]);
    }
}

void
IssueQueue::markIssued(int phys_idx, ActivityRecord& activity)
{
    if (phys_idx < 0 || phys_idx >= size_)
        panic("issue-queue physical index out of range");
    if (!testBit(validBits_, phys_idx) ||
        testBit(pendingBits_, phys_idx))
        panic("markIssued on an empty or already-issued entry");
    setBit(pendingBits_, phys_idx);
    ++pendingInvalidCount_;
    clearReadyBit(logicalOfPhys(phys_idx));
    const int q = queueIndex();
    // Payload RAM read + select-network access per issue.
    ++activity.iqPayloadAccesses[q];
    ++activity.iqSelectAccesses[q];
}

void
IssueQueue::compactStepImpl(ActivityRecord& activity,
                            bool force_generic)
{
    // Early out when there is nothing to compact: no entries were
    // issued last cycle and the occupied region is hole-free
    // (tail == valid count). The full pass below would then only
    // rebuild the ready/waiting bitmaps with identical contents —
    // they are kept consistent incrementally by dispatch(),
    // markIssued() and wakeup() instead.
    if (pendingInvalidCount_ != 0 || tailLogical_ != count_) {
        if (words_ == 1 && !force_generic)
            compactWordPass(activity);
        else
            compactGenericPass(activity);
    }
    chargeCycles(1, activity);
}

void
IssueQueue::compactWordPass(ActivityRecord& activity)
{
    const int q = queueIndex();
    std::uint64_t valid = validBits_[0];
    std::uint64_t ready = ready_[0];
    std::uint64_t has_dest = hasDestBits_[0];
    std::uint64_t mispred = mispredBits_[0];
    std::uint64_t needs0 = needsBits_[0][0];
    std::uint64_t needs1 = needsBits_[1][0];

    // The paper's one-cycle replay window: last cycle's issues
    // become holes, dropped from the valid map in bulk.
    // markIssued() already removed their ready bits, and issued
    // entries hold no needs bits; their stale hasDest/mispred
    // bits are dead until the slot is rewritten.
    const std::uint64_t pend = pendingBits_[0];
    if (pend != 0) {
        valid &= ~pend;
        const int n0 = std::popcount(pend & mask64(half_));
        const int n1 = std::popcount(pend) - n0;
        count_ -= n0 + n1;
        halfCount_[0] -= n0;
        halfCount_[1] -= n1;
        pendingBits_[0] = 0;
    }
    pendingInvalidCount_ = 0;

    // Valid map in logical (priority) order; in toggled mode the
    // physical slots are the logical positions rotated by half_.
    const std::uint64_t log_valid = logicalWord(valid);
    const std::uint64_t holes = ~log_valid & mask64(tailLogical_);
    if (holes == 0) {
        validBits_[0] = valid;
        return;
    }

    // The prefix below the first hole stays put; every maximal run
    // of valid entries above it shifts down by one constant amount
    // (min(gaps below, issueWidth)), so each run moves with one
    // copy loop over the field arrays and one mask shift per
    // bitmap.
    // Gaps-below is nondecreasing in logical order, so destination
    // ranges never collide with unprocessed sources (the same
    // argument that makes the per-entry reference pass in-place
    // safe).
    // Local copies of the array pointers: the byte stores below may
    // alias any member, which would reload each pointer per entry.
    std::uint64_t* const seq = seq_;
    std::uint64_t* const src0 = src0_;
    std::uint64_t* const src1 = src1_;
    std::uint64_t* const line = lineAddr_;
    std::uint8_t* const cls = cls_;
    std::uint8_t* const num_srcs = numSrcs_;
    std::uint16_t* const tag0 = tag0_;
    std::uint16_t* const tag1 = tag1_;
    // Per-half charges accumulate in locals (the byte stores may
    // alias `activity` too) and are written once at the end:
    // entries that moved or wrapped from each half, and entries
    // each half received.
    std::uint64_t moved[2] = {0, 0};
    std::uint64_t wrapped_from[2] = {0, 0};
    std::uint64_t received[2] = {0, 0};
    int last_valid = -1;
    const int first_hole = std::countr_zero(holes);
    if (first_hole > 0)
        last_valid = first_hole - 1;
    std::uint64_t runs = log_valid & mask64(tailLogical_) &
                         ~mask64(first_hole);
    while (runs != 0) {
        const int a = std::countr_zero(runs);
        const int len = std::countr_zero(~(runs >> a));
        runs &= ~(mask64(len) << a);

        const int gaps = std::popcount(holes & mask64(a));
        const int shift = std::min(gaps, issueWidth_);
        const int dst_a = a - shift;

        // Ready bits ride in logical order: slide the run's slice
        // down in one move (clear both ranges, then deposit —
        // holes hold no ready bits, so nothing real is lost).
        const std::uint64_t lm = mask64(len);
        const std::uint64_t rbits = (ready >> a) & lm;
        ready &= ~((lm << a) | (lm << dst_a));
        ready |= rbits << dst_a;

        // Physically the run is contiguous except where the source
        // or destination mapping crosses the rotation seam
        // (toggled mode): split there, then move each contiguous
        // segment. A segment whose destination wraps around the
        // queue ends travels the long wires.
        int x = a;
        const int b = a + len;
        while (x < b) {
            int y = b;
            if (mode_ == CompactionMode::Toggled) {
                if (x < half_)
                    y = std::min(y, half_);
                else if (x < half_ + shift)
                    y = std::min(y, half_ + shift);
            }
            const int seg = y - x;
            const int pa = physOfLogical(x);
            const int qa = physOfLogical(x - shift);
            const bool wrapped = qa > pa;

            // One ascending loop, no libc call: a run is a few
            // entries. In place is safe, as the destination lies
            // below the source or (a wrapped segment, where
            // seg + shift <= size) does not overlap it.
            for (int i = 0; i < seg; ++i) {
                const int from = pa + i;
                const int to = qa + i;
                seq[to] = seq[from];
                src0[to] = src0[from];
                src1[to] = src1[from];
                line[to] = line[from];
                cls[to] = cls[from];
                num_srcs[to] = num_srcs[from];
                tag0[to] = tag0[from];
                tag1[to] = tag1[from];
            }

            const std::uint64_t sm = mask64(seg);
            valid = (valid & ~(sm << pa)) | (sm << qa);
            const auto move_range = [&](std::uint64_t& map) {
                const std::uint64_t bits = (map >> pa) & sm;
                map &= ~((sm << pa) | (sm << qa));
                map |= bits << qa;
            };
            move_range(has_dest);
            move_range(mispred);
            move_range(needs0);
            move_range(needs1);

            // Per-entry charges, aggregated per physical half by
            // splitting the contiguous src/dst ranges at half_.
            const int src_h0 =
                std::max(0, std::min(pa + seg, half_) - pa);
            const int src_h1 = seg - src_h0;
            const int dst_h0 =
                std::max(0, std::min(qa + seg, half_) - qa);
            const int dst_h1 = seg - dst_h0;
            std::uint64_t* from = wrapped ? wrapped_from : moved;
            from[0] += static_cast<std::uint64_t>(src_h0);
            from[1] += static_cast<std::uint64_t>(src_h1);
            received[0] += static_cast<std::uint64_t>(dst_h0);
            received[1] += static_cast<std::uint64_t>(dst_h1);
            x = y;
        }
        last_valid = dst_a + len - 1;
    }
    for (int h = 0; h < 2; ++h) {
        // A wrapped move travels the long wires; every moving entry
        // drives its invalids-counter stage, and the receiving
        // entry its cross-queue mux selects.
        const std::uint64_t left = moved[h] + wrapped_from[h];
        activity.iqEntryMoves[q][h] += moved[h];
        activity.iqLongCompactions[q][h] += wrapped_from[h];
        activity.iqCounterOps[q][h] += left;
        activity.iqMuxSelects[q][h] += received[h];
        halfCount_[h] += static_cast<int>(received[h]) -
                         static_cast<int>(left);
    }
    tailLogical_ = last_valid + 1;
    validBits_[0] = valid;
    ready_[0] = ready;
    hasDestBits_[0] = has_dest;
    mispredBits_[0] = mispred;
    needsBits_[0][0] = needs0;
    needsBits_[1][0] = needs1;
}

void
IssueQueue::compactGenericPass(ActivityRecord& activity)
{
    const int q = queueIndex();

    // One pass in logical (priority) order: convert last cycle's
    // issues into holes, then shift valid entries toward the head
    // by the number of holes below them, at most issueWidth per
    // cycle. Gaps-below is nondecreasing in logical order, so the
    // in-place ascending application is collision-free and
    // order-preserving. The ready/waiting bitmaps move
    // incrementally with the entries: each valid entry holds
    // exactly one bit (ready at its logical position, or needs
    // bits at its physical slot), maintained by dispatch/wakeup/
    // issue, so a move relocates that entry's bits and unmoved
    // entries touch no map.
    int gaps = 0;
    int last_valid = -1;
    for (int l = 0; l < tailLogical_; ++l) {
        const int p = physOfLogical(l);
        if (!testBit(validBits_, p)) {
            ++gaps;
            continue;
        }
        if (testBit(pendingBits_, p)) {
            // The paper's one-cycle replay window: issued last
            // cycle, becomes a hole now. markIssued() already
            // cleared the ready bit (issued entries were ready,
            // so no needs bits exist either).
            clearBit(validBits_, p);
            clearBit(pendingBits_, p);
            --count_;
            --halfCount_[halfOfPhys(p)];
            ++gaps;
            continue;
        }
        if (gaps == 0) {
            last_valid = l;
            continue;
        }
        const int shift = std::min(gaps, issueWidth_);
        const int dst_l = l - shift;
        const int dst_p = physOfLogical(dst_l);
        const int src_half = halfOfPhys(p);
        const int dst_half = halfOfPhys(dst_p);

        // Compaction moves down in physical space; a physical
        // *increase* means the move wrapped around the queue
        // ends (possible only in toggled mode) over the long
        // wires.
        const bool wrapped = dst_p > p;
        if (wrapped)
            ++activity.iqLongCompactions[q][src_half];
        else
            ++activity.iqEntryMoves[q][src_half];
        // The receiving entry drives its cross-queue mux
        // selects; the invalids-counter stages activate for
        // participating entries (clock-gated otherwise).
        ++activity.iqMuxSelects[q][dst_half];
        ++activity.iqCounterOps[q][src_half];

        seq_[dst_p] = seq_[p];
        cls_[dst_p] = cls_[p];
        numSrcs_[dst_p] = numSrcs_[p];
        src0_[dst_p] = src0_[p];
        src1_[dst_p] = src1_[p];
        tag0_[dst_p] = tag0_[p];
        tag1_[dst_p] = tag1_[p];
        lineAddr_[dst_p] = lineAddr_[p];
        setBit(validBits_, dst_p);
        clearBit(validBits_, p);
        clearBit(pendingBits_, dst_p);
        moveBit(hasDestBits_, p, dst_p);
        moveBit(mispredBits_, p, dst_p);
        --halfCount_[src_half];
        ++halfCount_[dst_half];
        if (testReadyBit(l)) {
            clearReadyBit(l);
            setReadyBit(dst_l);
            clearBit(needsBits_[0], dst_p);
            clearBit(needsBits_[1], dst_p);
        } else {
            moveBit(needsBits_[0], p, dst_p);
            moveBit(needsBits_[1], p, dst_p);
        }
        last_valid = dst_l;
    }
    tailLogical_ = last_valid + 1;
    // Every pending invalid sat below the old tail, so the pass
    // converted all of them.
    pendingInvalidCount_ = 0;
}

void
IssueQueue::toggleMode()
{
    mode_ = mode_ == CompactionMode::Conventional
                ? CompactionMode::Toggled
                : CompactionMode::Conventional;
    ++toggleCount_;
    // Entries stay in their physical slots; logical positions (and
    // hence the tail and the logical-order ready bitmap) are
    // re-derived under the new mapping. The waiting bitmaps are
    // physically indexed and unaffected.
    recomputeTail();
    rebuildReadyBits();
}

void
IssueQueue::saveState(StateWriter& w) const
{
    w.u32(static_cast<std::uint32_t>(size_));
    w.u8(static_cast<std::uint8_t>(kind_));
    w.u8(mode_ == CompactionMode::Toggled ? 1 : 0);
    w.i32(count_);
    w.u64(toggleCount_);
    w.i32(tailLogical_);
    w.i32(halfCount_[0]);
    w.i32(halfCount_[1]);
    w.i32(pendingInvalidCount_);
    const auto n = static_cast<std::size_t>(size_);
    const auto wb = static_cast<std::size_t>(words_) * 8;
    w.blob(seq_, n * 8);
    w.blob(src0_, n * 8);
    w.blob(src1_, n * 8);
    w.blob(lineAddr_, n * 8);
    w.blob(cls_, n);
    w.blob(numSrcs_, n);
    w.blob(validBits_, wb);
    w.blob(pendingBits_, wb);
    w.blob(hasDestBits_, wb);
    w.blob(mispredBits_, wb);
    w.blob(needsBits_[0], wb);
    w.blob(needsBits_[1], wb);
    w.blob(ready_, wb);
}

void
IssueQueue::loadState(StateReader& r)
{
    const auto size = r.u32();
    const auto kind = r.u8();
    if (static_cast<int>(size) != size_ ||
        kind != static_cast<std::uint8_t>(kind_)) {
        fatal("checkpoint issue queue mismatch: saved size ", size,
              " kind ", static_cast<int>(kind), ", this queue size ",
              size_, " kind ", queueIndex());
    }
    mode_ = r.u8() ? CompactionMode::Toggled
                   : CompactionMode::Conventional;
    count_ = r.i32();
    toggleCount_ = r.u64();
    tailLogical_ = r.i32();
    halfCount_[0] = r.i32();
    halfCount_[1] = r.i32();
    pendingInvalidCount_ = r.i32();
    const auto n = static_cast<std::size_t>(size_);
    const auto wb = static_cast<std::size_t>(words_) * 8;
    r.blob(seq_, n * 8);
    r.blob(src0_, n * 8);
    r.blob(src1_, n * 8);
    r.blob(lineAddr_, n * 8);
    r.blob(cls_, n);
    r.blob(numSrcs_, n);
    r.blob(validBits_, wb);
    r.blob(pendingBits_, wb);
    r.blob(hasDestBits_, wb);
    r.blob(mispredBits_, wb);
    r.blob(needsBits_[0], wb);
    r.blob(needsBits_[1], wb);
    r.blob(ready_, wb);
    rebuildTags();
}

} // namespace tempest
