#include "uarch/core.hh"

#include <algorithm>
#include <cstring>

#include "common/log.hh"
#include "common/profiler.hh"
#include "sim/checkpoint/stateio.hh"

namespace tempest
{

OooCore::OooCore(const PipelineConfig& config,
                 const BenchmarkProfile& profile,
                 std::uint64_t run_seed, Arena* arena)
    : config_(config),
      stream_(profile, run_seed),
      intIq_(config.intIqEntries, config.issueWidth, QueueKind::Int,
             arena != nullptr ? arena : &ownArena_),
      fpIq_(config.fpIqEntries, config.issueWidth, QueueKind::Fp,
            arena != nullptr ? arena : &ownArena_),
      intSelect_(config.numIntAlus),
      fpSelect_(config.numFpAdders + 1), // last tree = FP multiplier
      alus_(config),
      intRegfile_(config.numIntRegfileCopies, config.numIntAlus,
                  PortMapping::Priority),
      caches_(config)
{
    config_.validate();
    if (config.activeListEntries >
        static_cast<int>(doneMask_ + 1)) {
        fatal("active list (", config.activeListEntries,
              ") exceeds the completed-producer ring (",
              doneMask_ + 1,
              "); in-flight sequence numbers would alias");
    }
    Arena& a = arena != nullptr ? *arena : ownArena_;
    const auto rob_n =
        static_cast<std::size_t>(config.activeListEntries);
    robWords_ = (config.activeListEntries + 63) / 64;
    robSeq_ = a.alloc<std::uint64_t>(rob_n);
    robCompleted_ =
        a.alloc<std::uint64_t>(static_cast<std::size_t>(robWords_));
    robIsMem_ =
        a.alloc<std::uint64_t>(static_cast<std::size_t>(robWords_));

    // Completion wheel: power-of-two slot count so the cycle index
    // reduces with a mask, deep enough for the longest latency.
    const int min_slots =
        std::max(512, 2 * (config.memCycles + config.l2HitCycles));
    std::size_t slots = 1;
    while (slots < static_cast<std::size_t>(min_slots))
        slots <<= 1;
    wheelMask_ = slots - 1;

    // Per-slot capacity: each distinct operation latency maps a
    // slot back to one issue cycle, and an issue cycle contributes
    // at most issueWidth completions. The active list bounds total
    // in-flight ops regardless.
    const int latencies[] = {
        std::max(1, config.intAluLatency),
        std::max(1, config.intMulLatency),
        std::max(1, config.fpAddLatency),
        std::max(1, config.fpMulLatency),
        std::max(1, config.l1HitCycles),
        std::max(1, config.l2HitCycles),
        std::max(1, config.memCycles),
    };
    constexpr int num_latencies =
        static_cast<int>(sizeof(latencies) / sizeof(latencies[0]));
    int distinct = 0;
    for (int i = 0; i < num_latencies; ++i) {
        bool seen = false;
        for (int j = 0; j < i; ++j)
            seen = seen || latencies[j] == latencies[i];
        if (!seen)
            ++distinct;
    }
    wheelSlotCap_ = std::min(config.activeListEntries,
                             config.issueWidth * distinct);
    const std::size_t wheel_n =
        slots * static_cast<std::size_t>(wheelSlotCap_);
    wheelSeq_ = a.alloc<std::uint64_t>(wheel_n);
    wheelRobIdx_ = a.alloc<std::int32_t>(wheel_n);
    wheelFlags_ = a.alloc<std::uint8_t>(wheel_n);
    wheelCount_ = a.alloc<std::int32_t>(slots);

    // All-ones: every not-yet-dispatched sequence number reads as
    // complete until dispatch clears its bit.
    done_ = a.alloc<std::uint64_t>((doneMask_ + 1) / 64);
    std::memset(done_, 0xff, (doneMask_ + 1) / 8);

    fetchCap_ = 4 * config.fetchWidth;
    const auto fetch_n = static_cast<std::size_t>(fetchCap_);
    fetchSeq_ = a.alloc<std::uint64_t>(fetch_n);
    fetchSrc0_ = a.alloc<std::uint64_t>(fetch_n);
    fetchSrc1_ = a.alloc<std::uint64_t>(fetch_n);
    fetchLine_ = a.alloc<std::uint64_t>(fetch_n);
    fetchCls_ = a.alloc<std::uint8_t>(fetch_n);
    fetchNumSrcs_ = a.alloc<std::uint8_t>(fetch_n);
    fetchFlags_ = a.alloc<std::uint8_t>(fetch_n);

    wakeScratch_ =
        a.alloc<std::uint64_t>(static_cast<std::size_t>(wheelSlotCap_));

    // Select masks: all ones (the integer trees' eligibility), then
    // the memory, FpAdd and FpMul masks, one bitmap's words each.
    const auto words = static_cast<std::size_t>(
        std::max(intIq_.bitWords(), fpIq_.bitWords()));
    selectMasks_.assign(4 * words, 0);
    std::fill_n(selectMasks_.begin(), words, ~0ULL);
    memMask_ = selectMasks_.data() + words;
    fpAddMask_ = memMask_ + words;
    fpMulMask_ = fpAddMask_ + words;
    intElig_.assign(static_cast<std::size_t>(config.numIntAlus),
                    selectMasks_.data());
    fpElig_.assign(static_cast<std::size_t>(config.numFpAdders),
                   fpAddMask_);
    fpElig_.push_back(fpMulMask_); // last tree = FP multiplier
}

void
OooCore::setRoundRobin(bool enabled)
{
    intSelect_.setRoundRobin(enabled);
    fpSelect_.setRoundRobin(enabled);
}

std::uint64_t
OooCore::robHeadSeq() const
{
    if (robCount_ == 0)
        return stream_.generated() + 1;
    return robSeq_[static_cast<std::size_t>(robHead_)];
}

void
OooCore::schedule(const Completion& completion, int latency)
{
    if (latency < 1)
        latency = 1;
    const std::size_t slot = static_cast<std::size_t>(
        (cycle_ + static_cast<Cycle>(latency)) & wheelMask_);
    std::int32_t& n = wheelCount_[slot];
    if (n >= wheelSlotCap_)
        panic("completion wheel slot overflow (cap ",
              wheelSlotCap_, "); per-cycle completion bound broken");
    const std::size_t at =
        slot * static_cast<std::size_t>(wheelSlotCap_) +
        static_cast<std::size_t>(n);
    wheelSeq_[at] = completion.seq;
    wheelRobIdx_[at] = completion.robIdx;
    wheelFlags_[at] = static_cast<std::uint8_t>(
        (completion.hasDest ? kWheelHasDest : 0) |
        (completion.fpDest ? kWheelFpDest : 0) |
        (completion.mispredictedBranch ? kWheelMispredict : 0));
    ++n;
}

void
OooCore::doWriteback(ActivityRecord& activity)
{
    const std::size_t slot =
        static_cast<std::size_t>(cycle_ & wheelMask_);
    const int num_events = wheelCount_[slot];
    if (num_events == 0)
        return;
    const std::size_t base =
        slot * static_cast<std::size_t>(wheelSlotCap_);
    // Collect the result tags completing this cycle. Only an op
    // that writes a destination can be a producer (the generator
    // draws sources from its destination ring), and the scratch
    // holds a whole wheel slot, so every same-cycle completion
    // wakes its dependents however many there are.
    int num_tags = 0;
    for (int i = 0; i < num_events; ++i) {
        const std::size_t at = base + static_cast<std::size_t>(i);
        const int rob_idx = wheelRobIdx_[at];
        robCompleted_[rob_idx >> 6] |=
            1ULL << (rob_idx & 63);
        markDone(wheelSeq_[at]);
        const std::uint8_t flags = wheelFlags_[at];
        if (flags & kWheelHasDest) {
            wakeScratch_[num_tags++] = wheelSeq_[at];
            // Result write: all integer copies, or the FP file.
            if (flags & kWheelFpDest)
                ++activity.fpRegWrites;
            else
                intRegfile_.chargeWrite(activity);
        }
        if (flags & kWheelMispredict) {
            // Redirect: frontend refills after the penalty.
            fetchBlocked_ = false;
            blockingBranchSeq_ = 0;
            fetchResumeCycle_ =
                cycle_ +
                static_cast<Cycle>(config_.branchRedirectPenalty);
        }
    }
    wheelCount_[slot] = 0;
    // One tag compare per queue, the CAM broadcast.
    intIq_.wakeup(wakeScratch_, num_tags);
    fpIq_.wakeup(wakeScratch_, num_tags);
    // Clock-gated empty queues skip the broadcast charge entirely.
    intIq_.chargeWakeup(num_tags, activity);
    fpIq_.chargeWakeup(num_tags, activity);
}

void
OooCore::doCommit(ActivityRecord& activity)
{
    // Retire the contiguous completed run at the head a word at a
    // time: countr_one on the shifted completed word gives the run
    // length, a popcount over the matching robIsMem_ bits releases
    // the LSQ slots. The loop re-enters only at word or active-list
    // wrap boundaries.
    int n = 0;
    while (n < config_.commitWidth && robCount_ > 0) {
        const int head = robHead_;
        const int word = head >> 6;
        const int bit = head & 63;
        int run = std::countr_one(robCompleted_[word] >> bit);
        run = std::min({run, config_.commitWidth - n, robCount_,
                        config_.activeListEntries - head, 64 - bit});
        if (run == 0)
            break;
        const std::uint64_t mem_bits =
            (robIsMem_[word] >> bit) &
            (run >= 64 ? ~0ULL : (1ULL << run) - 1);
        lsqCount_ -= std::popcount(mem_bits);
        robHead_ = head + run;
        if (robHead_ == config_.activeListEntries)
            robHead_ = 0;
        robCount_ -= run;
        committed_ += static_cast<std::uint64_t>(run);
        activity.commits += static_cast<std::uint64_t>(run);
        activity.instructions += static_cast<std::uint64_t>(run);
        n += run;
    }
}

void
OooCore::doIssue(ActivityRecord& activity)
{
    int budget = config_.issueWidth;

    // The active list does not move during select, so the head
    // position/sequence used for ROB indexing can be read once.
    const std::uint64_t head_seq = robHeadSeq();
    const int head_idx = robHead_;
    const int rob_entries = config_.activeListEntries;
    auto rob_index_of = [head_seq, head_idx,
                         rob_entries](std::uint64_t seq) {
        int idx = head_idx + static_cast<int>(seq - head_seq);
        if (idx >= rob_entries)
            idx -= rob_entries;
        return idx;
    };

    // Alternate which queue selects first so FP workloads are not
    // starved by the integer queue's address traffic.
    const bool int_first = (cycle_ % 2) == 0;

    auto select_int = [&]() {
        if (budget <= 0 || intIq_.count() == 0)
            return;
        grantScratch_.clear();
        intIq_.classMask(OpClass::Load, OpClass::Store, memMask_);
        intSelect_.select(intIq_, cycle_, budget, alus_.intAluOnMask(),
                          intElig_.data(), memMask_, config_.l1dPorts,
                          grantScratch_);
        for (const Grant& g : grantScratch_) {
            // Field reads straight out of the queue's SoA arrays;
            // markIssued only flips a pending bit, so the reads
            // can follow it.
            const int p = g.physIdx;
            const OpClass cls = intIq_.opClassAt(p);
            const std::uint64_t seq = intIq_.seqAt(p);
            intIq_.markIssued(p, activity);
            --budget;
            ++activity.intAluOps[g.fu];
            intRegfile_.chargeReads(g.fu, intIq_.numSrcsAt(p),
                                    activity);

            int latency = 0;
            if (cls == OpClass::Load) {
                const MemLevel level =
                    caches_.access(intIq_.lineAddrAt(p), activity);
                latency = caches_.latency(level);
                ++activity.lsqOps;
            } else if (cls == OpClass::Store) {
                caches_.access(intIq_.lineAddrAt(p), activity);
                latency = config_.intAluLatency;
                ++activity.lsqOps;
            } else {
                latency = alus_.latencyOf(cls);
            }

            schedule({seq, rob_index_of(seq),
                      intIq_.hasDestAt(p),
                      /*fpDest=*/false,
                      cls == OpClass::Branch &&
                          intIq_.mispredictedAt(p)},
                     latency);
        }
    };

    auto select_fp = [&]() {
        if (budget <= 0 || fpIq_.count() == 0)
            return;
        const int mul_fu = config_.numFpAdders;
        grantScratch_.clear();
        fpIq_.classMask(OpClass::FpAdd, OpClass::FpAdd, fpAddMask_);
        fpIq_.classMask(OpClass::FpMul, OpClass::FpMul, fpMulMask_);
        // The multiplier is never turned off.
        fpSelect_.select(fpIq_, cycle_, budget,
                         alus_.fpAdderOnMask() | 1ULL << mul_fu,
                         fpElig_.data(), nullptr, 0, grantScratch_);
        for (const Grant& g : grantScratch_) {
            const int p = g.physIdx;
            const OpClass cls = fpIq_.opClassAt(p);
            const std::uint64_t seq = fpIq_.seqAt(p);
            fpIq_.markIssued(p, activity);
            --budget;
            if (g.fu == mul_fu)
                ++activity.fpMulOps;
            else
                ++activity.fpAddOps[g.fu];
            activity.fpRegReads +=
                static_cast<std::uint64_t>(fpIq_.numSrcsAt(p));

            const int latency = alus_.latencyOf(cls);
            schedule({seq, rob_index_of(seq),
                      fpIq_.hasDestAt(p),
                      /*fpDest=*/true, false},
                     latency);
        }
    };

    if (int_first) {
        select_int();
        select_fp();
    } else {
        select_fp();
        select_int();
    }
}

bool
OooCore::dispatchStalled() const
{
    if (fetchCount_ == 0 || robCount_ >= config_.activeListEntries)
        return true;
    // Bitwise, not short-circuit: the op class is a coin flip to
    // the branch predictor.
    const auto cls = static_cast<OpClass>(fetchCls_[fetchHead_]);
    const bool lsq_full =
        isMemClass(cls) & (lsqCount_ >= config_.lsqEntries);
    return lsq_full | !(isFpClass(cls) ? fpIq_ : intIq_).canDispatch();
}

void
OooCore::doDispatch(ActivityRecord& activity)
{
    // A source waits while its producer is in flight: at or after
    // the active-list head and not yet done. Older producers have
    // committed, whatever their done bit says once the ring has
    // wrapped. The head seq changes only when the first op enters
    // an empty active list.
    std::uint64_t head_seq = robHeadSeq();
    const auto waits = [this, &head_seq](std::uint64_t producer) {
        const std::uint64_t idx = producer & doneMask_;
        const bool done = (done_[idx >> 6] >> (idx & 63)) & 1;
        return (producer >= head_seq) & !done;
    };
    for (int n = 0; n < config_.issueWidth; ++n) {
        if (dispatchStalled())
            return;
        const auto at = static_cast<std::size_t>(fetchHead_);
        const auto cls = static_cast<OpClass>(fetchCls_[at]);
        const bool is_mem = isMemClass(cls);
        const std::uint64_t seq = fetchSeq_[at];
        const std::uint64_t src0 = fetchSrc0_[at];
        const std::uint64_t src1 = fetchSrc1_[at];
        // An unused source holds seq 0, which reads as ready.
        const bool wait0 = waits(src0);
        const bool wait1 = waits(src1);

        // Allocate the active-list slot before inserting.
        int rob_idx = robHead_ + robCount_;
        if (rob_idx >= config_.activeListEntries)
            rob_idx -= config_.activeListEntries;
        robSeq_[static_cast<std::size_t>(rob_idx)] = seq;
        const int rob_bit = rob_idx & 63;
        std::uint64_t& completed = robCompleted_[rob_idx >> 6];
        std::uint64_t& mem = robIsMem_[rob_idx >> 6];
        completed &= ~(1ULL << rob_bit);
        mem = (mem & ~(1ULL << rob_bit)) |
              static_cast<std::uint64_t>(is_mem) << rob_bit;
        if (robCount_++ == 0)
            head_seq = seq;
        markInFlight(seq);
        lsqCount_ += is_mem;
        activity.lsqOps += is_mem;
        activity.bpredAccesses += cls == OpClass::Branch;
        ++activity.renameOps;

        const std::uint8_t flags = fetchFlags_[at];
        (isFpClass(cls) ? fpIq_ : intIq_)
            .dispatchFields(seq, cls, fetchNumSrcs_[at], src0, src1,
                            wait0, wait1,
                            (flags & kFetchHasDest) != 0,
                            (flags & kFetchMispredict) != 0,
                            fetchLine_[at], activity);
        if (++fetchHead_ == fetchCap_)
            fetchHead_ = 0;
        --fetchCount_;
    }
}

void
OooCore::setFetchInterval(int interval)
{
    if (interval < 1)
        fatal("fetch interval must be >= 1");
    fetchInterval_ = interval;
}

Cycle
OooCore::nextFetchCycle() const
{
    // A mispredict or a full buffer waits on writeback or dispatch;
    // otherwise fetch runs after the redirect penalty, on a
    // throttle-period boundary (thermal fetch throttling).
    if (fetchBlocked_ || fetchCount_ >= 3 * config_.fetchWidth)
        return ~Cycle{0};
    Cycle at = std::max(cycle_, fetchResumeCycle_);
    const auto period = static_cast<Cycle>(fetchInterval_);
    if (fetchInterval_ > 1 && at % period != 0)
        at += period - at % period;
    return at;
}

void
OooCore::doFetch(ActivityRecord& activity)
{
    if (nextFetchCycle() != cycle_)
        return;
    ++activity.l1iAccesses;
    // Copy the fetch group straight from the generator's batch ring
    // in one loop over the field arrays (at most fetchWidth ops: too
    // few for libc copies to pay off). A group stops early at a
    // mispredicted branch (always a Branch-class slot: the generator
    // sets the mispred bit only for branches) or at a batch-ring
    // refill boundary; the loop re-enters after either.
    int want = config_.fetchWidth;
    while (want > 0) {
        const InstructionStream::BatchView v = stream_.view();
        int k = std::min(want, v.count - v.next);
        const std::uint64_t span_mask =
            k >= 64 ? ~0ULL : (1ULL << k) - 1;
        const std::uint64_t blockers =
            (v.mispred >> v.next) & span_mask;
        const bool blocks = blockers != 0;
        if (blocks)
            k = std::countr_zero(blockers) + 1;
        int copied = 0;
        while (copied < k) {
            int tail = fetchHead_ + fetchCount_;
            if (tail >= fetchCap_)
                tail -= fetchCap_;
            // Contiguous in both rings: stop at either wrap.
            const int seg = std::min(k - copied, fetchCap_ - tail);
            const int src = v.next + copied;
            // Local pointers: the byte stores may alias any member.
            std::uint64_t* const seq = fetchSeq_;
            std::uint64_t* const src0 = fetchSrc0_;
            std::uint64_t* const src1 = fetchSrc1_;
            std::uint64_t* const line = fetchLine_;
            std::uint8_t* const cls = fetchCls_;
            std::uint8_t* const num_srcs = fetchNumSrcs_;
            std::uint8_t* const flags = fetchFlags_;
            for (int i = 0; i < seg; ++i) {
                const int slot = src + i;
                const int at = tail + i;
                seq[at] = v.seq[slot];
                src0[at] = v.src0[slot];
                src1[at] = v.src1[slot];
                line[at] = v.line[slot];
                cls[at] = v.cls[slot];
                num_srcs[at] = v.numSrcs[slot];
                flags[at] =
                    static_cast<std::uint8_t>(
                        (((v.hasDest >> slot) & 1) != 0
                             ? kFetchHasDest
                             : 0) |
                        (((v.mispred >> slot) & 1) != 0
                             ? kFetchMispredict
                             : 0));
            }
            fetchCount_ += seg;
            copied += seg;
        }
        stream_.advance(k);
        want -= k;
        if (blocks) {
            // Fetch goes down the wrong path; stop supplying
            // correct-path work until the branch resolves.
            fetchBlocked_ = true;
            blockingBranchSeq_ = v.seq[v.next + k - 1];
            return;
        }
    }
}

void
OooCore::tick(ActivityRecord& activity)
{
    {
        TEMPEST_PROF_SCOPE(ProfStage::Writeback);
        doWriteback(activity);
    }
    {
        TEMPEST_PROF_SCOPE(ProfStage::Compact);
        intIq_.compactStep(activity);
        fpIq_.compactStep(activity);
    }
    {
        TEMPEST_PROF_SCOPE(ProfStage::Commit);
        doCommit(activity);
    }
    {
        TEMPEST_PROF_SCOPE(ProfStage::Issue);
        doIssue(activity);
    }
    {
        TEMPEST_PROF_SCOPE(ProfStage::Dispatch);
        doDispatch(activity);
    }
    {
        TEMPEST_PROF_SCOPE(ProfStage::Fetch);
        doFetch(activity);
    }
    ++cycle_;
    ++activity.cycles;
}

std::uint64_t
OooCore::idleRun(Cycle end) const
{
    // Nothing to write back, commit (the head has not completed),
    // compact, issue or dispatch, and fetch waits.
    const std::uint64_t slot = cycle_ & wheelMask_;
    if (wheelCount_[slot] != 0 ||
        (robCount_ > 0 &&
         ((robCompleted_[robHead_ >> 6] >> (robHead_ & 63)) & 1)) ||
        !intIq_.quiescent() || !fpIq_.quiescent() || !dispatchStalled())
        return 0;
    const Cycle fetch_at = nextFetchCycle();
    if (fetch_at == cycle_)
        return 0;
    // Run to the next due completion by doWriteback's slot rule
    // (completions a cooling stall left in the wheel fall due where
    // tick() drains them), the next fetch, or the end, whichever is
    // first.
    const std::uint64_t limit =
        std::min({end, fetch_at, cycle_ + wheelMask_ + 1}) - cycle_;
    std::uint64_t n = 1;
    while (n < limit && wheelCount_[(slot + n) & wheelMask_] == 0)
        ++n;
    return n;
}

void
OooCore::advance(std::uint64_t cycles, ActivityRecord& activity)
{
    const Cycle end = cycle_ + cycles;
    while (cycle_ < end) {
        const std::uint64_t n = idleRun(end);
        if (n == 0) {
            tick(activity);
            continue;
        }
        // What n idle tick() calls would charge.
        intIq_.chargeCycles(n, activity);
        fpIq_.chargeCycles(n, activity);
        cycle_ += n;
        activity.cycles += n;
        TEMPEST_PROF_SKIPPED(n);
    }
}

void
OooCore::stallCycles(std::uint64_t n, ActivityRecord& activity)
{
    cycle_ += n;
    activity.cycles += n;
    activity.stallCycles += n;
}

void
OooCore::saveState(StateWriter& w) const
{
    const auto rob_n =
        static_cast<std::size_t>(config_.activeListEntries);
    const auto rob_wb = static_cast<std::size_t>(robWords_) * 8;
    const std::size_t num_slots =
        static_cast<std::size_t>(wheelMask_) + 1;
    const std::size_t wheel_n =
        num_slots * static_cast<std::size_t>(wheelSlotCap_);
    const auto fetch_n = static_cast<std::size_t>(fetchCap_);

    w.u64(cycle_);
    w.u64(committed_);

    w.u32(static_cast<std::uint32_t>(rob_n));
    w.i32(robHead_);
    w.i32(robCount_);
    w.i32(lsqCount_);
    w.blob(robSeq_, rob_n * 8);
    w.blob(robCompleted_, rob_wb);
    w.blob(robIsMem_, rob_wb);

    w.u64(wheelMask_);
    w.i32(wheelSlotCap_);
    w.blob(wheelCount_, num_slots * 4);
    w.blob(wheelSeq_, wheel_n * 8);
    w.blob(wheelRobIdx_, wheel_n * 4);
    w.blob(wheelFlags_, wheel_n);

    w.blob(done_, (doneMask_ + 1) / 8);

    w.i32(fetchCap_);
    w.i32(fetchHead_);
    w.i32(fetchCount_);
    w.blob(fetchSeq_, fetch_n * 8);
    w.blob(fetchSrc0_, fetch_n * 8);
    w.blob(fetchSrc1_, fetch_n * 8);
    w.blob(fetchLine_, fetch_n * 8);
    w.blob(fetchCls_, fetch_n);
    w.blob(fetchNumSrcs_, fetch_n);
    w.blob(fetchFlags_, fetch_n);
    w.i32(fetchInterval_);
    w.boolean(fetchBlocked_);
    w.u64(blockingBranchSeq_);
    w.u64(fetchResumeCycle_);
}

void
OooCore::loadState(StateReader& r)
{
    const auto rob_n =
        static_cast<std::size_t>(config_.activeListEntries);
    const auto rob_wb = static_cast<std::size_t>(robWords_) * 8;
    const std::size_t num_slots =
        static_cast<std::size_t>(wheelMask_) + 1;
    const std::size_t wheel_n =
        num_slots * static_cast<std::size_t>(wheelSlotCap_);
    const auto fetch_n = static_cast<std::size_t>(fetchCap_);

    cycle_ = r.u64();
    committed_ = r.u64();

    const auto rob_size = r.u32();
    if (rob_size != rob_n) {
        fatal("checkpoint core mismatch: saved active list has ",
              rob_size, " entries, this core has ", rob_n);
    }
    robHead_ = r.i32();
    robCount_ = r.i32();
    lsqCount_ = r.i32();
    r.blob(robSeq_, rob_n * 8);
    r.blob(robCompleted_, rob_wb);
    r.blob(robIsMem_, rob_wb);

    const auto wheel_mask = r.u64();
    const int slot_cap = r.i32();
    if (wheel_mask != wheelMask_ || slot_cap != wheelSlotCap_) {
        fatal("checkpoint core mismatch: completion wheel "
              "geometry differs (saved mask ", wheel_mask,
              " cap ", slot_cap, ", this core mask ", wheelMask_,
              " cap ", wheelSlotCap_, ")");
    }
    r.blob(wheelCount_, num_slots * 4);
    r.blob(wheelSeq_, wheel_n * 8);
    r.blob(wheelRobIdx_, wheel_n * 4);
    r.blob(wheelFlags_, wheel_n);
    for (std::size_t s = 0; s < num_slots; ++s) {
        if (wheelCount_[s] < 0 || wheelCount_[s] > wheelSlotCap_)
            fatal("checkpoint core: wheel slot count ",
                  wheelCount_[s], " out of range");
    }

    r.blob(done_, (doneMask_ + 1) / 8);

    const int fetch_cap = r.i32();
    if (fetch_cap != fetchCap_) {
        fatal("checkpoint core mismatch: fetch ring capacity ",
              fetch_cap, " differs from ", fetchCap_);
    }
    fetchHead_ = r.i32();
    fetchCount_ = r.i32();
    r.blob(fetchSeq_, fetch_n * 8);
    r.blob(fetchSrc0_, fetch_n * 8);
    r.blob(fetchSrc1_, fetch_n * 8);
    r.blob(fetchLine_, fetch_n * 8);
    r.blob(fetchCls_, fetch_n);
    r.blob(fetchNumSrcs_, fetch_n);
    r.blob(fetchFlags_, fetch_n);
    fetchInterval_ = r.i32();
    fetchBlocked_ = r.boolean();
    blockingBranchSeq_ = r.u64();
    fetchResumeCycle_ = r.u64();
}

} // namespace tempest
