/**
 * @file
 * The out-of-order core: a 6-wide superscalar backend with the
 * paper's Table 2 parameters, driven by a synthetic instruction
 * stream.
 *
 * Pipeline per tick: writeback -> compaction -> commit -> issue
 * (select) -> dispatch/rename -> fetch. The core knows nothing
 * about temperature; the DTM layer steers it through the exposed
 * control surface (issue-queue mode toggling, FU turnoff masks,
 * register-file mapping, round-robin select, stall cycles).
 *
 * advance(n) runs a sampling interval: it ticks busy cycles and
 * jumps over each idle run (cycles that could only move the
 * per-cycle counters) in one step, leaving the same state and
 * activity as n tick() calls.
 */

#ifndef TEMPEST_UARCH_CORE_HH
#define TEMPEST_UARCH_CORE_HH

#include <cstdint>
#include <vector>

#include "common/arena.hh"
#include "common/types.hh"
#include "uarch/activity.hh"
#include "uarch/alu.hh"
#include "uarch/cache.hh"
#include "uarch/issue_queue.hh"
#include "uarch/pipeline_config.hh"
#include "uarch/regfile.hh"
#include "uarch/select.hh"
#include "workload/generator.hh"

namespace tempest
{

/** Cycle-level out-of-order core. */
class OooCore
{
  public:
    /**
     * @param config pipeline parameters (validated)
     * @param profile workload the core executes
     * @param run_seed experiment seed for the instruction stream
     * @param arena backing store for the hot-state arrays (ROB,
     *        completion wheel, done ring, fetch ring, and both
     *        issue queues); nullptr uses a core-private arena.
     *        The arena must outlive the core.
     */
    OooCore(const PipelineConfig& config,
            const BenchmarkProfile& profile,
            std::uint64_t run_seed = 0, Arena* arena = nullptr);

    OooCore(const OooCore&) = delete;
    OooCore& operator=(const OooCore&) = delete;

    /** Simulate one cycle, accumulating activity. */
    void tick(ActivityRecord& activity);

    /** Simulate `cycles` cycles: tick() the busy ones and jump over
     * idle runs in closed form (see the file comment). */
    void advance(std::uint64_t cycles, ActivityRecord& activity);

    /**
     * Advance n thermally-stalled cycles at once (stop-go cooling):
     * no fetch, issue or commit; only cycle/stall accounting
     * (clocks gated).
     */
    void stallCycles(std::uint64_t n, ActivityRecord& activity);

    Cycle cycle() const { return cycle_; }
    std::uint64_t committed() const { return committed_; }

    /** Committed instructions per non-stalled... per total cycle. */
    double
    ipc() const
    {
        return cycle_ ? static_cast<double>(committed_) /
                            static_cast<double>(cycle_)
                      : 0.0;
    }

    // ---- DTM control surface ----
    IssueQueue& intQueue() { return intIq_; }
    IssueQueue& fpQueue() { return fpIq_; }
    const IssueQueue& intQueue() const { return intIq_; }
    const IssueQueue& fpQueue() const { return fpIq_; }
    AluPool& alus() { return alus_; }
    const AluPool& alus() const { return alus_; }
    RegisterFile& intRegfile() { return intRegfile_; }
    const RegisterFile& intRegfile() const { return intRegfile_; }
    DataHierarchy& caches() { return caches_; }
    const DataHierarchy& caches() const { return caches_; }
    InstructionStream& stream() { return stream_; }
    const InstructionStream& stream() const { return stream_; }

    /** Ideal round-robin select on both FU classes (§4.2). */
    void setRoundRobin(bool enabled);
    bool roundRobin() const { return intSelect_.roundRobin(); }

    /**
     * Fetch throttling (a fine-grain temporal technique in the
     * spirit of Skadron et al. [15]): fetch only one cycle in
     * `interval`. 1 = full speed.
     */
    void setFetchInterval(int interval);
    int fetchInterval() const { return fetchInterval_; }

    const PipelineConfig& config() const { return config_; }
    const BenchmarkProfile& profile() const
    {
        return stream_.profile();
    }

    /** Occupancy of the active list (for tests). */
    int robCount() const { return robCount_; }
    int lsqCount() const { return lsqCount_; }

    /**
     * Serialize the core-owned state: cycle/commit counters,
     * active list, completion wheel, done-bit ring, fetch ring,
     * and fetch-throttle controls. Sub-components (issue queues,
     * ALU pool, register file, caches, instruction stream) have
     * their own saveState and are checkpointed after it by
     * CmpSimulator::saveEngineContext.
     */
    void saveState(StateWriter& w) const;

    /** Restore state saved by saveState(); the pipeline geometry
     * must match the saved one. */
    void loadState(StateReader& r);

  private:
    friend struct CoreTestPeer; ///< white-box writeback tests

    /** Scheduled writeback event. */
    struct Completion
    {
        std::uint64_t seq;
        int robIdx;
        bool hasDest;
        bool fpDest;
        bool mispredictedBranch;
    };

    void doWriteback(ActivityRecord& activity);
    void doCommit(ActivityRecord& activity);
    void doIssue(ActivityRecord& activity);
    void doDispatch(ActivityRecord& activity);
    void doFetch(ActivityRecord& activity);

    /** @return true if dispatch stops at the first fetch-buffer
     * entry (none, ROB full, LSQ full for a memory op, or no tail
     * slot in its queue). */
    bool dispatchStalled() const;

    /** First cycle from now on which fetch runs, with the front
     * end as it is; ~0 while it waits on writeback or dispatch. */
    Cycle nextFetchCycle() const;

    /** Cycles from now that would change only the per-cycle
     * counters, up to the next due completion, the next fetch or
     * `end` (0 if this cycle is busy). */
    std::uint64_t idleRun(Cycle end) const;

    /** Schedule a completion `latency` cycles from now. */
    void schedule(const Completion& completion, int latency);

    /** Oldest in-flight sequence number (nextSeq if ROB empty). */
    std::uint64_t robHeadSeq() const;

    // The core's saveState covers only the state it owns directly
    // (ROB, completion wheel, done-bit ring, fetch ring); the
    // components below are serialized separately, each by its own
    // saveState, in CmpSimulator::saveEngineContext.
    PipelineConfig config_;    // ckpt:skip(config, supplied by the restoring run)
    InstructionStream stream_; // ckpt:skip(own saveState, see saveEngineContext)

    // ckpt:skip(allocator backing store, rebuilt by the constructor)
    Arena ownArena_; ///< used only when no external arena is given

    IssueQueue intIq_;         // ckpt:skip(own saveState, see saveEngineContext)
    IssueQueue fpIq_;          // ckpt:skip(own saveState, see saveEngineContext)
    SelectNetwork intSelect_;  // ckpt:skip(stateless select trees)
    // ckpt:skip(stateless select trees)
    SelectNetwork fpSelect_; ///< trees for FP adders + multiplier
    AluPool alus_;             // ckpt:skip(own saveState, see saveEngineContext)
    RegisterFile intRegfile_;  // ckpt:skip(own saveState, see saveEngineContext)
    DataHierarchy caches_;     // ckpt:skip(own saveState, see saveEngineContext)

    // Reorder buffer (active list) as a ring, structure-of-arrays:
    // sequence numbers in one array, the per-entry booleans as
    // bitmaps (bit i = ring slot i). Commit tests one completed
    // bit; writeback sets one.
    std::uint64_t* robSeq_ = nullptr;       // ckpt:bulk(core-soa)
    std::uint64_t* robCompleted_ = nullptr; // ckpt:bulk(core-soa)
    std::uint64_t* robIsMem_ = nullptr;     // ckpt:bulk(core-soa)
    int robWords_ = 0; // ckpt:skip(geometry, derived from config)
    int robHead_ = 0;
    int robCount_ = 0;
    int lsqCount_ = 0;

    // Completion wheel, flattened SoA: a power-of-two number of
    // slots (indexed by cycle & wheelMask_) times a fixed per-slot
    // capacity, with a count per slot. The capacity is the static
    // bound on same-cycle completions: at most issueWidth ops issue
    // per cycle, and a slot only collects from one issue cycle per
    // distinct operation latency (see the constructor). Event
    // fields live in parallel arrays (slot * cap + i); the three
    // booleans pack into one flags byte.
    std::uint64_t* wheelSeq_ = nullptr;    // ckpt:bulk(core-soa)
    std::int32_t* wheelRobIdx_ = nullptr;  // ckpt:bulk(core-soa)
    std::uint8_t* wheelFlags_ = nullptr;   // ckpt:bulk(core-soa)
    std::int32_t* wheelCount_ = nullptr;   // ckpt:bulk(core-soa)
    std::uint64_t wheelMask_ = 0;
    int wheelSlotCap_ = 0;

    static constexpr std::uint8_t kWheelHasDest = 1;
    static constexpr std::uint8_t kWheelFpDest = 2;
    static constexpr std::uint8_t kWheelMispredict = 4;

    // Completed-producer ring (sized beyond any in-flight window),
    // one bit per sequence number: word (seq & mask) / 64, bit
    // (seq & mask) % 64. Dispatch tests these bits.
    std::uint64_t* done_ = nullptr; // ckpt:bulk(core-soa)
    static constexpr std::uint64_t doneMask_ = 4095;

    /** Set the completed bit for a sequence number. */
    void
    markDone(std::uint64_t seq)
    {
        const std::uint64_t idx = seq & doneMask_;
        done_[idx >> 6] |= 1ULL << (idx & 63);
    }

    /** Clear the completed bit (op is dispatched, in flight). */
    void
    markInFlight(std::uint64_t seq)
    {
        const std::uint64_t idx = seq & doneMask_;
        done_[idx >> 6] &= ~(1ULL << (idx & 63));
    }

    // Fetch buffer as a fixed ring (capacity 4 * fetchWidth covers
    // the high-water mark: the 3 * fetchWidth full check plus one
    // more fetch group), structure-of-arrays: one array per MicroOp
    // field, the two booleans packed into a flags byte. Fetch
    // scatters the generated op; dispatch gathers only the fields
    // it needs.
    std::uint64_t* fetchSeq_ = nullptr;     // ckpt:bulk(core-soa)
    std::uint64_t* fetchSrc0_ = nullptr;    // ckpt:bulk(core-soa)
    std::uint64_t* fetchSrc1_ = nullptr;    // ckpt:bulk(core-soa)
    std::uint64_t* fetchLine_ = nullptr;    // ckpt:bulk(core-soa)
    std::uint8_t* fetchCls_ = nullptr;      // ckpt:bulk(core-soa)
    std::uint8_t* fetchNumSrcs_ = nullptr;  // ckpt:bulk(core-soa)
    std::uint8_t* fetchFlags_ = nullptr;    // ckpt:bulk(core-soa)

    static constexpr std::uint8_t kFetchHasDest = 1;
    static constexpr std::uint8_t kFetchMispredict = 2;

    int fetchHead_ = 0;
    int fetchCount_ = 0;
    int fetchCap_ = 0;
    int fetchInterval_ = 1;
    bool fetchBlocked_ = false;
    std::uint64_t blockingBranchSeq_ = 0;
    Cycle fetchResumeCycle_ = 0;

    Cycle cycle_ = 0;
    std::uint64_t committed_ = 0;

    // ckpt:skip(per-cycle scratch, fully overwritten before use)
    std::vector<Grant> grantScratch_;
    // ckpt:skip(per-cycle scratch: a wheel slot's result seqs)
    std::uint64_t* wakeScratch_ = nullptr;
    // Select eligibility, logical-order masks of the queues' bitmap
    // words: every integer tree takes any entry (the integer queue
    // holds only integer-class ops, which every integer ALU
    // executes) and memory ops share the L1D ports; the FP adders
    // take FpAdd and the multiplier FpMul.
    // ckpt:skip(per-cycle scratch, rebuilt by every select)
    std::vector<std::uint64_t> selectMasks_;
    // ckpt:skip(per-cycle scratch: points into selectMasks_)
    std::uint64_t* memMask_ = nullptr;
    // ckpt:skip(per-cycle scratch: points into selectMasks_)
    std::uint64_t* fpAddMask_ = nullptr;
    // ckpt:skip(per-cycle scratch: points into selectMasks_)
    std::uint64_t* fpMulMask_ = nullptr;
    // ckpt:skip(derived: per-tree pointers into selectMasks_)
    std::vector<const std::uint64_t*> intElig_;
    // ckpt:skip(derived: per-tree pointers into selectMasks_)
    std::vector<const std::uint64_t*> fpElig_;
};

} // namespace tempest

#endif // TEMPEST_UARCH_CORE_HH
