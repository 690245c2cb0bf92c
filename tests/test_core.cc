/**
 * @file
 * Unit and behaviour tests for the out-of-order core.
 */

#include <gtest/gtest.h>

#include <string>

#include "common/rng.hh"
#include "sim/checkpoint/stateio.hh"
#include "uarch/core.hh"

namespace tempest
{

/** White-box access for writeback tests: stages producers in the
 * ROB/wheel directly so a single cycle can complete more results
 * than any organic schedule would. */
struct CoreTestPeer
{
    /** Mark a producer seq dispatched-but-incomplete. */
    static void
    markInFlight(OooCore& core, std::uint64_t seq)
    {
        core.markInFlight(seq);
    }

    /** Append a ROB entry; @return its ring index. */
    static int
    addRobEntry(OooCore& core, std::uint64_t seq)
    {
        int idx = core.robHead_ + core.robCount_;
        if (idx >= core.config_.activeListEntries)
            idx -= core.config_.activeListEntries;
        core.robSeq_[static_cast<std::size_t>(idx)] = seq;
        const std::uint64_t bit = 1ULL << (idx & 63);
        core.robCompleted_[idx >> 6] &= ~bit;
        core.robIsMem_[idx >> 6] &= ~bit;
        ++core.robCount_;
        return idx;
    }

    static void
    scheduleCompletion(OooCore& core, std::uint64_t seq,
                       int rob_idx, int latency)
    {
        core.schedule({seq, rob_idx, /*hasDest=*/true,
                       /*fpDest=*/false,
                       /*mispredictedBranch=*/false},
                      latency);
    }

    static void
    advanceCycle(OooCore& core)
    {
        ++core.cycle_;
    }

    static void
    writeback(OooCore& core, ActivityRecord& activity)
    {
        core.doWriteback(activity);
    }
};

namespace
{

ActivityRecord
runCycles(OooCore& core, int n)
{
    ActivityRecord act;
    for (int i = 0; i < n; ++i)
        core.tick(act);
    return act;
}

TEST(Core, MakesForwardProgress)
{
    PipelineConfig cfg;
    OooCore core(cfg, spec2000("gzip"), 1);
    runCycles(core, 100000);
    EXPECT_GT(core.committed(), 50000u);
    EXPECT_GT(core.ipc(), 0.3);
    EXPECT_LT(core.ipc(), 6.0);
}

TEST(Core, Deterministic)
{
    PipelineConfig cfg;
    OooCore a(cfg, spec2000("eon"), 9);
    OooCore b(cfg, spec2000("eon"), 9);
    const ActivityRecord ra = runCycles(a, 50000);
    const ActivityRecord rb = runCycles(b, 50000);
    EXPECT_EQ(a.committed(), b.committed());
    EXPECT_EQ(ra.intAluOps[0], rb.intAluOps[0]);
    EXPECT_EQ(ra.iqEntryMoves[0][1], rb.iqEntryMoves[0][1]);
    EXPECT_EQ(ra.l1dAccesses, rb.l1dAccesses);
}

TEST(Core, PeakWorkloadApproachesFullWidth)
{
    PipelineConfig cfg;
    OooCore core(cfg, syntheticIntPeak(), 2);
    // Warm up past the compulsory misses of the hot pool (each
    // blocks the ROB head for ~memCycles), then measure steady
    // state.
    runCycles(core, 400000);
    const ActivityRecord act = runCycles(core, 100000);
    const double steady_ipc =
        static_cast<double>(act.instructions) /
        static_cast<double>(act.cycles);
    EXPECT_GT(steady_ipc, 5.0); // 6-wide machine, no hazards
}

TEST(Core, MemoryBoundWorkloadIsSlow)
{
    PipelineConfig cfg;
    OooCore hot(cfg, spec2000("eon"), 3);
    OooCore cold(cfg, spec2000("mcf"), 3);
    runCycles(hot, 200000);
    runCycles(cold, 200000);
    EXPECT_GT(hot.ipc(), 3.0 * cold.ipc());
}

TEST(Core, StaticPrioritySkewsAluUtilization)
{
    // §2.2: ALU0 executes far more operations than ALU5.
    PipelineConfig cfg;
    OooCore core(cfg, spec2000("parser"), 4);
    const ActivityRecord act = runCycles(core, 300000);
    EXPECT_GT(act.intAluOps[0], 3 * act.intAluOps[5]);
}

TEST(Core, RoundRobinEvensAluUtilization)
{
    PipelineConfig cfg;
    OooCore core(cfg, spec2000("parser"), 4);
    core.setRoundRobin(true);
    const ActivityRecord act = runCycles(core, 300000);
    ASSERT_GT(act.intAluOps[5], 0u);
    const double ratio =
        static_cast<double>(act.intAluOps[0]) /
        static_cast<double>(act.intAluOps[5]);
    EXPECT_LT(ratio, 1.6);
    EXPECT_GT(ratio, 0.6);
}

TEST(Core, TurnedOffAluReceivesNoWork)
{
    PipelineConfig cfg;
    OooCore core(cfg, spec2000("gzip"), 5);
    core.alus().setIntAluOff(0, TurnoffReason::UnitThermal, true);
    const ActivityRecord act = runCycles(core, 100000);
    EXPECT_EQ(act.intAluOps[0], 0u);
    EXPECT_GT(act.intAluOps[1], 0u);
    EXPECT_GT(core.ipc(), 0.5); // others pick up the slack
}

TEST(Core, AllAlusOffStopsIntegerIssueButNotDeadlocksTest)
{
    PipelineConfig cfg;
    OooCore core(cfg, spec2000("gzip"), 6);
    for (int i = 0; i < cfg.numIntAlus; ++i)
        core.alus().setIntAluOff(i, TurnoffReason::UnitThermal,
                                 true);
    const ActivityRecord act = runCycles(core, 20000);
    std::uint64_t total = 0;
    for (int i = 0; i < cfg.numIntAlus; ++i)
        total += act.intAluOps[i];
    EXPECT_EQ(total, 0u);
    EXPECT_LT(core.committed(), 200u); // a few pre-stall commits
}

TEST(Core, RegfileReadsFollowMapping)
{
    PipelineConfig cfg;
    OooCore pri(cfg, spec2000("gzip"), 7);
    pri.intRegfile().setMapping(PortMapping::Priority);
    const ActivityRecord a = runCycles(pri, 200000);
    // Priority mapping concentrates reads in copy 0.
    EXPECT_GT(a.intRegReads[0], 2 * a.intRegReads[1]);

    OooCore bal(cfg, spec2000("gzip"), 7);
    bal.intRegfile().setMapping(PortMapping::Balanced);
    const ActivityRecord b = runCycles(bal, 200000);
    const double ratio = static_cast<double>(b.intRegReads[0]) /
                         static_cast<double>(b.intRegReads[1]);
    EXPECT_LT(ratio, 1.8);
}

TEST(Core, WritesGoToBothCopies)
{
    PipelineConfig cfg;
    OooCore core(cfg, spec2000("gzip"), 8);
    const ActivityRecord act = runCycles(core, 100000);
    EXPECT_EQ(act.intRegWrites[0], act.intRegWrites[1]);
    EXPECT_GT(act.intRegWrites[0], 0u);
}

TEST(Core, FpWorkloadUsesFpResources)
{
    PipelineConfig cfg;
    OooCore core(cfg, spec2000("swim"), 9);
    const ActivityRecord act = runCycles(core, 200000);
    std::uint64_t fp_ops = act.fpMulOps;
    for (int i = 0; i < cfg.numFpAdders; ++i)
        fp_ops += act.fpAddOps[i];
    EXPECT_GT(fp_ops, 10000u);
    EXPECT_GT(act.fpRegReads, 0u);
    EXPECT_GT(act.fpRegWrites, 0u);
}

TEST(Core, IntWorkloadLeavesFpIdle)
{
    PipelineConfig cfg;
    OooCore core(cfg, spec2000("bzip"), 10);
    const ActivityRecord act = runCycles(core, 100000);
    std::uint64_t fp_ops = act.fpMulOps;
    for (int i = 0; i < cfg.numFpAdders; ++i)
        fp_ops += act.fpAddOps[i];
    EXPECT_EQ(fp_ops, 0u);
}

TEST(Core, StallCyclesFreezeEverything)
{
    PipelineConfig cfg;
    OooCore core(cfg, spec2000("gzip"), 11);
    runCycles(core, 10000);
    const std::uint64_t committed = core.committed();
    ActivityRecord act;
    core.stallCycles(5000, act);
    EXPECT_EQ(core.committed(), committed);
    EXPECT_EQ(act.stallCycles, 5000u);
    EXPECT_EQ(act.cycles, 5000u);
    EXPECT_EQ(core.cycle(), 15000u);
    // Execution resumes cleanly after a stall.
    runCycles(core, 10000);
    EXPECT_GT(core.committed(), committed);
}

TEST(Core, MemPortLimitRespected)
{
    // With one L1D port, memory throughput halves relative to two.
    PipelineConfig one;
    one.l1dPorts = 1;
    PipelineConfig two;
    OooCore c1(one, spec2000("mcf"), 12);
    OooCore c2(two, spec2000("mcf"), 12);
    runCycles(c1, 200000);
    runCycles(c2, 200000);
    EXPECT_LE(c1.committed(), c2.committed());
}

TEST(Core, ActivityConservation)
{
    // Committed instructions match the activity record, and issue
    // events are bounded by commit events plus in-flight work.
    PipelineConfig cfg;
    OooCore core(cfg, spec2000("vortex"), 13);
    const ActivityRecord act = runCycles(core, 100000);
    EXPECT_EQ(act.instructions, core.committed());
    std::uint64_t issued = act.fpMulOps;
    for (int i = 0; i < cfg.numIntAlus; ++i)
        issued += act.intAluOps[i];
    for (int i = 0; i < cfg.numFpAdders; ++i)
        issued += act.fpAddOps[i];
    EXPECT_GE(issued, core.committed());
    EXPECT_LE(issued, core.committed() +
                          static_cast<std::uint64_t>(
                              cfg.activeListEntries));
}

TEST(Core, WritebackWakesBeyondSixtyFourSameCycleCompletions)
{
    // Regression: writeback used to collect completing result tags
    // into a fixed 64-slot list before broadcasting. With more than
    // 64 destinations completing in one cycle the overflow tags
    // were silently dropped, so their dependents slept in the issue
    // queues forever (deadlock). The scoreboard wakeup has no cap.
    PipelineConfig cfg;
    cfg.issueWidth = 16; // completion-wheel slot bound >= 80
    cfg.intIqEntries = 128;
    OooCore core(cfg, spec2000("gzip"), 1);
    ActivityRecord act;

    constexpr int kProducers = 80; // > the old 64-tag cap
    IssueQueue& iq = core.intQueue();
    for (int i = 0; i < kProducers; ++i) {
        const std::uint64_t producer_seq =
            static_cast<std::uint64_t>(i + 1);
        const int rob_idx =
            CoreTestPeer::addRobEntry(core, producer_seq);
        CoreTestPeer::markInFlight(core, producer_seq);

        IqEntry waiter;
        waiter.seq = static_cast<std::uint64_t>(1000 + i);
        waiter.cls = OpClass::IntAlu;
        waiter.numSrcs = 1;
        waiter.src[0] = producer_seq;
        waiter.srcReady[0] = false;
        ASSERT_TRUE(iq.canDispatch());
        iq.dispatch(waiter, act);

        CoreTestPeer::scheduleCompletion(core, producer_seq,
                                         rob_idx, 1);
    }
    ASSERT_EQ(iq.waitingCount(), kProducers);

    CoreTestPeer::advanceCycle(core);
    CoreTestPeer::writeback(core, act);

    for (int p = 0; p < kProducers; ++p)
        EXPECT_TRUE(iq.entryAtPhys(p).ready()) << "entry " << p;
    EXPECT_EQ(iq.waitingCount(), 0);
    // One tag-broadcast charge per completing destination.
    EXPECT_EQ(act.iqTagBroadcasts[0],
              static_cast<std::uint64_t>(kProducers));
}

/** Every byte of a core's checkpointed state: the core, then the
 * components CmpSimulator::saveEngineContext writes after it. */
std::string
coreStateBytes(const OooCore& core)
{
    StateWriter w;
    core.saveState(w);
    core.intQueue().saveState(w);
    core.fpQueue().saveState(w);
    core.alus().saveState(w);
    core.intRegfile().saveState(w);
    core.caches().saveState(w);
    core.stream().saveState(w);
    return w.bytes();
}

std::string
activityBytes(const ActivityRecord& a)
{
    StateWriter w;
    saveActivity(w, a);
    return w.bytes();
}

/**
 * Differential test of the idle skip: advance(n) against n tick()
 * calls on a memory-bound, a pointer-chasing and a busy benchmark,
 * with both cores steered the same way between chunks (queue
 * toggles, ALU and FP-adder turnoff, fetch throttling, cooling
 * stalls that leave completions in the wheel, round-robin select
 * and register-file mappings). The saved state and the activity
 * must be equal after every chunk.
 */
TEST(Core, AdvanceMatchesTickLoop)
{
    for (const char* bench : {"art", "mcf", "eon"}) {
        SCOPED_TRACE(bench);
        PipelineConfig cfg;
        OooCore fast(cfg, spec2000(bench), 7);
        OooCore slow(cfg, spec2000(bench), 7);
        ActivityRecord act_fast;
        ActivityRecord act_slow;
        Rng rng(11);
        for (int chunk = 0; chunk < 80; ++chunk) {
            const std::uint64_t n = 1 + rng.below(3000);
            fast.advance(n, act_fast);
            for (std::uint64_t c = 0; c < n; ++c)
                slow.tick(act_slow);
            ASSERT_EQ(coreStateBytes(fast), coreStateBytes(slow))
                << "chunk " << chunk;
            ASSERT_EQ(activityBytes(act_fast), activityBytes(act_slow))
                << "chunk " << chunk;

            const auto steer = [&](OooCore& core, std::uint64_t what,
                                   int unit, bool off, int value) {
                switch (what) {
                  case 0: core.intQueue().toggleMode(); break;
                  case 1: core.fpQueue().toggleMode(); break;
                  case 2:
                    core.alus().setIntAluOff(
                        unit % cfg.numIntAlus,
                        TurnoffReason::UnitThermal, off);
                    break;
                  case 3:
                    core.alus().setFpAdderOff(
                        unit % cfg.numFpAdders,
                        TurnoffReason::UnitThermal, off);
                    break;
                  case 4: core.setFetchInterval(1 + value % 4); break;
                  case 5: {
                      ActivityRecord& act =
                          &core == &fast ? act_fast : act_slow;
                      core.stallCycles(
                          static_cast<std::uint64_t>(value), act);
                      break;
                  }
                  case 6: core.setRoundRobin(!core.roundRobin()); break;
                  default:
                    core.intRegfile().setMapping(
                        static_cast<PortMapping>(value % 3));
                    break;
                }
            };
            const std::uint64_t what = rng.below(8);
            const int unit = static_cast<int>(rng.below(8));
            const bool off = rng.chance(0.5);
            const int value = static_cast<int>(1 + rng.below(600));
            steer(fast, what, unit, off, value);
            steer(slow, what, unit, off, value);
        }
        EXPECT_EQ(fast.cycle(), slow.cycle());
        EXPECT_GT(fast.committed(), 0u);
    }
}

TEST(Core, RobAndLsqBounded)
{
    PipelineConfig cfg;
    OooCore core(cfg, spec2000("mcf"), 14);
    ActivityRecord act;
    for (int i = 0; i < 50000; ++i) {
        core.tick(act);
        ASSERT_LE(core.robCount(), cfg.activeListEntries);
        ASSERT_LE(core.lsqCount(), cfg.lsqEntries);
        ASSERT_GE(core.robCount(), 0);
        ASSERT_GE(core.lsqCount(), 0);
    }
}

} // namespace
} // namespace tempest
