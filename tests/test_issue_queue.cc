/**
 * @file
 * Unit and property tests for the compacting issue queue (§2.1).
 */

#include <gtest/gtest.h>

#include "common/log.hh"

#include <algorithm>
#include <vector>

#include "common/rng.hh"
#include "sim/checkpoint/stateio.hh"
#include "uarch/issue_queue.hh"

namespace tempest
{

/** Test-only access to the reference compaction pass and the
 * scalar twins of the vector tag and class compares. */
struct IqTestPeer
{
    static void
    compactGeneric(IssueQueue& iq, ActivityRecord& act)
    {
        iq.compactStepImpl(act, true);
    }

    static void
    wakeupScalar(IssueQueue& iq, const std::uint64_t* seqs, int n)
    {
        iq.wakeupImpl(seqs, n, true);
    }

    static void
    classMaskScalar(const IssueQueue& iq, OpClass lo, OpClass hi,
                    std::uint64_t* out)
    {
        iq.classMaskImpl(lo, hi, out, true);
    }
};

namespace
{

IqEntry
makeEntry(std::uint64_t seq, bool ready = true)
{
    IqEntry e;
    e.seq = seq;
    e.cls = OpClass::IntAlu;
    e.numSrcs = ready ? 0 : 1;
    e.src[0] = ready ? 0 : seq + 1000000; // never woken by default
    e.srcReady[0] = ready;
    return e;
}

/** Valid (non-pending) seqs in priority order. */
std::vector<std::uint64_t>
validSeqsInPriorityOrder(const IssueQueue& iq)
{
    std::vector<std::uint64_t> seqs;
    for (int l = 0; l < iq.size(); ++l) {
        const IqEntry& e = iq.entryAtPhys(iq.physOfLogical(l));
        if (e.valid && !e.pendingInvalid)
            seqs.push_back(e.seq);
    }
    return seqs;
}

TEST(IssueQueue, RejectsBadGeometry)
{
    EXPECT_THROW(IssueQueue(31, 6, QueueKind::Int), FatalError);
    EXPECT_THROW(IssueQueue(32, 0, QueueKind::Int), FatalError);
}

TEST(IssueQueue, DispatchFillsFromHead)
{
    IssueQueue iq(8, 4, QueueKind::Int);
    ActivityRecord act;
    for (std::uint64_t s = 1; s <= 8; ++s) {
        ASSERT_TRUE(iq.canDispatch());
        iq.dispatch(makeEntry(s), act);
    }
    EXPECT_FALSE(iq.canDispatch());
    EXPECT_EQ(iq.count(), 8);
    const auto seqs = validSeqsInPriorityOrder(iq);
    for (std::uint64_t s = 1; s <= 8; ++s)
        EXPECT_EQ(seqs[s - 1], s);
}

TEST(IssueQueue, DispatchChargesPayloadAndTailHalf)
{
    IssueQueue iq(8, 4, QueueKind::Int);
    ActivityRecord act;
    for (std::uint64_t s = 1; s <= 6; ++s)
        iq.dispatch(makeEntry(s), act);
    EXPECT_EQ(act.iqPayloadAccesses[0], 6u);
    // 8-entry queue: first 4 dispatches land in half 0, rest in 1.
    EXPECT_EQ(act.iqDispatchWrites[0][0], 4u);
    EXPECT_EQ(act.iqDispatchWrites[0][1], 2u);
}

TEST(IssueQueue, IssueCreatesHoleNextCycleOnly)
{
    IssueQueue iq(8, 4, QueueKind::Int);
    ActivityRecord act;
    for (std::uint64_t s = 1; s <= 8; ++s)
        iq.dispatch(makeEntry(s), act);
    iq.markIssued(iq.physOfLogical(0), act);
    // Still counted until the next compaction (replay window).
    EXPECT_EQ(iq.count(), 8);
    EXPECT_FALSE(iq.canDispatch());
    iq.compactStep(act);
    EXPECT_EQ(iq.count(), 7);
    EXPECT_TRUE(iq.canDispatch());
}

TEST(IssueQueue, CompactionPreservesProgramOrder)
{
    IssueQueue iq(16, 4, QueueKind::Int);
    ActivityRecord act;
    for (std::uint64_t s = 1; s <= 16; ++s)
        iq.dispatch(makeEntry(s), act);
    // Issue three entries scattered through the queue.
    iq.markIssued(iq.physOfLogical(2), act);
    iq.markIssued(iq.physOfLogical(7), act);
    iq.markIssued(iq.physOfLogical(11), act);
    iq.compactStep(act);
    iq.compactStep(act);
    const auto seqs = validSeqsInPriorityOrder(iq);
    EXPECT_TRUE(std::is_sorted(seqs.begin(), seqs.end()));
    EXPECT_EQ(seqs.size(), 13u);
}

TEST(IssueQueue, CompactionLimitedToIssueWidthPerCycle)
{
    IssueQueue iq(16, 2, QueueKind::Int); // width 2
    ActivityRecord act;
    for (std::uint64_t s = 1; s <= 16; ++s)
        iq.dispatch(makeEntry(s), act);
    // Open 5 holes at the head end.
    for (int l = 0; l < 5; ++l)
        iq.markIssued(iq.physOfLogical(l), act);
    iq.compactStep(act); // holes appear; shifts limited to 2
    // The tail entry (seq 16) was at logical 15 and can have
    // moved at most 2 positions.
    bool found = false;
    for (int l = 13; l < 16; ++l) {
        const IqEntry& e = iq.entryAtPhys(iq.physOfLogical(l));
        if (e.valid && e.seq == 16) {
            EXPECT_GE(l, 13);
            found = true;
        }
    }
    EXPECT_TRUE(found);
    // After enough cycles everything is fully compacted.
    for (int i = 0; i < 5; ++i)
        iq.compactStep(act);
    EXPECT_EQ(validSeqsInPriorityOrder(iq).front(), 6u);
    EXPECT_TRUE(iq.entryAtPhys(iq.physOfLogical(10)).valid);
    EXPECT_FALSE(iq.entryAtPhys(iq.physOfLogical(11)).valid);
}

TEST(IssueQueue, ClockGatingOnlyMovedEntriesCharge)
{
    IssueQueue iq(8, 4, QueueKind::Int);
    ActivityRecord act;
    for (std::uint64_t s = 1; s <= 8; ++s)
        iq.dispatch(makeEntry(s), act);
    iq.compactStep(act); // no holes: nothing moves
    EXPECT_EQ(act.iqEntryMoves[0][0] + act.iqEntryMoves[0][1], 0u);
    EXPECT_EQ(act.iqMuxSelects[0][0] + act.iqMuxSelects[0][1], 0u);

    // Issue the head: all 7 entries above it move exactly once.
    iq.markIssued(iq.physOfLogical(0), act);
    iq.compactStep(act);
    iq.compactStep(act);
    EXPECT_EQ(act.iqEntryMoves[0][0] + act.iqEntryMoves[0][1], 7u);
    EXPECT_EQ(act.iqMuxSelects[0][0] + act.iqMuxSelects[0][1], 7u);
}

TEST(IssueQueue, TailIssueMovesNothing)
{
    IssueQueue iq(8, 4, QueueKind::Int);
    ActivityRecord act;
    for (std::uint64_t s = 1; s <= 8; ++s)
        iq.dispatch(makeEntry(s), act);
    iq.markIssued(iq.physOfLogical(7), act); // newest entry
    iq.compactStep(act);
    EXPECT_EQ(act.iqEntryMoves[0][0] + act.iqEntryMoves[0][1], 0u);
}

TEST(IssueQueue, BroadcastWakesMatchingSources)
{
    IssueQueue iq(8, 4, QueueKind::Int);
    ActivityRecord act;
    IqEntry waiting = makeEntry(5, /*ready=*/false);
    waiting.src[0] = 42;
    iq.dispatch(waiting, act);
    iq.compactStep(act); // rebuild waiting list
    int ready_before = 0, ready_after = 0;
    iq.forEachReadyInPriorityOrder(
        [&](int, const IqEntry&) { ++ready_before; return true; });
    iq.broadcast(42, act);
    iq.forEachReadyInPriorityOrder(
        [&](int, const IqEntry&) { ++ready_after; return true; });
    EXPECT_EQ(ready_before, 0);
    EXPECT_EQ(ready_after, 1);
    EXPECT_EQ(act.iqTagBroadcasts[0], 1u);
}

TEST(IssueQueue, BroadcastOfWrongTagWakesNothing)
{
    IssueQueue iq(8, 4, QueueKind::Int);
    ActivityRecord act;
    IqEntry waiting = makeEntry(5, false);
    waiting.src[0] = 42;
    iq.dispatch(waiting, act);
    iq.compactStep(act);
    iq.broadcast(43, act);
    int ready = 0;
    iq.forEachReadyInPriorityOrder(
        [&](int, const IqEntry&) { ++ready; return true; });
    EXPECT_EQ(ready, 0);
}

TEST(IssueQueue, BroadcastWakesAcrossModeToggle)
{
    // Regression: a mode toggle rotates logical order without
    // moving entries, so seq_ is not sorted along logical
    // positions afterwards. The watch index must still resolve
    // consumer seqs (an early version binary-searched the logical
    // order and deadlocked every waiter after the first DTM
    // toggle).
    IssueQueue iq(8, 4, QueueKind::Int);
    ActivityRecord act;
    for (std::uint64_t s = 5; s <= 7; ++s) {
        IqEntry waiting = makeEntry(s, /*ready=*/false);
        waiting.src[0] = 37 + s;
        iq.dispatch(waiting, act);
    }
    iq.compactStep(act);
    iq.toggleMode();
    for (std::uint64_t tag = 42; tag <= 44; ++tag)
        iq.broadcast(tag, act);
    int ready = 0;
    iq.forEachReadyInPriorityOrder(
        [&](int, const IqEntry&) { ++ready; return true; });
    EXPECT_EQ(ready, 3);
}

TEST(IssueQueue, ToggledModeMapsHeadToMiddle)
{
    IssueQueue iq(32, 6, QueueKind::Int);
    EXPECT_EQ(iq.physOfLogical(0), 0);
    iq.toggleMode();
    EXPECT_EQ(iq.mode(), CompactionMode::Toggled);
    EXPECT_EQ(iq.physOfLogical(0), 16); // head at the middle
    EXPECT_EQ(iq.physOfLogical(15), 31);
    EXPECT_EQ(iq.physOfLogical(16), 0); // wraps to the bottom
    EXPECT_EQ(iq.physOfLogical(31), 15); // tail one below head
    for (int l = 0; l < 32; ++l)
        EXPECT_EQ(iq.logicalOfPhys(iq.physOfLogical(l)), l);
}

TEST(IssueQueue, WrapCompactionsChargedAsLong)
{
    IssueQueue iq(8, 4, QueueKind::Int);
    ActivityRecord act;
    iq.toggleMode();
    // Fill beyond half so entries occupy the wrap region.
    for (std::uint64_t s = 1; s <= 6; ++s)
        iq.dispatch(makeEntry(s), act);
    // Head (logical 0, phys 4) issues; logical 4 sits at phys 0
    // and must wrap to phys 7 when it compacts.
    iq.markIssued(iq.physOfLogical(0), act);
    iq.compactStep(act);
    iq.compactStep(act);
    EXPECT_EQ(act.iqLongCompactions[0][0] +
                  act.iqLongCompactions[0][1],
              1u);
    const auto seqs = validSeqsInPriorityOrder(iq);
    EXPECT_TRUE(std::is_sorted(seqs.begin(), seqs.end()));
}

TEST(IssueQueue, ConventionalModeNeverWraps)
{
    IssueQueue iq(16, 6, QueueKind::Int);
    ActivityRecord act;
    Rng rng(3);
    std::uint64_t seq = 0;
    for (int cycle = 0; cycle < 2000; ++cycle) {
        while (iq.canDispatch() && rng.chance(0.7))
            iq.dispatch(makeEntry(++seq), act);
        iq.forEachReadyInPriorityOrder(
            [&](int phys, const IqEntry&) {
                if (rng.chance(0.3))
                    iq.markIssued(phys, act);
                return true;
            });
        iq.compactStep(act);
    }
    EXPECT_EQ(act.iqLongCompactions[0][0] +
                  act.iqLongCompactions[0][1],
              0u);
}

TEST(IssueQueue, ToggleCountsAndPreservesEntries)
{
    IssueQueue iq(16, 4, QueueKind::Fp);
    ActivityRecord act;
    for (std::uint64_t s = 1; s <= 10; ++s)
        iq.dispatch(makeEntry(s), act);
    iq.toggleMode();
    EXPECT_EQ(iq.toggleCount(), 1u);
    EXPECT_EQ(iq.count(), 10);
    // Entries stay in their physical slots; the logical order
    // changes, which transiently inverts priorities (§2.1.1:
    // "older instructions ... may become lower priority than
    // newer instructions"). No correctness problem: nothing is
    // lost or duplicated, and compaction defragments toward the
    // new head while preserving relative order within runs.
    for (int i = 0; i < 10; ++i)
        iq.compactStep(act);
    auto seqs = validSeqsInPriorityOrder(iq);
    EXPECT_EQ(seqs.size(), 10u);
    std::sort(seqs.begin(), seqs.end());
    for (std::uint64_t s = 1; s <= 10; ++s)
        EXPECT_EQ(seqs[s - 1], s);
    // The transient inversion resolves through issue: the two
    // highest-priority entries are the post-toggle front-runners.
    int granted = 0;
    iq.forEachReadyInPriorityOrder(
        [&](int phys, const IqEntry&) {
            iq.markIssued(phys, act);
            return ++granted < 2;
        });
    iq.compactStep(act);
    EXPECT_EQ(iq.count(), 8);
}

TEST(IssueQueue, FpQueueChargesFpCounters)
{
    IssueQueue iq(8, 4, QueueKind::Fp);
    ActivityRecord act;
    iq.dispatch(makeEntry(1), act);
    EXPECT_EQ(act.iqPayloadAccesses[1], 1u);
    EXPECT_EQ(act.iqPayloadAccesses[0], 0u);
}

TEST(IssueQueue, OccupancyPerHalfTracksPlacement)
{
    IssueQueue iq(8, 4, QueueKind::Int);
    ActivityRecord act;
    for (std::uint64_t s = 1; s <= 5; ++s)
        iq.dispatch(makeEntry(s), act);
    EXPECT_EQ(iq.occupancyOfHalf(0), 4);
    EXPECT_EQ(iq.occupancyOfHalf(1), 1);
}

/** Property: random dispatch/issue/toggle traffic never loses or
 * duplicates instructions and always keeps age order among the
 * surviving entries (between toggles). */
class IssueQueueFuzz : public ::testing::TestWithParam<int>
{
};

TEST_P(IssueQueueFuzz, NoLossNoDuplication)
{
    IssueQueue iq(32, 6, QueueKind::Int);
    ActivityRecord act;
    Rng rng(GetParam());
    std::uint64_t next_seq = 0;
    std::uint64_t dispatched = 0, issued = 0;
    for (int cycle = 0; cycle < 5000; ++cycle) {
        iq.compactStep(act);
        int grants = 0;
        iq.forEachReadyInPriorityOrder(
            [&](int phys, const IqEntry&) {
                if (grants < 6 && rng.chance(0.4)) {
                    iq.markIssued(phys, act);
                    ++grants;
                    ++issued;
                }
                return true;
            });
        for (int d = 0; d < 6 && iq.canDispatch(); ++d) {
            if (rng.chance(0.8)) {
                iq.dispatch(makeEntry(++next_seq), act);
                ++dispatched;
            }
        }
        if (rng.chance(0.01))
            iq.toggleMode();
        // Invariants.
        ASSERT_EQ(iq.occupancyOfHalf(0) + iq.occupancyOfHalf(1),
                  iq.count());
        auto seqs = validSeqsInPriorityOrder(iq);
        auto sorted = seqs;
        std::sort(sorted.begin(), sorted.end());
        ASSERT_TRUE(std::adjacent_find(sorted.begin(),
                                       sorted.end()) ==
                    sorted.end())
            << "duplicate entry";
    }
    // Conservation: everything dispatched is either issued or
    // still waiting in the queue (issued-but-uncompacted entries
    // belong to the issued count).
    int pending = 0;
    for (int p = 0; p < iq.size(); ++p) {
        const IqEntry& e = iq.entryAtPhys(p);
        pending += (e.valid && !e.pendingInvalid) ? 1 : 0;
    }
    EXPECT_EQ(dispatched, issued + static_cast<std::uint64_t>(
                                       pending));
}

TEST(IssueQueue, ReadyAtDispatchIsNeverWatchedByWakeup)
{
    // Regression for the dead condition in dispatch(): an entry
    // whose sources are all ready when it enters the queue must
    // not join the wakeup list, and tag broadcasts must not touch
    // it.
    IssueQueue iq(8, 4, QueueKind::Int);
    ActivityRecord act;
    IqEntry e = makeEntry(1);
    e.numSrcs = 1;
    e.src[0] = 7;
    e.srcReady[0] = true; // producer completed before dispatch
    iq.dispatch(e, act);
    EXPECT_EQ(iq.waitingCount(), 0);
    EXPECT_TRUE(iq.entryAtPhys(0).ready());

    // An unready entry is watched; broadcasting the ready entry's
    // (already satisfied) tag wakes nothing.
    iq.dispatch(makeEntry(2, /*ready=*/false), act);
    EXPECT_EQ(iq.waitingCount(), 1);
    const std::uint64_t tag = 7;
    iq.broadcastMany(&tag, 1, act);
    EXPECT_EQ(iq.waitingCount(), 1);
    EXPECT_FALSE(iq.entryAtPhys(1).ready());
    EXPECT_TRUE(iq.entryAtPhys(0).ready());
}

INSTANTIATE_TEST_SUITE_P(Seeds, IssueQueueFuzz,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7,
                                           8));

/** Drive two identical queues, one compacting through the public
 * single-word fast pass and one pinned to the per-entry reference
 * pass, and require identical visible state and activity charges
 * every cycle (stale bits at holes are the one tolerated
 * difference — they are dead state, overwritten before use). */
TEST(IssueQueue, WordAndGenericCompactionAgree)
{
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
        IssueQueue a(32, 6, QueueKind::Int);
        IssueQueue b(32, 6, QueueKind::Int);
        ActivityRecord act_a;
        ActivityRecord act_b;
        Rng rng(seed);
        std::uint64_t next_seq = 1;
        std::vector<std::uint64_t> outstanding; // unwoken tags
        std::vector<int> ready_phys;
        for (int cycle = 0; cycle < 3000; ++cycle) {
            while (a.canDispatch() && rng.chance(0.6)) {
                const std::uint64_t s = next_seq++;
                IqEntry e = makeEntry(s, rng.chance(0.5));
                if (!e.srcReady[0]) {
                    e.src[0] = s + 1000000;
                    outstanding.push_back(e.src[0]);
                }
                a.dispatch(e, act_a);
                b.dispatch(e, act_b);
            }
            // Wake a random prefix of the oldest sleepers.
            if (!outstanding.empty() && rng.chance(0.7)) {
                const auto n = 1 + rng.below(outstanding.size());
                a.broadcastMany(outstanding.data(),
                                static_cast<int>(n), act_a);
                b.broadcastMany(outstanding.data(),
                                static_cast<int>(n), act_b);
                outstanding.erase(outstanding.begin(),
                                  outstanding.begin() +
                                      static_cast<long>(n));
            }
            // Issue a random subset of ready entries (same slots
            // in both queues — their state is identical).
            ready_phys.clear();
            a.forEachReadyInPriorityOrder(
                [&](int p, const IqEntry&) {
                    ready_phys.push_back(p);
                    return true;
                });
            int budget = 6;
            for (const int p : ready_phys) {
                if (budget == 0 || !rng.chance(0.5))
                    continue;
                a.markIssued(p, act_a);
                b.markIssued(p, act_b);
                --budget;
            }
            if (rng.chance(0.03)) {
                a.toggleMode();
                b.toggleMode();
            }
            a.compactStep(act_a);
            IqTestPeer::compactGeneric(b, act_b);

            ASSERT_EQ(a.count(), b.count()) << "cycle " << cycle;
            ASSERT_EQ(a.waitingCount(), b.waitingCount());
            ASSERT_EQ(a.canDispatch(), b.canDispatch());
            for (int h = 0; h < 2; ++h)
                ASSERT_EQ(a.occupancyOfHalf(h),
                          b.occupancyOfHalf(h));
            ASSERT_EQ(a.readyBits()[0], b.readyBits()[0])
                << "cycle " << cycle;
            for (int p = 0; p < a.size(); ++p) {
                const IqEntry ea = a.entryAtPhys(p);
                const IqEntry eb = b.entryAtPhys(p);
                ASSERT_EQ(ea.valid, eb.valid)
                    << "cycle " << cycle << " slot " << p;
                ASSERT_EQ(ea.pendingInvalid, eb.pendingInvalid);
                if (!ea.valid)
                    continue;
                ASSERT_EQ(ea.seq, eb.seq);
                ASSERT_EQ(ea.numSrcs, eb.numSrcs);
                ASSERT_EQ(ea.src[0], eb.src[0]);
                ASSERT_EQ(ea.srcReady[0], eb.srcReady[0]);
                ASSERT_EQ(ea.srcReady[1], eb.srcReady[1]);
            }
            for (int h = 0; h < 2; ++h) {
                ASSERT_EQ(act_a.iqEntryMoves[0][h],
                          act_b.iqEntryMoves[0][h])
                    << "cycle " << cycle;
                ASSERT_EQ(act_a.iqLongCompactions[0][h],
                          act_b.iqLongCompactions[0][h])
                    << "cycle " << cycle;
                ASSERT_EQ(act_a.iqMuxSelects[0][h],
                          act_b.iqMuxSelects[0][h]);
                ASSERT_EQ(act_a.iqCounterOps[0][h],
                          act_b.iqCounterOps[0][h]);
                ASSERT_EQ(act_a.iqOccupiedCycles[0][h],
                          act_b.iqOccupiedCycles[0][h]);
                ASSERT_EQ(act_a.iqDispatchWrites[0][h],
                          act_b.iqDispatchWrites[0][h]);
            }
            ASSERT_EQ(act_a.iqClockGateCycles[0],
                      act_b.iqClockGateCycles[0]);
            ASSERT_EQ(act_a.iqTagBroadcasts[0],
                      act_b.iqTagBroadcasts[0]);
        }
    }
}

/** Serialized queue state, for whole-state equality. */
std::string
stateBytes(const IssueQueue& iq)
{
    StateWriter w;
    iq.saveState(w);
    return w.bytes();
}

/** One entry of the naive wakeup model: the producer each source
 * still waits on (0 = none). */
struct ModelEntry
{
    std::uint64_t seq;
    std::uint64_t wait[2];
};

/**
 * Differential test of the tag-compare wakeup: a queue using the
 * vector compare and one pinned to the scalar twin run in lockstep
 * with a naive model that recomputes every entry's needs and ready
 * state from scratch. Random dispatch (sources on in-flight or
 * completed producers), wakeups of up to every in-flight producer
 * at once (past 64 in one call on the large queues) mixed with
 * seqs that alias a waited producer's low 16 bits, issue, mode
 * toggles and compaction. Every cycle the two queues' saved states
 * must be equal and each entry's needs and ready bits must match
 * the model.
 */
void
wakeupDifferential(int entries, std::uint64_t seed)
{
    IssueQueue vec(entries, 6, QueueKind::Int);
    IssueQueue ref(entries, 6, QueueKind::Int);
    ActivityRecord act_v;
    ActivityRecord act_r;
    Rng rng(seed);
    std::vector<ModelEntry> model;
    std::vector<std::uint64_t> inflight; // producers not yet woken
    std::uint64_t next_seq = 1;
    std::uint64_t next_producer = 1000000;
    std::vector<int> ready_phys;
    std::vector<std::uint64_t> wake;
    int max_wake = 0;
    for (int cycle = 0; cycle < 2000; ++cycle) {
        while (vec.canDispatch() && rng.chance(0.6)) {
            IqEntry e;
            e.seq = next_seq++;
            e.numSrcs = static_cast<int>(rng.below(3));
            ModelEntry m{e.seq, {0, 0}};
            for (int k = 0; k < e.numSrcs; ++k) {
                if (rng.chance(0.35)) {
                    e.src[k] = 1 + rng.below(900000); // completed
                    continue;
                }
                if (inflight.empty() || rng.chance(0.7))
                    inflight.push_back(next_producer++);
                e.src[k] = inflight[rng.below(inflight.size())];
                e.srcReady[k] = false;
                m.wait[k] = e.src[k];
            }
            vec.dispatch(e, act_v);
            ref.dispatch(e, act_r);
            model.push_back(m);
        }

        // Phases: producers pile up for 150 cycles (a miss
        // shadow), then all wake at once, then a few at a time.
        const int phase = cycle % 200;
        if (!inflight.empty() && phase >= 150 &&
            (phase == 150 || rng.chance(0.5))) {
            wake.clear();
            const std::size_t n =
                phase == 150 ? inflight.size()
                             : 1 + rng.below(std::min<std::size_t>(
                                       8, inflight.size()));
            for (std::size_t i = 0; i < n; ++i) {
                const std::size_t j = rng.below(inflight.size());
                wake.push_back(inflight[j]);
                inflight[j] = inflight.back();
                inflight.pop_back();
            }
            // Seqs with the low 16 bits of a producer that stays in
            // flight: a tag hit the full-seq check must reject.
            for (std::size_t i = 0; i < inflight.size(); ++i) {
                if (rng.chance(0.3))
                    wake.push_back(inflight[i] +
                                   (65536ULL << rng.below(3)));
            }
            max_wake = std::max(max_wake, static_cast<int>(wake.size()));
            vec.wakeup(wake.data(), static_cast<int>(wake.size()));
            IqTestPeer::wakeupScalar(ref, wake.data(),
                                     static_cast<int>(wake.size()));
            for (ModelEntry& m : model) {
                for (std::uint64_t& w : m.wait) {
                    if (w != 0 &&
                        std::find(wake.begin(), wake.end(), w) != wake.end())
                        w = 0;
                }
            }
        }

        // A lone seq with an in-flight producer's tag but other high
        // bits: its tag hits must all be rejected.
        if (!inflight.empty() && rng.chance(0.2)) {
            const std::uint64_t alias =
                inflight[rng.below(inflight.size())] +
                (65536ULL << rng.below(3));
            vec.wakeup(&alias, 1);
            IqTestPeer::wakeupScalar(ref, &alias, 1);
        }

        ready_phys.clear();
        vec.forEachReadyInPriorityOrder([&](int p, const IqEntry&) {
            ready_phys.push_back(p);
            return true;
        });
        for (const int p : ready_phys) {
            if (!rng.chance(0.4))
                continue;
            const std::uint64_t seq = vec.entryAtPhys(p).seq;
            vec.markIssued(p, act_v);
            ref.markIssued(p, act_r);
            model.erase(std::find_if(model.begin(), model.end(),
                                     [seq](const ModelEntry& m) {
                                         return m.seq == seq;
                                     }));
        }
        if (rng.chance(0.03)) {
            vec.toggleMode();
            ref.toggleMode();
        }
        vec.compactStep(act_v);
        ref.compactStep(act_r);

        ASSERT_EQ(stateBytes(vec), stateBytes(ref)) << "cycle " << cycle;
        int live = 0, waiting = 0;
        for (int l = 0; l < entries; ++l) {
            const int p = vec.physOfLogical(l);
            const IqEntry e = vec.entryAtPhys(p);
            const bool ready_bit = (vec.readyBits()[l >> 6] >> (l & 63)) & 1;
            if (!e.valid || e.pendingInvalid) {
                ASSERT_FALSE(ready_bit) << "cycle " << cycle;
                continue;
            }
            ++live;
            const auto it = std::find_if(
                model.begin(), model.end(),
                [&e](const ModelEntry& m) { return m.seq == e.seq; });
            ASSERT_NE(it, model.end()) << "cycle " << cycle;
            ASSERT_EQ(e.srcReady[0], it->wait[0] == 0)
                << "cycle " << cycle << " seq " << e.seq;
            ASSERT_EQ(e.srcReady[1], it->wait[1] == 0)
                << "cycle " << cycle << " seq " << e.seq;
            ASSERT_EQ(ready_bit, it->wait[0] == 0 && it->wait[1] == 0)
                << "cycle " << cycle << " seq " << e.seq;
            waiting += it->wait[0] != 0 || it->wait[1] != 0;
        }
        ASSERT_EQ(live, static_cast<int>(model.size()));
        ASSERT_EQ(vec.waitingCount(), waiting);
    }
    if (entries > 64) {
        EXPECT_GT(max_wake, 64) << "no wakeup past 64 seqs";
    }
}

TEST(IssueQueue, TagWakeupMatchesNaiveModel)
{
    for (const int entries : {8, 32, 34, 130}) {
        for (std::uint64_t seed = 1; seed <= 3; ++seed) {
            SCOPED_TRACE(::testing::Message()
                         << entries << " entries, seed " << seed);
            wakeupDifferential(entries, seed);
        }
    }
}

TEST(IssueQueue, VectorClassMaskMatchesScalarTwin)
{
    for (const int entries : {8, 32, 34, 64, 130}) {
        IssueQueue iq(entries, 6, QueueKind::Int);
        ActivityRecord act;
        Rng rng(static_cast<std::uint64_t>(entries));
        std::uint64_t seq = 1;
        std::vector<std::uint64_t> got(
            static_cast<std::size_t>(iq.bitWords()));
        std::vector<std::uint64_t> want(got.size());
        for (int cycle = 0; cycle < 500; ++cycle) {
            while (iq.canDispatch() && rng.chance(0.7)) {
                IqEntry e = makeEntry(seq++);
                e.cls = static_cast<OpClass>(rng.below(
                    static_cast<std::uint64_t>(OpClass::NumOpClasses)));
                iq.dispatch(e, act);
            }
            iq.forEachReadyInPriorityOrder([&](int p, const IqEntry&) {
                if (rng.chance(0.3))
                    iq.markIssued(p, act);
                return true;
            });
            if (rng.chance(0.05))
                iq.toggleMode();
            iq.compactStep(act);
            const auto lo = static_cast<OpClass>(rng.below(7));
            const auto hi = static_cast<OpClass>(
                static_cast<int>(lo) +
                static_cast<int>(rng.below(7 - static_cast<int>(lo))));
            iq.classMask(lo, hi, got.data());
            IqTestPeer::classMaskScalar(iq, lo, hi, want.data());
            for (int w = 0; w < iq.bitWords(); ++w) {
                const int n = std::min(64, entries - 64 * w);
                const std::uint64_t in =
                    n >= 64 ? ~0ULL : (1ULL << n) - 1;
                ASSERT_EQ(got[static_cast<std::size_t>(w)] & in,
                          want[static_cast<std::size_t>(w)] & in)
                    << entries << " entries, cycle " << cycle;
            }
        }
    }
}

} // namespace
} // namespace tempest
