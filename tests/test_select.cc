/**
 * @file
 * Unit tests for the serialized select trees (§2.2).
 */

#include <gtest/gtest.h>

#include "common/log.hh"

#include <algorithm>
#include <vector>

#include "common/rng.hh"
#include "uarch/alu.hh"
#include "uarch/select.hh"

namespace tempest
{
namespace
{

/**
 * The select network before mask select, kept as the reference:
 * each available tree walks the not-yet-granted ready entries in
 * logical order and grants the first one `can_use` accepts.
 */
template <typename FuAvailable, typename CanUse>
std::vector<Grant>
referenceSelect(const IssueQueue& iq, int num_fus, bool round_robin,
                std::uint64_t cycle, int max_grants,
                FuAvailable&& fu_available, CanUse&& can_use)
{
    std::vector<Grant> grants;
    if (max_grants <= 0)
        return grants;
    std::vector<std::uint64_t> avail(iq.readyBits(),
                                     iq.readyBits() + iq.bitWords());
    const int offset =
        round_robin ? static_cast<int>(cycle % num_fus) : 0;
    for (int t = 0; t < num_fus &&
                    static_cast<int>(grants.size()) < max_grants;
         ++t) {
        const int fu = (t + offset) % num_fus;
        if (!fu_available(fu))
            continue;
        bool granted = false;
        for (int w = 0; w < iq.bitWords() && !granted; ++w) {
            std::uint64_t m = avail[static_cast<std::size_t>(w)];
            while (m != 0) {
                const int bit = std::countr_zero(m);
                m &= m - 1;
                const int phys = iq.physOfLogical(w * 64 + bit);
                if (!can_use(fu, iq.opClassAt(phys)))
                    continue;
                avail[static_cast<std::size_t>(w)] &= ~(1ULL << bit);
                grants.push_back({fu, phys});
                granted = true;
                break;
            }
        }
    }
    return grants;
}

IqEntry
readyEntry(std::uint64_t seq)
{
    IqEntry e;
    e.seq = seq;
    e.cls = OpClass::IntAlu;
    e.numSrcs = 0;
    return e;
}

struct SelectFixture : public ::testing::Test
{
    SelectFixture() : iq(16, 6, QueueKind::Int), net(6) {}

    void
    fill(int n)
    {
        for (int i = 0; i < n; ++i)
            iq.dispatch(readyEntry(i + 1), act);
    }

    std::uint64_t
    onMask() const
    {
        std::uint64_t on = 0;
        for (int fu = 0; fu < 6; ++fu)
            on |= static_cast<std::uint64_t>(available[fu]) << fu;
        return on;
    }

    /** Select with every tree taking any ready entry. */
    std::vector<Grant>
    select(int budget, std::uint64_t cycle = 0)
    {
        return selectFrom(anyElig, budget, cycle);
    }

    /** Select with every tree taking the entries in `mask`. */
    std::vector<Grant>
    selectFrom(const std::uint64_t* mask, int budget,
               std::uint64_t cycle = 0)
    {
        const std::uint64_t* elig[6];
        std::fill_n(elig, 6, mask);
        std::vector<Grant> grants;
        net.select(iq, cycle, budget, onMask(), elig, nullptr, 0,
                   grants);
        return grants;
    }

    IssueQueue iq;
    SelectNetwork net;
    ActivityRecord act;
    bool available[6] = {true, true, true, true, true, true};
    const std::uint64_t anyElig[1] = {~0ULL};
};

TEST_F(SelectFixture, StaticPriorityGrantsLowFusFirst)
{
    fill(3);
    const auto grants = select(6);
    ASSERT_EQ(grants.size(), 3u);
    EXPECT_EQ(grants[0].fu, 0);
    EXPECT_EQ(grants[1].fu, 1);
    EXPECT_EQ(grants[2].fu, 2);
}

TEST_F(SelectFixture, OldestInstructionsWinUnderPriority)
{
    fill(10);
    const auto grants = select(3);
    ASSERT_EQ(grants.size(), 3u);
    for (int i = 0; i < 3; ++i) {
        EXPECT_EQ(iq.entryAtPhys(grants[i].physIdx).seq,
                  static_cast<std::uint64_t>(i + 1));
    }
}

TEST_F(SelectFixture, NoDoubleGrantAcrossTrees)
{
    fill(6);
    const auto grants = select(6);
    ASSERT_EQ(grants.size(), 6u);
    for (std::size_t i = 0; i < grants.size(); ++i) {
        for (std::size_t j = i + 1; j < grants.size(); ++j)
            EXPECT_NE(grants[i].physIdx, grants[j].physIdx);
    }
}

TEST_F(SelectFixture, BusyFuGrantsNothingMasksNothing)
{
    // §2.2: a turned-off ALU's tree issues no grant and its
    // requests fall through to lower-priority trees.
    fill(2);
    available[0] = false;
    const auto grants = select(6);
    ASSERT_EQ(grants.size(), 2u);
    EXPECT_EQ(grants[0].fu, 1);
    EXPECT_EQ(grants[1].fu, 2);
    // The oldest instruction still issues first.
    EXPECT_EQ(iq.entryAtPhys(grants[0].physIdx).seq, 1u);
}

TEST_F(SelectFixture, AllFusBusyGrantsNothing)
{
    fill(4);
    for (bool& a : available)
        a = false;
    EXPECT_TRUE(select(6).empty());
}

TEST_F(SelectFixture, BudgetCapsGrants)
{
    fill(6);
    EXPECT_EQ(select(2).size(), 2u);
    EXPECT_EQ(select(0).size(), 0u);
}

TEST_F(SelectFixture, ClassEligibilityFilters)
{
    IqEntry fp = readyEntry(1);
    fp.cls = OpClass::FpAdd;
    iq.dispatch(fp, act);
    iq.dispatch(readyEntry(2), act);
    std::uint64_t int_alu[1];
    iq.classMask(OpClass::IntAlu, OpClass::IntAlu, int_alu);
    const auto grants = selectFrom(int_alu, 6);
    ASSERT_EQ(grants.size(), 1u);
    EXPECT_EQ(iq.entryAtPhys(grants[0].physIdx).seq, 2u);
}

TEST_F(SelectFixture, RoundRobinRotatesStartingFu)
{
    fill(12);
    net.setRoundRobin(true);
    const auto g0 = select(1, /*cycle=*/0);
    const auto g1 = select(1, /*cycle=*/1);
    const auto g2 = select(1, /*cycle=*/7); // 7 % 6 == 1
    ASSERT_EQ(g0.size(), 1u);
    ASSERT_EQ(g1.size(), 1u);
    EXPECT_EQ(g0[0].fu, 0);
    EXPECT_EQ(g1[0].fu, 1);
    EXPECT_EQ(g2[0].fu, 1);
}

TEST_F(SelectFixture, RoundRobinSpreadsWorkEvenly)
{
    // Property: one ready instruction per cycle under round-robin
    // lands on each FU equally often.
    net.setRoundRobin(true);
    int per_fu[6] = {};
    std::uint64_t seq = 100;
    for (std::uint64_t cycle = 0; cycle < 600; ++cycle) {
        iq.dispatch(readyEntry(++seq), act);
        const auto grants = select(1, cycle);
        ASSERT_EQ(grants.size(), 1u);
        ++per_fu[grants[0].fu];
        iq.markIssued(grants[0].physIdx, act);
        iq.compactStep(act);
    }
    for (int f = 0; f < 6; ++f)
        EXPECT_EQ(per_fu[f], 100) << "fu " << f;
}

TEST_F(SelectFixture, StaticPrioritySkewsWorkToFuZero)
{
    // The asymmetry the paper exploits: under static priority with
    // one ready instruction per cycle, FU0 receives everything.
    int per_fu[6] = {};
    std::uint64_t seq = 100;
    for (std::uint64_t cycle = 0; cycle < 100; ++cycle) {
        iq.dispatch(readyEntry(++seq), act);
        const auto grants = select(1, cycle);
        ASSERT_EQ(grants.size(), 1u);
        ++per_fu[grants[0].fu];
        iq.markIssued(grants[0].physIdx, act);
        iq.compactStep(act);
    }
    EXPECT_EQ(per_fu[0], 100);
    EXPECT_EQ(per_fu[5], 0);
}

TEST_F(SelectFixture, ToggledQueuePriorityFollowsLogicalOrder)
{
    // After a toggle the root's priority flips; the select network
    // sees this through the queue's logical order.
    iq.toggleMode();
    fill(4);
    const auto grants = select(2);
    ASSERT_EQ(grants.size(), 2u);
    EXPECT_EQ(iq.entryAtPhys(grants[0].physIdx).seq, 1u);
    EXPECT_EQ(iq.entryAtPhys(grants[1].physIdx).seq, 2u);
}

TEST_F(SelectFixture, PortLimitedEntriesStopWhenPortsRunOut)
{
    // Loads at logical 0 and 1, an ALU op at 2: with one port the
    // second load must wait and the ALU op takes the second tree.
    for (std::uint64_t s = 1; s <= 3; ++s) {
        IqEntry e = readyEntry(s);
        e.cls = s < 3 ? OpClass::Load : OpClass::IntAlu;
        iq.dispatch(e, act);
    }
    std::uint64_t mem[1];
    iq.classMask(OpClass::Load, OpClass::Store, mem);
    const std::uint64_t* elig[6];
    std::fill_n(elig, 6, anyElig);
    std::vector<Grant> grants;
    net.select(iq, 0, 6, onMask(), elig, mem, 1, grants);
    ASSERT_EQ(grants.size(), 2u);
    EXPECT_EQ(iq.entryAtPhys(grants[0].physIdx).seq, 1u);
    EXPECT_EQ(iq.entryAtPhys(grants[1].physIdx).seq, 3u);
}

/**
 * Differential test: the mask select against the callback
 * reference in lockstep under random queue traffic, with the
 * core's eligibility rules (integer trees take any integer-class
 * entry, memory ops share the L1D ports; FP adders take FpAdd, the
 * multiplier FpMul). Round-robin, turned-off FUs, exhausted ports
 * and budgets all vary per cycle; the grant lists must be equal.
 */
void
selectDifferential(int entries, QueueKind kind, std::uint64_t seed)
{
    const bool fp = kind == QueueKind::Fp;
    const int num_fus = fp ? 5 : 6; // 4 adders + multiplier, 6 ALUs
    const int mul_fu = 4;
    constexpr OpClass kIntClasses[] = {OpClass::IntAlu, OpClass::IntMul,
                                       OpClass::Load, OpClass::Store,
                                       OpClass::Branch};
    IssueQueue iq(entries, 6, kind);
    SelectNetwork net(num_fus);
    ActivityRecord act;
    Rng rng(seed);
    const auto words = static_cast<std::size_t>(iq.bitWords());
    std::vector<std::uint64_t> all(words, ~0ULL), mem(words),
        add(words), mul(words);
    std::vector<const std::uint64_t*> elig(
        static_cast<std::size_t>(num_fus), all.data());
    if (fp) {
        std::fill(elig.begin(), elig.end(), add.data());
        elig[mul_fu] = mul.data();
    }
    std::uint64_t next_seq = 1;
    std::vector<std::uint64_t> sleeping;
    for (std::uint64_t cycle = 0; cycle < 3000; ++cycle) {
        while (iq.canDispatch() && rng.chance(0.5)) {
            IqEntry e;
            e.seq = next_seq++;
            e.cls = fp ? (rng.chance(0.5) ? OpClass::FpAdd
                                          : OpClass::FpMul)
                       : kIntClasses[rng.below(5)];
            e.numSrcs = 1;
            e.src[0] = e.seq + 1000000;
            e.srcReady[0] = rng.chance(0.6);
            if (!e.srcReady[0])
                sleeping.push_back(e.src[0]);
            iq.dispatch(e, act);
        }
        if (!sleeping.empty() && rng.chance(0.5)) {
            const auto n = 1 + rng.below(sleeping.size());
            iq.broadcastMany(sleeping.data(), static_cast<int>(n), act);
            sleeping.erase(sleeping.begin(),
                           sleeping.begin() + static_cast<long>(n));
        }
        if (rng.chance(0.02))
            iq.toggleMode();
        if (rng.chance(0.05))
            net.setRoundRobin(!net.roundRobin());
        const std::uint64_t fu_on =
            rng.chance(0.5) ? (1ULL << num_fus) - 1
                            : rng.below(1ULL << num_fus);
        const int budget = static_cast<int>(rng.below(7));
        const int ports = static_cast<int>(rng.below(4));

        const auto fu_available = [fu_on](int fu) {
            return ((fu_on >> fu) & 1) != 0;
        };
        std::vector<Grant> want;
        std::vector<Grant> got;
        if (fp) {
            want = referenceSelect(
                iq, num_fus, net.roundRobin(), cycle, budget,
                fu_available, [mul_fu](int fu, OpClass cls) {
                    return fu == mul_fu ? cls == OpClass::FpMul
                                        : cls == OpClass::FpAdd;
                });
            iq.classMask(OpClass::FpAdd, OpClass::FpAdd, add.data());
            iq.classMask(OpClass::FpMul, OpClass::FpMul, mul.data());
            net.select(iq, cycle, budget, fu_on, elig.data(), nullptr,
                       0, got);
        } else {
            int ports_left = ports;
            want = referenceSelect(
                iq, num_fus, net.roundRobin(), cycle, budget,
                fu_available, [&ports_left](int, OpClass cls) {
                    if (!AluPool::intAluExecutes(cls))
                        return false;
                    if (isMemClass(cls)) {
                        if (ports_left <= 0)
                            return false;
                        --ports_left;
                    }
                    return true;
                });
            iq.classMask(OpClass::Load, OpClass::Store, mem.data());
            net.select(iq, cycle, budget, fu_on, elig.data(),
                       mem.data(), ports, got);
        }
        ASSERT_EQ(got.size(), want.size()) << "cycle " << cycle;
        for (std::size_t i = 0; i < got.size(); ++i) {
            ASSERT_EQ(got[i].fu, want[i].fu) << "cycle " << cycle;
            ASSERT_EQ(got[i].physIdx, want[i].physIdx)
                << "cycle " << cycle;
        }
        for (const Grant& g : got)
            iq.markIssued(g.physIdx, act);
        iq.compactStep(act);
    }
}

TEST(SelectNetwork, MaskSelectMatchesCallbackReference)
{
    for (const int entries : {16, 32, 34, 130}) {
        for (std::uint64_t seed = 1; seed <= 3; ++seed) {
            SCOPED_TRACE(::testing::Message()
                         << entries << " entries, seed " << seed);
            selectDifferential(entries, QueueKind::Int, seed);
            selectDifferential(entries, QueueKind::Fp, seed);
        }
    }
}

TEST(SelectNetwork, RejectsZeroFus)
{
    EXPECT_THROW(SelectNetwork(0), FatalError);
}

} // namespace
} // namespace tempest
