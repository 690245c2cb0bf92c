/**
 * @file
 * The paper's qualitative results (the orderings of §4) as checked
 * claims: one test case per claim of the paper registry
 * (src/sim/paper.cc), which holds each claim's jobs, seeds, cycle
 * counts and bounds. The suite runs every claim's jobs once, in
 * parallel, before the first case; a job that several claims read
 * runs once. `tempest_sweep --paper claims` prints the same checks.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "sim/paper.hh"

namespace tempest
{
namespace
{

class Claim : public ::testing::TestWithParam<std::size_t>
{
  protected:
    static void
    SetUpTestSuite()
    {
        outcomes_ = runJobs(batch_.jobs(), 0);
    }

    static inline const paper::ClaimBatch batch_;
    static inline std::vector<Outcome> outcomes_;
};

TEST_P(Claim, Holds)
{
    for (const paper::Check& check :
         batch_.evaluate(GetParam(), outcomes_))
        EXPECT_TRUE(check.pass) << paper::describe(check);
}

INSTANTIATE_TEST_SUITE_P(
    Paper, Claim,
    ::testing::Range<std::size_t>(0, paper::claims().size()),
    [](const ::testing::TestParamInfo<std::size_t>& info) {
        return paper::claims()[info.param].name;
    });

} // namespace
} // namespace tempest
