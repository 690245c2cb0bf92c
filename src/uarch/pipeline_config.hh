/**
 * @file
 * Pipeline parameters (the paper's Table 2) plus structural limits.
 */

#ifndef TEMPEST_UARCH_PIPELINE_CONFIG_HH
#define TEMPEST_UARCH_PIPELINE_CONFIG_HH

namespace tempest
{

/** Hard upper bounds used to size fixed arrays. */
inline constexpr int kMaxIntAlus = 8;
inline constexpr int kMaxFpAdders = 8;
inline constexpr int kMaxRegfileCopies = 4;
inline constexpr int kNumIssueQueues = 2; ///< integer and FP

/** Issue-queue identifiers. */
enum class QueueKind : int { Int = 0, Fp = 1 };

/**
 * Processor parameters. Defaults reproduce the paper's Table 2:
 * 6-wide out-of-order issue, 128-entry active list with 64-entry
 * LSQ, 32-entry integer and FP issue queues, 64KB 4-way 2-cycle L1s,
 * 2MB 8-way unified L2, 250-cycle memory, 4.2 GHz at 1.2V in 90nm.
 */
struct PipelineConfig
{
    int fetchWidth = 6;
    int issueWidth = 6;
    int commitWidth = 6;

    int activeListEntries = 128;
    int lsqEntries = 64;
    int intIqEntries = 32;
    int fpIqEntries = 32;

    int numIntAlus = 6;   ///< arithmetic + load/store + branch units
    int numFpAdders = 4;
    int numIntRegfileCopies = 2;

    /** L1 data cache ports: limits memory ops issued per cycle. */
    int l1dPorts = 2;

    int l1HitCycles = 2;
    int l2HitCycles = 12;
    int memCycles = 250;

    int intAluLatency = 1;
    int intMulLatency = 3;
    int fpAddLatency = 2;
    int fpMulLatency = 4;

    /** Cycles of fetch bubble after a mispredicted branch resolves. */
    int branchRedirectPenalty = 7;

    double frequencyHz = 4.2e9;

    /** Validate structural invariants; fatal() on violation. */
    void validate() const;
    bool operator==(const PipelineConfig&) const = default;
};

} // namespace tempest

#endif // TEMPEST_UARCH_PIPELINE_CONFIG_HH
