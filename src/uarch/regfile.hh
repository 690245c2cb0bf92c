/**
 * @file
 * Integer register-file copies and ALU-to-copy port mappings (§2.3
 * of the paper).
 *
 * Processors replicate the register file to supply read bandwidth;
 * each ALU is hard-wired to two read ports of one copy, so the
 * ALU→copy mapping decides which copy heats. The three mappings of
 * the paper's Figure 4 are implemented:
 *
 * - Priority: high-priority ALUs share a copy ({0,1,2}→copy 0).
 * - Balanced: priorities interleave across copies ({0,2,4}→copy 0).
 * - CompletelyBalanced: each ALU reads one operand from each copy
 *   (reference design; needs long wires, the paper does not use it).
 *
 * Writes broadcast to every copy.
 */

#ifndef TEMPEST_UARCH_REGFILE_HH
#define TEMPEST_UARCH_REGFILE_HH

#include <vector>

#include "uarch/activity.hh"
#include "uarch/pipeline_config.hh"

namespace tempest
{

class StateWriter;
class StateReader;

/** ALU-to-register-file-copy port mapping policies (Figure 4). */
enum class PortMapping
{
    Priority,           ///< {0,1,2}→copy 0, {3,4,5}→copy 1
    Balanced,           ///< {0,2,4}→copy 0, {1,3,5}→copy 1
    CompletelyBalanced  ///< one read port per copy per ALU
};

/** @return a printable policy name. */
const char* portMappingName(PortMapping mapping);

/**
 * The replicated integer register file.
 *
 * This class owns the mapping and the activity accounting; copy
 * turnoff decisions live in the DTM layer, which marks the mapped
 * ALUs busy (the paper's implementation of copy turnoff).
 */
class RegisterFile
{
  public:
    /**
     * @param num_copies number of identical copies (Table 2: 2)
     * @param num_alus integer ALUs wired to the copies
     * @param mapping initial port mapping
     */
    RegisterFile(int num_copies, int num_alus, PortMapping mapping);

    int numCopies() const { return numCopies_; }
    int numAlus() const { return numAlus_; }
    PortMapping mapping() const { return mapping_; }

    void
    setMapping(PortMapping mapping)
    {
        mapping_ = mapping;
        rebuildCopyTables();
    }

    /**
     * Copy serving reads for an ALU under Priority/Balanced mapping.
     * fatal() under CompletelyBalanced (reads split across copies).
     */
    int copyForAlu(int alu) const;

    /** ALUs whose read ports are wired to a copy (Priority or
     * Balanced; under CompletelyBalanced every ALU maps to every
     * copy). Precomputed per mapping; the DTM layer calls this in
     * its per-interval loops, so no allocation per call. */
    const std::vector<int>& alusOfCopy(int copy) const;

    /**
     * Charge read-port accesses for an instruction executing on
     * `alu` with `num_reads` register sources.
     */
    void chargeReads(int alu, int num_reads,
                     ActivityRecord& activity) const;

    /** Charge one result write (broadcast to all copies). */
    void chargeWrite(ActivityRecord& activity) const;

    /** Serialize the active port mapping. */
    void saveState(StateWriter& w) const;

    /** Restore the mapping (rebuilds the copy tables). */
    void loadState(StateReader& r);

  private:
    /** Recompute the copy→ALUs tables for the current mapping. */
    void rebuildCopyTables();

    int numCopies_;
    int numAlus_;
    PortMapping mapping_;
    // ckpt:skip(rebuilt by setMapping() from the restored mapping_)
    std::vector<std::vector<int>> alusOfCopy_;
    /** Copy serving each ALU's reads under Priority/Balanced: the
     * per-issue lookup of chargeReads() (unused under
     * CompletelyBalanced). */
    // ckpt:skip(rebuilt by setMapping() from the restored mapping_)
    int copyOfAlu_[kMaxIntAlus] = {};
};

} // namespace tempest

#endif // TEMPEST_UARCH_REGFILE_HH
