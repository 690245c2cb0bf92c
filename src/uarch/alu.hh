/**
 * @file
 * Functional-unit pool: 6 integer ALUs, 4 FP adders, one FP
 * multiplier block, with per-copy thermal turnoff state.
 *
 * Turnoff is implemented exactly as the paper describes: a unit is
 * "marked busy" so its select tree grants nothing while it cools.
 * Two independent turnoff reasons compose — the unit itself
 * overheating (§2.2) and the register-file copy it reads from
 * cooling (§2.3) — so re-enabling one reason does not accidentally
 * clear the other.
 */

#ifndef TEMPEST_UARCH_ALU_HH
#define TEMPEST_UARCH_ALU_HH

#include <cstdint>

#include "uarch/pipeline_config.hh"
#include "workload/instruction.hh"

namespace tempest
{

class StateWriter;
class StateReader;

/** Why a functional unit is currently masked busy. */
enum class TurnoffReason : std::uint8_t
{
    UnitThermal = 1,    ///< the unit itself crossed its threshold
    RegfileThermal = 2  ///< its register-file copy is cooling
};

/** Functional-unit classes managed by the pool. */
enum class FuKind { IntAlu, FpAdder, FpMul };

/** Pool of functional units with turnoff masks. */
class AluPool
{
  public:
    explicit AluPool(const PipelineConfig& config);

    int numIntAlus() const { return numIntAlus_; }
    int numFpAdders() const { return numFpAdders_; }

    /** @return true if an integer ALU may be granted work. */
    bool intAluAvailable(int alu) const;

    /** @return true if an FP adder may be granted work. */
    bool fpAdderAvailable(int adder) const;

    /** Bit a set iff integer ALU a may be granted work. */
    std::uint64_t intAluOnMask() const;

    /** Bit a set iff FP adder a may be granted work. */
    std::uint64_t fpAdderOnMask() const;

    /** Set or clear one turnoff reason on an integer ALU. */
    void setIntAluOff(int alu, TurnoffReason reason, bool off);

    /** Set or clear one turnoff reason on an FP adder. */
    void setFpAdderOff(int adder, TurnoffReason reason, bool off);

    /** Number of integer ALUs currently masked (any reason). */
    int numIntAlusOff() const;

    /** Number of FP adders currently masked (any reason). */
    int numFpAddersOff() const;

    /** @return true if every integer ALU is masked. */
    bool allIntAlusOff() const;

    /** @return true if every FP adder is masked. */
    bool allFpAddersOff() const;

    /**
     * @return true if an integer ALU can execute the class. All 6
     * integer units handle arithmetic, multiplies, memory and
     * branches (Table 2's "6 integer ALUs includes arithmetic,
     * load/store, and branch units").
     */
    static bool intAluExecutes(OpClass cls);

    /** Execution latency of a class, from the pipeline config. */
    int latencyOf(OpClass cls) const;

    /** Clear all turnoff state. */
    void reset();

    /** Serialize the per-unit turnoff masks. */
    void saveState(StateWriter& w) const;

    /** Restore turnoff masks saved by saveState(). */
    void loadState(StateReader& r);

  private:
    int numIntAlus_;  // ckpt:skip(config, validated against the pipeline config)
    int numFpAdders_; // ckpt:skip(config, validated against the pipeline config)
    std::uint8_t intAluOff_[kMaxIntAlus] = {};
    std::uint8_t fpAdderOff_[kMaxFpAdders] = {};
    int intAluLatency_; // ckpt:skip(config, supplied by the restoring run)
    int intMulLatency_; // ckpt:skip(config, supplied by the restoring run)
    int fpAddLatency_;  // ckpt:skip(config, supplied by the restoring run)
    int fpMulLatency_;  // ckpt:skip(config, supplied by the restoring run)
};

} // namespace tempest

#endif // TEMPEST_UARCH_ALU_HH
