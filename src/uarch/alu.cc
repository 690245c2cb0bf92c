#include "uarch/alu.hh"

#include "common/log.hh"
#include "sim/checkpoint/stateio.hh"

namespace tempest
{

AluPool::AluPool(const PipelineConfig& config)
    : numIntAlus_(config.numIntAlus),
      numFpAdders_(config.numFpAdders),
      intAluLatency_(config.intAluLatency),
      intMulLatency_(config.intMulLatency),
      fpAddLatency_(config.fpAddLatency),
      fpMulLatency_(config.fpMulLatency)
{
    config.validate();
}

bool
AluPool::intAluAvailable(int alu) const
{
    if (alu < 0 || alu >= numIntAlus_)
        panic("intAluAvailable: index out of range");
    return intAluOff_[alu] == 0;
}

bool
AluPool::fpAdderAvailable(int adder) const
{
    if (adder < 0 || adder >= numFpAdders_)
        panic("fpAdderAvailable: index out of range");
    return fpAdderOff_[adder] == 0;
}

std::uint64_t
AluPool::intAluOnMask() const
{
    std::uint64_t on = 0;
    for (int a = 0; a < numIntAlus_; ++a)
        on |= static_cast<std::uint64_t>(intAluOff_[a] == 0) << a;
    return on;
}

std::uint64_t
AluPool::fpAdderOnMask() const
{
    std::uint64_t on = 0;
    for (int a = 0; a < numFpAdders_; ++a)
        on |= static_cast<std::uint64_t>(fpAdderOff_[a] == 0) << a;
    return on;
}

void
AluPool::setIntAluOff(int alu, TurnoffReason reason, bool off)
{
    if (alu < 0 || alu >= numIntAlus_)
        panic("setIntAluOff: index out of range");
    const auto bit = static_cast<std::uint8_t>(reason);
    if (off)
        intAluOff_[alu] |= bit;
    else
        intAluOff_[alu] &= static_cast<std::uint8_t>(~bit);
}

void
AluPool::setFpAdderOff(int adder, TurnoffReason reason, bool off)
{
    if (adder < 0 || adder >= numFpAdders_)
        panic("setFpAdderOff: index out of range");
    const auto bit = static_cast<std::uint8_t>(reason);
    if (off)
        fpAdderOff_[adder] |= bit;
    else
        fpAdderOff_[adder] &= static_cast<std::uint8_t>(~bit);
}

int
AluPool::numIntAlusOff() const
{
    int n = 0;
    for (int i = 0; i < numIntAlus_; ++i)
        n += intAluOff_[i] != 0;
    return n;
}

int
AluPool::numFpAddersOff() const
{
    int n = 0;
    for (int i = 0; i < numFpAdders_; ++i)
        n += fpAdderOff_[i] != 0;
    return n;
}

bool
AluPool::allIntAlusOff() const
{
    return numIntAlusOff() == numIntAlus_;
}

bool
AluPool::allFpAddersOff() const
{
    return numFpAddersOff() == numFpAdders_;
}

bool
AluPool::intAluExecutes(OpClass cls)
{
    switch (cls) {
      case OpClass::IntAlu:
      case OpClass::IntMul:
      case OpClass::Load:
      case OpClass::Store:
      case OpClass::Branch:
        return true;
      default:
        return false;
    }
}

int
AluPool::latencyOf(OpClass cls) const
{
    switch (cls) {
      case OpClass::IntAlu: return intAluLatency_;
      case OpClass::IntMul: return intMulLatency_;
      case OpClass::FpAdd: return fpAddLatency_;
      case OpClass::FpMul: return fpMulLatency_;
      case OpClass::Branch: return intAluLatency_;
      case OpClass::Store: return intAluLatency_;
      case OpClass::Load:
        panic("load latency comes from the cache hierarchy");
      default:
        panic("latencyOf: invalid op class");
    }
}

void
AluPool::reset()
{
    for (auto& mask : intAluOff_)
        mask = 0;
    for (auto& mask : fpAdderOff_)
        mask = 0;
}

void
AluPool::saveState(StateWriter& w) const
{
    w.u32(static_cast<std::uint32_t>(kMaxIntAlus));
    for (const std::uint8_t mask : intAluOff_)
        w.u8(mask);
    w.u32(static_cast<std::uint32_t>(kMaxFpAdders));
    for (const std::uint8_t mask : fpAdderOff_)
        w.u8(mask);
}

void
AluPool::loadState(StateReader& r)
{
    if (r.u32() != static_cast<std::uint32_t>(kMaxIntAlus))
        fatal("checkpoint ALU pool mismatch: int ALU count");
    for (auto& mask : intAluOff_)
        mask = r.u8();
    if (r.u32() != static_cast<std::uint32_t>(kMaxFpAdders))
        fatal("checkpoint ALU pool mismatch: FP adder count");
    for (auto& mask : fpAdderOff_)
        mask = r.u8();
}

} // namespace tempest
