#include "uarch/regfile.hh"

#include "common/log.hh"
#include "sim/checkpoint/stateio.hh"

namespace tempest
{

const char*
portMappingName(PortMapping mapping)
{
    switch (mapping) {
      case PortMapping::Priority: return "priority";
      case PortMapping::Balanced: return "balanced";
      case PortMapping::CompletelyBalanced:
        return "completely-balanced";
    }
    return "invalid";
}

RegisterFile::RegisterFile(int num_copies, int num_alus,
                           PortMapping mapping)
    : numCopies_(num_copies), numAlus_(num_alus), mapping_(mapping)
{
    if (num_copies < 1 || num_copies > kMaxRegfileCopies)
        fatal("register file copies out of range");
    if (num_alus < 1 || num_alus % num_copies != 0)
        fatal("ALU count must divide evenly across copies");
    if (num_alus > kMaxIntAlus)
        fatal("register file ALU count out of range");
    rebuildCopyTables();
}

void
RegisterFile::rebuildCopyTables()
{
    for (int a = 0; a < numAlus_; ++a) {
        switch (mapping_) {
          case PortMapping::Priority:
            copyOfAlu_[a] = a / (numAlus_ / numCopies_);
            break;
          case PortMapping::Balanced:
            copyOfAlu_[a] = a % numCopies_;
            break;
          case PortMapping::CompletelyBalanced:
            copyOfAlu_[a] = 0; // reads split across copies
            break;
        }
    }
    alusOfCopy_.assign(static_cast<std::size_t>(numCopies_), {});
    for (int c = 0; c < numCopies_; ++c) {
        std::vector<int>& alus =
            alusOfCopy_[static_cast<std::size_t>(c)];
        for (int a = 0; a < numAlus_; ++a) {
            if (mapping_ == PortMapping::CompletelyBalanced ||
                copyForAlu(a) == c) {
                alus.push_back(a);
            }
        }
    }
}

int
RegisterFile::copyForAlu(int alu) const
{
    if (alu < 0 || alu >= numAlus_)
        panic("copyForAlu: ALU index ", alu, " out of range");
    if (mapping_ == PortMapping::CompletelyBalanced)
        fatal("copyForAlu undefined under completely-balanced "
              "mapping");
    return copyOfAlu_[alu];
}

const std::vector<int>&
RegisterFile::alusOfCopy(int copy) const
{
    if (copy < 0 || copy >= numCopies_)
        panic("alusOfCopy: copy index ", copy, " out of range");
    return alusOfCopy_[static_cast<std::size_t>(copy)];
}

void
RegisterFile::chargeReads(int alu, int num_reads,
                          ActivityRecord& activity) const
{
    if (num_reads <= 0)
        return;
    if (mapping_ == PortMapping::CompletelyBalanced) {
        // One read port on each copy: spread reads round-robin,
        // starting at the ALU's parity so single reads alternate.
        for (int r = 0; r < num_reads; ++r) {
            const int copy = (alu + r) % numCopies_;
            ++activity.intRegReads[copy];
        }
        return;
    }
    if (alu < 0 || alu >= numAlus_)
        panic("chargeReads: ALU index ", alu, " out of range");
    activity.intRegReads[copyOfAlu_[alu]] +=
        static_cast<std::uint64_t>(num_reads);
}

void
RegisterFile::chargeWrite(ActivityRecord& activity) const
{
    for (int c = 0; c < numCopies_; ++c)
        ++activity.intRegWrites[c];
}

void
RegisterFile::saveState(StateWriter& w) const
{
    w.i32(numCopies_);
    w.i32(numAlus_);
    w.u8(static_cast<std::uint8_t>(mapping_));
}

void
RegisterFile::loadState(StateReader& r)
{
    const int copies = r.i32();
    const int alus = r.i32();
    if (copies != numCopies_ || alus != numAlus_) {
        fatal("checkpoint register file mismatch: saved ", copies,
              " copies / ", alus, " ALUs, this file has ",
              numCopies_, " / ", numAlus_);
    }
    const std::uint8_t mapping = r.u8();
    if (mapping > static_cast<std::uint8_t>(
                      PortMapping::CompletelyBalanced))
        fatal("checkpoint register file: unknown port mapping ",
              static_cast<int>(mapping));
    mapping_ = static_cast<PortMapping>(mapping);
    setMapping(mapping_); // re-derives the copy tables
}

} // namespace tempest
