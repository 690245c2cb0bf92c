#include "sim/simulator.hh"

#include "common/log.hh"

namespace tempest
{

namespace
{

/** The single-core engine: one core tile, no stacked DRAM. */
CmpSimConfig
singleCore(const SimConfig& config)
{
    CmpSimConfig cmp;
    cmp.base = config;
    return cmp;
}

} // namespace

const BlockTempStats&
SimResult::block(const std::string& name) const
{
    for (const BlockTempStats& b : blocks) {
        if (b.name == name)
            return b;
    }
    fatal("SimResult has no block named '", name, "'");
}

Simulator::Simulator(const SimConfig& config,
                     const BenchmarkProfile& profile)
    : cmp_(singleCore(config), {profile})
{}

} // namespace tempest
