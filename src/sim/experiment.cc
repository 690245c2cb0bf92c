#include "sim/experiment.hh"

#include <cmath>
#include <cstring>
#include <sstream>

#include "common/log.hh"
#include "sim/runner.hh"

namespace tempest
{
namespace experiments
{

SimConfig
baseConfig(FloorplanVariant variant, double time_scale)
{
    SimConfig config;
    config.variant = variant;
    config.thermal.timeScale = time_scale;
    config.dtm.maxTemperature = config.thermal.maxTemperature;
    // Keep the sensing interval a small fraction of the block time
    // constant when thermal time is compressed (the paper's 100k
    // cycles is ~0.6% of its time constants).
    config.sampleIntervalCycles = 50000;
    return config;
}

SimConfig
iqBase(double time_scale)
{
    return baseConfig(FloorplanVariant::IqConstrained, time_scale);
}

SimConfig
iqToggling(double time_scale)
{
    SimConfig config = iqBase(time_scale);
    config.dtm.iqToggling = true;
    return config;
}

SimConfig
aluBase(double time_scale)
{
    return baseConfig(FloorplanVariant::AluConstrained, time_scale);
}

SimConfig
aluFineGrain(double time_scale)
{
    SimConfig config = aluBase(time_scale);
    config.dtm.aluTurnoff = true;
    return config;
}

SimConfig
aluRoundRobin(double time_scale)
{
    SimConfig config = aluFineGrain(time_scale);
    config.dtm.roundRobin = true;
    return config;
}

SimConfig
regfileConfig(PortMapping mapping, bool fine_grain,
              double time_scale)
{
    SimConfig config =
        baseConfig(FloorplanVariant::RegfileConstrained, time_scale);
    config.dtm.mapping = mapping;
    config.dtm.regfileTurnoff = fine_grain;
    return config;
}

SimResult
runBenchmark(const SimConfig& config, const std::string& benchmark,
             std::uint64_t cycles)
{
    // One job through the executor's job function, so there is a
    // single execution routine. The caller's runSeed is kept.
    const Outcome out =
        runJob(singleCoreJob(benchmark, config, benchmark, cycles));
    if (!out.ok)
        throw FatalError(out.error);
    return out.result.cores.front();
}

double
speedupPercent(const SimResult& a, const SimResult& b)
{
    if (a.ipc <= 0)
        fatal("speedupPercent: base IPC is zero");
    return 100.0 * (b.ipc / a.ipc - 1.0);
}

double
meanSpeedupPercent(const std::vector<SimResult>& base,
                   const std::vector<SimResult>& improved)
{
    if (base.size() != improved.size() || base.empty())
        fatal("meanSpeedupPercent: mismatched result sets");
    double log_sum = 0.0;
    for (std::size_t i = 0; i < base.size(); ++i) {
        if (base[i].ipc <= 0 || improved[i].ipc <= 0)
            fatal("meanSpeedupPercent: zero IPC result");
        log_sum += std::log(improved[i].ipc / base[i].ipc);
    }
    const double geo =
        std::exp(log_sum / static_cast<double>(base.size()));
    return 100.0 * (geo - 1.0);
}

std::string
renderTable(const std::vector<std::vector<std::string>>& rows)
{
    if (rows.empty())
        return "";
    std::vector<std::size_t> width;
    for (const auto& row : rows) {
        if (width.size() < row.size())
            width.resize(row.size(), 0);
        for (std::size_t c = 0; c < row.size(); ++c)
            width[c] = std::max(width[c], row[c].size());
    }
    std::ostringstream os;
    for (const auto& row : rows) {
        for (std::size_t c = 0; c < row.size(); ++c) {
            os << row[c];
            if (c + 1 < row.size()) {
                os << std::string(width[c] - row[c].size() + 2,
                                  ' ');
            }
        }
        os << '\n';
    }
    return os.str();
}

namespace
{

/** FNV-1a 64-bit, fed one 64-bit word at a time. */
class Fnv1a
{
  public:
    void
    word(std::uint64_t w)
    {
        for (int b = 0; b < 8; ++b) {
            hash_ ^= (w >> (8 * b)) & 0xff;
            hash_ *= 0x100000001b3ULL;
        }
    }

    void
    real(double d)
    {
        std::uint64_t bits;
        static_assert(sizeof(bits) == sizeof(d));
        std::memcpy(&bits, &d, sizeof(bits));
        word(bits);
    }

    void
    text(const std::string& s)
    {
        for (const char c : s) {
            hash_ ^= static_cast<unsigned char>(c);
            hash_ *= 0x100000001b3ULL;
        }
    }

    std::uint64_t value() const { return hash_; }

  private:
    std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

} // namespace

std::uint64_t
hashSimResult(const SimResult& r)
{
    Fnv1a h;
    h.text(r.benchmark);
    h.real(r.ipc);
    h.word(r.cycles);
    h.word(r.instructions);
    h.word(r.stallCycles);

    const ActivityRecord& a = r.activity;
    for (int q = 0; q < kNumIssueQueues; ++q) {
        for (int half = 0; half < 2; ++half) {
            h.word(a.iqEntryMoves[q][half]);
            h.word(a.iqMuxSelects[q][half]);
            h.word(a.iqLongCompactions[q][half]);
            h.word(a.iqCounterOps[q][half]);
            h.word(a.iqOccupiedCycles[q][half]);
            h.word(a.iqDispatchWrites[q][half]);
        }
        h.word(a.iqTagBroadcasts[q]);
        h.word(a.iqPayloadAccesses[q]);
        h.word(a.iqSelectAccesses[q]);
        h.word(a.iqClockGateCycles[q]);
    }
    for (int i = 0; i < kMaxIntAlus; ++i)
        h.word(a.intAluOps[i]);
    for (int i = 0; i < kMaxFpAdders; ++i)
        h.word(a.fpAddOps[i]);
    h.word(a.fpMulOps);
    for (int i = 0; i < kMaxRegfileCopies; ++i) {
        h.word(a.intRegReads[i]);
        h.word(a.intRegWrites[i]);
    }
    h.word(a.fpRegReads);
    h.word(a.fpRegWrites);
    h.word(a.l1iAccesses);
    h.word(a.l1dAccesses);
    h.word(a.l2Accesses);
    h.word(a.bpredAccesses);
    h.word(a.renameOps);
    h.word(a.lsqOps);
    h.word(a.commits);
    h.word(a.cycles);
    h.word(a.stallCycles);
    h.word(a.instructions);

    h.word(r.dtm.iqToggles);
    h.word(r.dtm.aluTurnoffEvents);
    h.word(r.dtm.fpAdderTurnoffEvents);
    h.word(r.dtm.regfileTurnoffEvents);
    h.word(r.dtm.globalStalls);
    h.word(r.dtm.fetchThrottleEvents);

    for (const BlockTempStats& b : r.blocks) {
        h.text(b.name);
        h.real(b.avg);
        h.real(b.max);
    }
    return h.value();
}

} // namespace experiments
} // namespace tempest
