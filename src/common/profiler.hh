/**
 * @file
 * Per-stage cycle profiler, compiled out unless TEMPEST_PROFILE=1.
 *
 * The benchmark (perfbench, A/B'd by tools/record_bench.py) says
 * how fast the whole simulator runs; this says where the time goes
 * inside the core's tick. Each pipeline
 * stage (fetch/dispatch/issue/writeback/compact/commit) and each
 * interval-level model (power/thermal/sensor/DTM) is wrapped in a
 * scoped timer that accumulates TSC ticks into a process-global
 * table; bench_profile prints the breakdown. Idle cycles that
 * OooCore::advance jumps without a tick() run no stage, so they are
 * counted apart (skipped()) and the stage rows cover ticked cycles.
 *
 * The timers sit inside the per-simulated-cycle hot loop, so the
 * instrumented build is measurably slower than release — enable it
 * only to attribute time (configure with -DTEMPEST_PROFILE=ON),
 * never for wall-clock numbers. With the option off the macros
 * expand to nothing and the hot loop is untouched.
 */

#ifndef TEMPEST_COMMON_PROFILER_HH
#define TEMPEST_COMMON_PROFILER_HH

#include <cstdint>
#include <cstdio>

#if defined(TEMPEST_PROFILE)
#if defined(__x86_64__)
#include <x86intrin.h>
#else
#include <chrono>
#endif
#endif

namespace tempest
{

/** Profiled simulator stages (order = report order). */
enum class ProfStage : int
{
    Fetch = 0,
    Dispatch,
    Issue,
    Writeback,
    Compact,
    Commit,
    Power,
    Thermal,
    Sensor,
    Dtm,
    NumStages,
};

inline const char*
profStageName(ProfStage s)
{
    switch (s) {
      case ProfStage::Fetch: return "fetch";
      case ProfStage::Dispatch: return "dispatch";
      case ProfStage::Issue: return "issue/select";
      case ProfStage::Writeback: return "writeback";
      case ProfStage::Compact: return "compact";
      case ProfStage::Commit: return "commit";
      case ProfStage::Power: return "power";
      case ProfStage::Thermal: return "thermal";
      case ProfStage::Sensor: return "sensor";
      case ProfStage::Dtm: return "dtm";
      default: return "?";
    }
}

#if defined(TEMPEST_PROFILE)

/** Process-global per-stage tick accumulators. */
class Profiler
{
  public:
    static Profiler&
    instance()
    {
        static Profiler p;
        return p;
    }

    static std::uint64_t
    now()
    {
#if defined(__x86_64__)
        // det:allow(profiling timestamp; compiled out unless TEMPEST_PROFILE)
        return __rdtsc();
#else
        // Fallback timestamp for non-x86 profiling builds.
        return static_cast<std::uint64_t>(
            // det:allow(profiling timestamp; compiled out unless TEMPEST_PROFILE)
            std::chrono::steady_clock::now()
                .time_since_epoch()
                .count());
#endif
    }

    void
    add(ProfStage stage, std::uint64_t ticks)
    {
        ticks_[static_cast<int>(stage)] += ticks;
        ++calls_[static_cast<int>(stage)];
    }

    /** Count idle cycles jumped without running any stage. */
    void
    addSkipped(std::uint64_t cycles)
    {
        skipped_ += cycles;
    }

    std::uint64_t
    skipped() const
    {
        return skipped_;
    }

    void
    reset()
    {
        for (int i = 0; i < kNum; ++i)
            ticks_[i] = calls_[i] = 0;
        skipped_ = 0;
    }

    /** Print a sorted-percentage breakdown table. */
    void
    report(std::FILE* out) const
    {
        std::uint64_t total = 0;
        for (int i = 0; i < kNum; ++i)
            total += ticks_[i];
        std::fprintf(out,
                     "%-12s %14s %7s %12s %12s\n", "stage",
                     "ticks", "share", "calls", "ticks/call");
        for (int i = 0; i < kNum; ++i) {
            if (calls_[i] == 0)
                continue;
            std::fprintf(
                out, "%-12s %14llu %6.2f%% %12llu %12.1f\n",
                profStageName(static_cast<ProfStage>(i)),
                static_cast<unsigned long long>(ticks_[i]),
                total ? 100.0 * static_cast<double>(ticks_[i]) /
                            static_cast<double>(total)
                      : 0.0,
                static_cast<unsigned long long>(calls_[i]),
                calls_[i] ? static_cast<double>(ticks_[i]) /
                                static_cast<double>(calls_[i])
                          : 0.0);
        }
    }

  private:
    static constexpr int kNum =
        static_cast<int>(ProfStage::NumStages);
    std::uint64_t ticks_[kNum] = {};
    std::uint64_t calls_[kNum] = {};
    std::uint64_t skipped_ = 0;
};

/** RAII timer attributing its lifetime to one stage. */
class ScopedStageTimer
{
  public:
    explicit ScopedStageTimer(ProfStage stage)
        : stage_(stage), start_(Profiler::now())
    {
    }
    ~ScopedStageTimer()
    {
        Profiler::instance().add(stage_,
                                 Profiler::now() - start_);
    }
    ScopedStageTimer(const ScopedStageTimer&) = delete;
    ScopedStageTimer& operator=(const ScopedStageTimer&) = delete;

  private:
    ProfStage stage_;
    std::uint64_t start_;
};

#define TEMPEST_PROF_CAT2(a, b) a##b
#define TEMPEST_PROF_CAT(a, b) TEMPEST_PROF_CAT2(a, b)
#define TEMPEST_PROF_SCOPE(stage)                                  \
    ::tempest::ScopedStageTimer TEMPEST_PROF_CAT(prof_timer_,      \
                                                 __LINE__)(stage)
#define TEMPEST_PROF_SKIPPED(cycles)                               \
    ::tempest::Profiler::instance().addSkipped(cycles)
#define TEMPEST_PROF_ENABLED 1

#else // !TEMPEST_PROFILE

#define TEMPEST_PROF_SCOPE(stage) ((void)0)
#define TEMPEST_PROF_SKIPPED(cycles) ((void)0)
#define TEMPEST_PROF_ENABLED 0

#endif // TEMPEST_PROFILE

} // namespace tempest

#endif // TEMPEST_COMMON_PROFILER_HH
