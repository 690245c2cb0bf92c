/**
 * @file
 * Shared pieces of the benchmark binary: the host clock, an
 * in-memory span log written as Chrome trace-event JSON, a small
 * JSON emitter for the raw record run.py reads, the shared round
 * and DTM records of the batch workloads, a standalone thermal
 * probe, and the process's peak resident set.
 */

#ifndef PERFBENCH_REPORT_HH
#define PERFBENCH_REPORT_HH

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "dtm/dtm_policy.hh"
#include "thermal/rc_model.hh"

namespace perfbench
{

/** Host seconds on the monotonic clock. */
inline double
now()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** Command-line inputs shared by every workload. */
struct Args
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    /** Chrome trace output (traced runs). */
    std::string traceOut;
    /** serve_mixed request schedule. */
    std::string schedule;
};

/**
 * Spans kept in memory and written at exit. Each span has a name,
 * host start/end, a parent span (-1 for roots) and the fork, step
 * or request id it belongs to.
 */
class SpanLog
{
  public:
    struct Span
    {
        std::string name;
        double start = 0;
        double end = 0;
        int parent = -1;
        std::uint64_t id = 0;
    };

    /** Open a span now; @return its index. */
    int begin(std::string name, std::uint64_t id, int parent = -1);
    void end(int span) { spans_[static_cast<std::size_t>(span)].end = now(); }

    /** Record a span whose times are already known. */
    int add(std::string name, double start, double end,
            std::uint64_t id, int parent = -1);

    /** Write every span as a Chrome trace "X" event. */
    void writeChromeTrace(const std::string& path) const;

    const std::vector<Span>& spans() const { return spans_; }

  private:
    std::vector<Span> spans_;
};

/** RAII span: begin on construction, end on destruction. */
class Scope
{
  public:
    Scope(SpanLog* log, const char* name, std::uint64_t id,
          int parent = -1)
        : log_(log), span_(log ? log->begin(name, id, parent) : -1)
    {}
    ~Scope()
    {
        if (log_)
            log_->end(span_);
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

    int index() const { return span_; }

  private:
    SpanLog* log_;
    int span_;
};

/** Append-only JSON object text (numbers keep all their digits). */
class JsonOut
{
  public:
    JsonOut& num(const std::string& key, double v);
    JsonOut& num(const std::string& key, std::uint64_t v);
    JsonOut& str(const std::string& key, const std::string& v);
    JsonOut& boolean(const std::string& key, bool v);
    JsonOut& nums(const std::string& key, const std::vector<double>& v);
    /** Embed already-rendered JSON. */
    JsonOut& raw(const std::string& key, const std::string& json);
    std::string done() const { return text_ + "}"; }

  private:
    void key(const std::string& k);
    std::string text_ = "{";
};

/** Quote and escape a string as JSON. */
std::string jsonString(const std::string& s);

/** "0x" + 16 hex digits. */
std::string hex(std::uint64_t v);

/** sum += s, field by field. */
void addDtm(tempest::DtmStats& sum, const tempest::DtmStats& s);

/** DTM event counts as JSON. */
JsonOut dtmJson(const tempest::DtmStats& s);

/**
 * A batch workload's rounds as a JSON array. `Round` has `wall`
 * (seconds), `opWalls` (seconds per fork or step), `failed`, and
 * `digest` (the round's result hash).
 */
template <typename Round>
std::string
roundsJson(const std::vector<Round>& rounds)
{
    std::string json = "[";
    for (const Round& r : rounds) {
        if (json.size() > 1)
            json += ',';
        JsonOut j;
        j.num("wall_s", r.wall)
            .nums("op_walls", r.opWalls)
            .num("failed", r.failed)
            .str("digest", hex(r.digest));
        json += j.done();
    }
    return json + "]";
}

/**
 * Call `round(k)` for k = 0, 1, ... for about `seconds`: at least
 * once, and again while half of the last round still fits, so a run
 * ends within half a round of `seconds`. `round` returns a record
 * with a `wall` in seconds.
 */
template <typename Fn>
auto
repeatRounds(double seconds, Fn&& round)
{
    std::vector<decltype(round(std::size_t{0}))> rounds;
    const double start = now();
    do {
        rounds.push_back(round(rounds.size()));
    } while (now() - start + rounds.back().wall / 2 < seconds);
    return rounds;
}

/** Peak resident set of this process (VmHWM), in kB. */
std::uint64_t peakRssKb();

/**
 * The CPUs this process may run on, as they were at the first call
 * (before any pinning below).
 */
const std::vector<int>& usableCpus();

/** Restrict thread `tid` (0: the calling thread) to `cpus`. */
void pinThread(int tid, const std::vector<int>& cpus);

/**
 * Move the calling thread to the usable CPU `k` names (mod their
 * count). The host runs this machine's virtual CPUs at speeds that
 * differ by up to ~30% at one moment and change over minutes, and a
 * single busy thread stays on one of them, so batch workloads rotate
 * their repeats over every CPU and keep each op's fastest repeat.
 */
void rotateCpu(std::size_t k);

/** Standalone RcModel timings on one floorplan. */
struct ThermalProbe
{
    double stepUs = 0;       ///< median step at the interval dt
    double propagatorMs = 0; ///< median step at a new dt
};

/**
 * Time a fresh RcModel on `plan`: steps at the sampling interval's
 * dt (propagator cached) and steps at new dts (each builds one).
 */
ThermalProbe probeThermal(const tempest::Floorplan& plan,
                          const tempest::ThermalParams& params,
                          std::uint64_t interval_cycles,
                          double frequency_hz);

/** Median of a copy of `v` (0 when empty). */
double median(std::vector<double> v);

int runPaperSweep(const Args& args);
int runServeMixed(const Args& args);

} // namespace perfbench

#endif // PERFBENCH_REPORT_HH
