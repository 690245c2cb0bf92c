#include "report.hh"

#include <algorithm>
#include <cerrno>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <stdexcept>

#include <sched.h>

namespace perfbench
{

int
SpanLog::begin(std::string name, std::uint64_t id, int parent)
{
    const double t = now();
    return add(std::move(name), t, t, id, parent);
}

int
SpanLog::add(std::string name, double start, double end,
             std::uint64_t id, int parent)
{
    spans_.push_back(Span{std::move(name), start, end, parent, id});
    return static_cast<int>(spans_.size()) - 1;
}

void
SpanLog::writeChromeTrace(const std::string& path) const
{
    std::ofstream out(path);
    if (!out)
        throw std::runtime_error("cannot write trace " + path);
    const double origin = spans_.empty() ? 0.0 : spans_.front().start;
    out << "{\"traceEvents\":[";
    char buf[256];
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span& s = spans_[i];
        std::snprintf(buf, sizeof(buf),
                      "%s\n{\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                      "\"ts\":%.3f,\"dur\":%.3f,\"name\":",
                      i ? "," : "", (s.start - origin) * 1e6,
                      (s.end - s.start) * 1e6);
        out << buf << jsonString(s.name);
        std::snprintf(buf, sizeof(buf),
                      ",\"args\":{\"span\":%zu,\"parent\":%d,"
                      "\"id\":%" PRIu64 "}}",
                      i, s.parent, s.id);
        out << buf;
    }
    out << "\n]}\n";
}

void
JsonOut::key(const std::string& k)
{
    if (text_.size() > 1)
        text_ += ',';
    text_ += jsonString(k);
    text_ += ':';
}

JsonOut&
JsonOut::num(const std::string& k, double v)
{
    key(k);
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    text_ += buf;
    return *this;
}

JsonOut&
JsonOut::num(const std::string& k, std::uint64_t v)
{
    key(k);
    text_ += std::to_string(v);
    return *this;
}

JsonOut&
JsonOut::str(const std::string& k, const std::string& v)
{
    key(k);
    text_ += jsonString(v);
    return *this;
}

JsonOut&
JsonOut::boolean(const std::string& k, bool v)
{
    key(k);
    text_ += v ? "true" : "false";
    return *this;
}

JsonOut&
JsonOut::nums(const std::string& k, const std::vector<double>& v)
{
    key(k);
    text_ += '[';
    char buf[64];
    for (std::size_t i = 0; i < v.size(); ++i) {
        std::snprintf(buf, sizeof(buf), "%s%.17g", i ? "," : "", v[i]);
        text_ += buf;
    }
    text_ += ']';
    return *this;
}

JsonOut&
JsonOut::raw(const std::string& k, const std::string& json)
{
    key(k);
    text_ += json;
    return *this;
}

std::string
jsonString(const std::string& s)
{
    std::string out = "\"";
    for (const char c : s) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof(buf), "\\u%04x", c);
            out += buf;
        } else {
            out += c;
        }
    }
    return out + "\"";
}

std::string
hex(std::uint64_t v)
{
    char buf[24];
    std::snprintf(buf, sizeof(buf), "0x%016" PRIx64, v);
    return buf;
}

void
addDtm(tempest::DtmStats& sum, const tempest::DtmStats& s)
{
    sum.iqToggles += s.iqToggles;
    sum.aluTurnoffEvents += s.aluTurnoffEvents;
    sum.fpAdderTurnoffEvents += s.fpAdderTurnoffEvents;
    sum.regfileTurnoffEvents += s.regfileTurnoffEvents;
    sum.globalStalls += s.globalStalls;
    sum.fetchThrottleEvents += s.fetchThrottleEvents;
}

JsonOut
dtmJson(const tempest::DtmStats& s)
{
    JsonOut j;
    j.num("global_stalls", s.globalStalls)
        .num("iq_toggles", s.iqToggles)
        .num("throttle_events", s.fetchThrottleEvents)
        .num("alu_turnoffs", s.aluTurnoffEvents)
        .num("regfile_turnoffs", s.regfileTurnoffEvents);
    return j;
}

std::uint64_t
peakRssKb()
{
    std::ifstream in("/proc/self/status");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("VmHWM:", 0) == 0)
            return std::stoull(line.substr(6));
    }
    return 0;
}

const std::vector<int>&
usableCpus()
{
    static const std::vector<int> cpus = [] {
        cpu_set_t set;
        std::vector<int> v;
        if (::sched_getaffinity(0, sizeof(set), &set) == 0) {
            for (int c = 0; c < CPU_SETSIZE; ++c) {
                if (CPU_ISSET(c, &set))
                    v.push_back(c);
            }
        }
        return v;
    }();
    return cpus;
}

void
pinThread(int tid, const std::vector<int>& cpus)
{
    cpu_set_t set;
    CPU_ZERO(&set);
    for (const int c : cpus)
        CPU_SET(c, &set);
    if (::sched_setaffinity(tid, sizeof(set), &set) != 0)
        throw std::runtime_error(std::string("sched_setaffinity: ") +
                                 std::strerror(errno));
}

void
rotateCpu(std::size_t k)
{
    const std::vector<int>& cpus = usableCpus();
    if (!cpus.empty())
        pinThread(0, {cpus[k % cpus.size()]});
}

ThermalProbe
probeThermal(const tempest::Floorplan& plan,
             const tempest::ThermalParams& params,
             std::uint64_t interval_cycles, double frequency_hz)
{
    tempest::RcModel rc(plan, params);
    rc.setPowers(std::vector<double>(
        static_cast<std::size_t>(rc.numBlocks()), 1.0));
    const double dt =
        static_cast<double>(interval_cycles) / frequency_hz;
    std::vector<double> builds;
    std::vector<double> steps;
    for (int i = 0; i < 8; ++i) {
        const double t0 = now();
        rc.step(dt * (1.0 - i / 64.0));
        builds.push_back(now() - t0);
    }
    for (int i = 0; i < 200; ++i) {
        const double t0 = now();
        rc.step(dt);
        steps.push_back(now() - t0);
    }
    return {median(steps) * 1e6, median(builds) * 1e3};
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

} // namespace perfbench
