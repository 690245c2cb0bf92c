#include "sim/paper.hh"

#include <cmath>
#include <cstdio>
#include <iterator>
#include <string_view>

#include "common/log.hh"
#include "sim/experiment.hh"
#include "workload/profile.hh"

namespace tempest
{
namespace paper
{

using namespace experiments;

namespace
{

/** Arithmetic-mean percent speedup over paired result sets. */
double
averageSpeedup(const std::vector<double>& base,
               const std::vector<double>& improved)
{
    double sum = 0;
    for (std::size_t i = 0; i < base.size(); ++i)
        sum += 100.0 * (improved[i] / base[i] - 1.0);
    return base.empty() ? 0.0
                        : sum / static_cast<double>(base.size());
}

/** `v` as printf renders it under `format`. */
std::string
cell(const char* format, double v)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), format, v);
    return buf;
}

double
stallFraction(const SimResult& r)
{
    return r.cycles ? static_cast<double>(r.stallCycles) /
                          static_cast<double>(r.cycles)
                    : 0.0;
}

// ---- Table 4 / Figure 6: issue queue ----

const char* const kTable4Benchmarks[] = {"art", "facerec", "mesa"};

void
renderTable4(const Results& results)
{
    std::vector<std::vector<std::string>> rows;
    rows.push_back({"Benchmark", "Technique", "Tail (K)",
                    "Head (K)"});
    char buf[32];
    for (const char* b : kTable4Benchmarks) {
        for (const char* cfg : {"toggling", "base"}) {
            const SimResult& r = results.get(cfg, b);
            std::vector<std::string> row;
            row.push_back(b);
            row.push_back(cfg == std::string("toggling")
                              ? "Activity-toggling"
                              : "Base");
            std::snprintf(buf, sizeof(buf), "%.1f",
                          r.block("IntQ1").avg);
            row.push_back(buf);
            std::snprintf(buf, sizeof(buf), "%.1f",
                          r.block("IntQ0").avg);
            row.push_back(buf);
            rows.push_back(row);
        }
    }
    std::printf("\n== Table 4: average temp. of issue-queue "
                "halves (IQ-constrained) ==\n%s\n",
                renderTable(rows).c_str());
}

void
renderFig6(const Results& results)
{
    std::vector<std::vector<std::string>> rows;
    rows.push_back({"Benchmark", "Base IPC", "Toggling IPC",
                    "Speedup %", "Toggles", "BaseStall%"});
    char buf[32];
    std::vector<double> base_ipc, tog_ipc;
    std::vector<double> base_c, tog_c; // constrained subset
    for (const auto& b : spec2000Names()) {
        const SimResult& base = results.get("base", b);
        const SimResult& tog = results.get("toggling", b);
        std::vector<std::string> row{b};
        std::snprintf(buf, sizeof(buf), "%.2f", base.ipc);
        row.push_back(buf);
        std::snprintf(buf, sizeof(buf), "%.2f", tog.ipc);
        row.push_back(buf);
        std::snprintf(buf, sizeof(buf), "%+.1f",
                      100.0 * (tog.ipc / base.ipc - 1.0));
        row.push_back(buf);
        std::snprintf(buf, sizeof(buf), "%llu",
                      static_cast<unsigned long long>(
                          tog.dtm.iqToggles));
        row.push_back(buf);
        std::snprintf(buf, sizeof(buf), "%.1f",
                      100.0 * base.stallCycles / base.cycles);
        row.push_back(buf);
        rows.push_back(row);
        base_ipc.push_back(base.ipc);
        tog_ipc.push_back(tog.ipc);
        if (base.dtm.globalStalls > 0) {
            base_c.push_back(base.ipc);
            tog_c.push_back(tog.ipc);
        }
    }
    std::printf("\n== Figure 6: IQ-constrained IPC, activity "
                "toggling vs base ==\n%s\n",
                renderTable(rows).c_str());
    std::printf("average speedup, all %zu benchmarks: %+.1f%%\n",
                base_ipc.size(), averageSpeedup(base_ipc, tog_ipc));
    std::printf("average speedup, %zu issue-queue-constrained "
                "benchmarks: %+.1f%%\n",
                base_c.size(), averageSpeedup(base_c, tog_c));
}

// ---- Table 5 / Figure 7: ALUs ----

const char* const kTable5Benchmarks[] = {"parser", "perlbmk"};
const char* const kAluConfigs[] = {"round-robin", "fine-grain",
                                   "base"};

void
renderTable5(const Results& results)
{
    std::vector<std::vector<std::string>> rows;
    rows.push_back({"Benchmark", "Technique", "IPC", "ALU0 (K)",
                    "ALU1 (K)", "ALU2 (K)", "ALU3 (K)",
                    "ALU4 (K)", "ALU5 (K)"});
    char buf[32];
    for (const char* b : kTable5Benchmarks) {
        for (const char* cfg : kAluConfigs) {
            const SimResult& r = results.get(cfg, b);
            std::vector<std::string> row{b, cfg};
            std::snprintf(buf, sizeof(buf), "%.1f", r.ipc);
            row.push_back(buf);
            for (int a = 0; a < 6; ++a) {
                std::snprintf(
                    buf, sizeof(buf), "%.1f",
                    r.block("IntExec" + std::to_string(a)).avg);
                row.push_back(buf);
            }
            rows.push_back(row);
        }
    }
    std::printf("\n== Table 5: average integer-ALU temperatures "
                "(ALU-constrained) ==\n%s\n",
                renderTable(rows).c_str());
}

void
renderFig7(const Results& results)
{
    std::vector<std::vector<std::string>> rows;
    rows.push_back({"Benchmark", "RR IPC", "FG IPC", "Base IPC",
                    "FG vs base %", "RR vs FG %"});
    char buf[32];
    std::vector<double> base, fg, rr, base_c, fg_c;
    for (const auto& b : spec2000Names()) {
        const SimResult& r_rr = results.get("round-robin", b);
        const SimResult& r_fg = results.get("fine-grain", b);
        const SimResult& r_b = results.get("base", b);
        std::vector<std::string> row{b};
        for (double v : {r_rr.ipc, r_fg.ipc, r_b.ipc}) {
            std::snprintf(buf, sizeof(buf), "%.2f", v);
            row.push_back(buf);
        }
        std::snprintf(buf, sizeof(buf), "%+.1f",
                      100.0 * (r_fg.ipc / r_b.ipc - 1.0));
        row.push_back(buf);
        std::snprintf(buf, sizeof(buf), "%+.1f",
                      100.0 * (r_rr.ipc / r_fg.ipc - 1.0));
        row.push_back(buf);
        rows.push_back(row);
        base.push_back(r_b.ipc);
        fg.push_back(r_fg.ipc);
        rr.push_back(r_rr.ipc);
        if (r_b.dtm.globalStalls > 0) {
            base_c.push_back(r_b.ipc);
            fg_c.push_back(r_fg.ipc);
        }
    }
    std::printf("\n== Figure 7: ALU-constrained IPC ==\n%s\n",
                renderTable(rows).c_str());
    std::printf("fine-grain turnoff vs base, all %zu benchmarks: "
                "%+.1f%%\n",
                base.size(), averageSpeedup(base, fg));
    std::printf("fine-grain turnoff vs base, %zu ALU-constrained "
                "benchmarks: %+.1f%%\n",
                base_c.size(), averageSpeedup(base_c, fg_c));
    std::printf("round-robin vs fine-grain, all benchmarks: "
                "%+.1f%%\n",
                averageSpeedup(fg, rr));
}

// ---- Table 6 / Figure 8: register file ----

struct Combo
{
    const char* name;
    PortMapping mapping;
    bool fineGrain;
};

/** Table 6's tags spell out "fine-grain"; Figure 8's say "FG". */
const Combo kTable6Combos[] = {
    {"priority+fine-grain", PortMapping::Priority, true},
    {"balanced+fine-grain", PortMapping::Balanced, true},
    {"balanced-only", PortMapping::Balanced, false},
    {"priority-only", PortMapping::Priority, false},
};

const Combo kFig8Combos[] = {
    {"priority+FG", PortMapping::Priority, true},
    {"balanced+FG", PortMapping::Balanced, true},
    {"balanced-only", PortMapping::Balanced, false},
    {"priority-only", PortMapping::Priority, false},
};

std::vector<std::pair<std::string, SimConfig>>
comboConfigs(const Combo (&combos)[4])
{
    std::vector<std::pair<std::string, SimConfig>> configs;
    for (const Combo& combo : combos) {
        configs.emplace_back(
            combo.name,
            regfileConfig(combo.mapping, combo.fineGrain));
    }
    return configs;
}

void
renderTable6(const Results& results)
{
    std::vector<std::vector<std::string>> rows;
    rows.push_back({"Technique", "IPC", "Copy 0 (K)",
                    "Copy 1 (K)", "Turnoffs"});
    char buf[32];
    for (const Combo& combo : kTable6Combos) {
        const SimResult& r = results.get(combo.name, "eon");
        std::vector<std::string> row{combo.name};
        std::snprintf(buf, sizeof(buf), "%.1f", r.ipc);
        row.push_back(buf);
        std::snprintf(buf, sizeof(buf), "%.1f",
                      r.block("IntReg0").avg);
        row.push_back(buf);
        std::snprintf(buf, sizeof(buf), "%.1f",
                      r.block("IntReg1").avg);
        row.push_back(buf);
        std::snprintf(buf, sizeof(buf), "%llu",
                      static_cast<unsigned long long>(
                          r.dtm.regfileTurnoffEvents));
        row.push_back(buf);
        rows.push_back(row);
    }
    std::printf("\n== Table 6: register-file copy temperatures "
                "for eon (regfile-constrained) ==\n%s\n",
                renderTable(rows).c_str());
}

void
renderFig8(const Results& results)
{
    std::vector<std::vector<std::string>> rows;
    rows.push_back({"Benchmark", "prio+FG", "bal+FG",
                    "bal-only", "prio-only"});
    char buf[32];
    std::vector<double> pf, bf, bo, po, pf_c, bo_c, po_c;
    std::vector<double> bf_c;
    for (const auto& b : spec2000Names()) {
        const double v_pf = results.get("priority+FG", b).ipc;
        const double v_bf = results.get("balanced+FG", b).ipc;
        const double v_bo = results.get("balanced-only", b).ipc;
        const double v_po = results.get("priority-only", b).ipc;
        std::vector<std::string> row{b};
        for (double v : {v_pf, v_bf, v_bo, v_po}) {
            std::snprintf(buf, sizeof(buf), "%.2f", v);
            row.push_back(buf);
        }
        rows.push_back(row);
        pf.push_back(v_pf);
        bf.push_back(v_bf);
        bo.push_back(v_bo);
        po.push_back(v_po);
        if (results.get("priority-only", b).dtm.globalStalls > 0) {
            pf_c.push_back(v_pf);
            bf_c.push_back(v_bf);
            bo_c.push_back(v_bo);
            po_c.push_back(v_po);
        }
    }
    std::printf("\n== Figure 8: regfile-constrained IPC, four "
                "configurations ==\n%s\n",
                renderTable(rows).c_str());
    std::printf(
        "balanced-only vs priority-only: all %+.1f%%, "
        "constrained %+.1f%% (%zu benchmarks)\n",
        averageSpeedup(po, bo), averageSpeedup(po_c, bo_c),
        po_c.size());
    std::printf("priority+FG vs priority-only: all %+.1f%%, "
                "constrained %+.1f%%\n",
                averageSpeedup(po, pf), averageSpeedup(po_c, pf_c));
    std::printf("priority+FG vs balanced-only: all %+.1f%%, "
                "constrained %+.1f%%\n",
                averageSpeedup(bo, pf), averageSpeedup(bo_c, pf_c));
    std::printf("priority+FG vs balanced+FG: all %+.1f%%, "
                "constrained %+.1f%%\n",
                averageSpeedup(bf, pf), averageSpeedup(bf_c, pf_c));
}

// ---- Ablations (beyond the paper) ----

/** Tag of the i-th point of a parameter sweep. */
std::string
tagFor(const char* name, std::size_t i)
{
    return name + std::string("#") + std::to_string(i);
}

/**
 * Sweep `values` of one parameter: one tagged configuration per
 * value, `set` applying the value to a copy of `base`.
 */
template <typename T, std::size_t N, typename Set>
void
sweep(std::vector<std::pair<std::string, SimConfig>>& configs,
      const char* name, const T (&values)[N], const SimConfig& base,
      Set set)
{
    for (std::size_t i = 0; i < N; ++i) {
        SimConfig config = base;
        set(config, values[i]);
        configs.emplace_back(tagFor(name, i), config);
    }
}

/**
 * One row per sweep point: the point's value (%g), then IPC, stall
 * fraction, stall count and `counter` — the values the old
 * per-ablation benches reported.
 */
template <typename T, std::size_t N>
void
renderSweep(const Results& results, const char* title,
            const char* name, const char* benchmark,
            const T (&values)[N], const char* value_header,
            const char* counter_header,
            double (*counter)(const SimResult&))
{
    std::vector<std::vector<std::string>> rows;
    rows.push_back({value_header, "IPC", "Stall frac", "Stalls",
                    counter_header});
    for (std::size_t i = 0; i < N; ++i) {
        const SimResult& r = results.get(tagFor(name, i), benchmark);
        rows.push_back(
            {cell("%g", static_cast<double>(values[i])),
             cell("%g", r.ipc), cell("%g", stallFraction(r)),
             cell("%g", static_cast<double>(r.dtm.globalStalls)),
             cell("%g", counter(r))});
    }
    std::printf("\n== %s (%s) ==\n%s\n", title, benchmark,
                renderTable(rows).c_str());
}

const double kToggleDeltas[] = {0.1, 0.25, 0.5, 1.0, 2.0, 4.0};
const double kToggleProximities[] = {1.0, 3.0, 1e9};

double
iqToggles(const SimResult& r)
{
    return static_cast<double>(r.dtm.iqToggles);
}

void
renderToggleThreshold(const Results& results)
{
    renderSweep(results,
                "Ablation: activity-toggling differential "
                "threshold",
                "delta", "perlbmk", kToggleDeltas, "Delta (K)",
                "Toggles", iqToggles);
    renderSweep(results,
                "Ablation: activity-toggling proximity gate",
                "proximity", "perlbmk", kToggleProximities,
                "Proximity (K)", "Toggles", iqToggles);
}

const double kLongWire[] = {0.0123e-9, 0.015e-9, 0.03e-9,
                            0.0687e-9};

void
renderLongWire(const Results& results)
{
    std::vector<std::vector<std::string>> rows;
    rows.push_back({"Long wire (nJ)", "Base IPC", "Toggling IPC",
                    "Speedup %"});
    for (std::size_t i = 0; i < std::size(kLongWire); ++i) {
        const SimResult& rb = results.get(tagFor("base", i), "eon");
        const SimResult& rt =
            results.get(tagFor("toggling", i), "eon");
        rows.push_back({cell("%g", kLongWire[i] * 1e9),
                        cell("%g", rb.ipc), cell("%g", rt.ipc),
                        cell("%g", 100.0 * (rt.ipc / rb.ipc - 1.0))});
    }
    std::printf("\n== Ablation: long-compaction wire energy "
                "(eon) ==\n%s\n",
                renderTable(rows).c_str());
}

const std::uint64_t kSampleIntervals[] = {12500, 25000, 50000,
                                          100000, 200000};
const double kHysteresis[] = {0.5, 1.5, 3.0, 6.0};

void
renderSampling(const Results& results)
{
    renderSweep(results, "Ablation: sensor sampling interval",
                "interval", "perlbmk", kSampleIntervals,
                "Interval (cycles)", "Max ALU0 (K)",
                [](const SimResult& r) {
                    return r.block("IntExec0").max;
                });
    renderSweep(results, "Ablation: re-enable hysteresis",
                "hysteresis", "perlbmk", kHysteresis,
                "Hysteresis (K)", "ALU turnoffs",
                [](const SimResult& r) {
                    return static_cast<double>(
                        r.dtm.aluTurnoffEvents);
                });
}

std::vector<Section>
makeSections()
{
    const std::vector<std::string>& all = spec2000Names();
    constexpr std::uint64_t kTableCycles = 16'000'000;
    constexpr std::uint64_t kSweepCycles = 8'000'000;

    std::vector<std::pair<std::string, SimConfig>> toggle;
    sweep(toggle, "delta", kToggleDeltas, iqToggling(),
          [](SimConfig& c, double v) { c.dtm.toggleDeltaK = v; });
    sweep(toggle, "proximity", kToggleProximities, iqToggling(),
          [](SimConfig& c, double v) {
              c.dtm.toggleProximityK = v;
          });

    std::vector<std::pair<std::string, SimConfig>> long_wire;
    const auto set_wire = [](SimConfig& c, double v) {
        c.energy.iqLongCompaction = v;
    };
    sweep(long_wire, "base", kLongWire, iqBase(), set_wire);
    sweep(long_wire, "toggling", kLongWire, iqToggling(), set_wire);

    std::vector<std::pair<std::string, SimConfig>> sampling;
    sweep(sampling, "interval", kSampleIntervals, aluFineGrain(),
          [](SimConfig& c, std::uint64_t v) {
              c.sampleIntervalCycles = v;
          });
    sweep(sampling, "hysteresis", kHysteresis, aluFineGrain(),
          [](SimConfig& c, double v) {
              c.dtm.reenableHysteresisK = v;
          });

    const std::vector<std::pair<std::string, SimConfig>> iq = {
        {"base", iqBase()}, {"toggling", iqToggling()}};
    const std::vector<std::pair<std::string, SimConfig>> alu = {
        {"round-robin", aluRoundRobin()},
        {"fine-grain", aluFineGrain()},
        {"base", aluBase()}};
    return {
        {"table4", iq,
         {std::begin(kTable4Benchmarks), std::end(kTable4Benchmarks)},
         kTableCycles, renderTable4},
        {"fig6", iq, all, kSweepCycles, renderFig6},
        {"table5", alu,
         {std::begin(kTable5Benchmarks), std::end(kTable5Benchmarks)},
         kTableCycles, renderTable5},
        {"fig7", alu, all, kSweepCycles, renderFig7},
        {"table6", comboConfigs(kTable6Combos), {"eon"},
         kTableCycles, renderTable6},
        {"fig8", comboConfigs(kFig8Combos), all, kSweepCycles,
         renderFig8},
        {"toggle-threshold", toggle, {"perlbmk"}, kSweepCycles,
         renderToggleThreshold},
        {"long-wire", long_wire, {"eon"}, kSweepCycles,
         renderLongWire},
        {"sampling", sampling, {"perlbmk"}, kSweepCycles,
         renderSampling},
    };
}

// ---- Claims ----

/** The check `measured op bound`. */
Check
check(std::string what, double measured, const char* op,
      double bound)
{
    const std::string_view o = op;
    const bool pass = o == ">"    ? measured > bound
                      : o == ">=" ? measured >= bound
                      : o == "<"  ? measured < bound
                      : o == "<=" ? measured <= bound
                                  : measured == bound;
    return {std::move(what), measured, op, bound, pass};
}

double
count(std::uint64_t n)
{
    return static_cast<double>(n);
}

/** Claim runs are 12M cycles, or a fixed fraction of that. */
constexpr std::uint64_t kCycles = 12'000'000;

Job
iqBaseJob(const char* b, std::uint64_t c)
{
    return singleCoreJob("iq-base", iqBase(), b, c);
}

Job
iqTogglingJob(const char* b, std::uint64_t c)
{
    return singleCoreJob("iq-toggling", iqToggling(), b, c);
}

Job
aluBaseJob(const char* b, std::uint64_t c)
{
    return singleCoreJob("alu-base", aluBase(), b, c);
}

Job
aluFineGrainJob(const char* b, std::uint64_t c)
{
    return singleCoreJob("alu-fine-grain", aluFineGrain(), b, c);
}

Job
regfileJob(PortMapping mapping, bool fine_grain, std::uint64_t c)
{
    const char* tag =
        mapping == PortMapping::Priority
            ? (fine_grain ? "priority+FG" : "priority-only")
            : (fine_grain ? "balanced+FG" : "balanced-only");
    return singleCoreJob(tag, regfileConfig(mapping, fine_grain),
                         "eon", c);
}

std::vector<Claim>
makeClaims()
{
    std::vector<Claim> out;

    // §3.2's criterion: under a hot workload, the constrained
    // resource is the hottest backend block of its floorplan.
    out.push_back(
        {"ConstrainedFloorplansPinTheirResource",
         {iqBaseJob("eon", 6'000'000), aluBaseJob("eon", 6'000'000),
          regfileJob(PortMapping::Priority, false, 6'000'000)},
         [](const std::vector<SimResult>& r) {
             const auto max = [&](std::size_t i, const char* b) {
                 return r[i].block(b).max;
             };
             return std::vector<Check>{
                 check("iq floorplan: IntQ1 max vs IntExec0 max",
                       max(0, "IntQ1"), ">", max(0, "IntExec0")),
                 check("iq floorplan: IntQ1 max vs IntReg0 max",
                       max(0, "IntQ1"), ">", max(0, "IntReg0")),
                 check("alu floorplan: IntExec0 max vs IntQ1 max",
                       max(1, "IntExec0"), ">", max(1, "IntQ1")),
                 check("alu floorplan: IntExec0 max vs IntReg0 max",
                       max(1, "IntExec0"), ">", max(1, "IntReg0")),
                 check("regfile floorplan: IntReg0 max vs IntQ1 max",
                       max(2, "IntReg0"), ">", max(2, "IntQ1")),
                 check("regfile floorplan: IntReg0 max vs IntExec0 max",
                       max(2, "IntReg0"), ">", max(2, "IntExec0")),
             };
         }});

    // Table 4's base rows: the tail half leads the head half.
    out.push_back(
        {"TailRunsHotterThanHeadInBase",
         {iqBaseJob("eon", kCycles)},
         [](const std::vector<SimResult>& r) {
             return std::vector<Check>{
                 check("eon base: IntQ1 avg vs IntQ0 avg + 0.3 K",
                       r[0].block("IntQ1").avg, ">",
                       r[0].block("IntQ0").avg + 0.3)};
         }});

    // Table 4's activity-toggling rows: halves equalize.
    out.push_back(
        {"TogglingEqualizesHalves",
         {iqBaseJob("eon", kCycles), iqTogglingJob("eon", kCycles)},
         [](const std::vector<SimResult>& r) {
             const auto gap = [](const SimResult& s) {
                 return s.block("IntQ1").avg - s.block("IntQ0").avg;
             };
             return std::vector<Check>{
                 check("eon: |toggling IQ half gap| vs |base gap| (K)",
                       std::abs(gap(r[1])), "<", std::abs(gap(r[0]))),
                 check("eon toggling: IQ toggles",
                       count(r[1].dtm.iqToggles), ">", 0)};
         }});

    // Toggling never hurts, helps the constrained benchmarks, and
    // leaves unconstrained ones untouched.
    out.push_back(
        {"TogglingNeverHurtsAndHelpsConstrained",
         {iqBaseJob("eon", kCycles), iqTogglingJob("eon", kCycles),
          iqBaseJob("perlbmk", kCycles),
          iqTogglingJob("perlbmk", kCycles),
          iqBaseJob("art", kCycles / 3),
          iqTogglingJob("art", kCycles / 3)},
         [](const std::vector<SimResult>& r) {
             std::vector<Check> checks;
             for (std::size_t i = 0; i < 4; i += 2) {
                 const SimResult& base = r[i];
                 const SimResult& tog = r[i + 1];
                 const std::string b = base.benchmark;
                 checks.push_back(
                     check(b + ": toggling IPC vs 0.995 x base IPC",
                           tog.ipc, ">=", base.ipc * 0.995));
                 checks.push_back(
                     check(b + ": toggling stall cycles vs base + 1% "
                               "of the run",
                           count(tog.stallCycles), "<=",
                           count(base.stallCycles + kCycles / 100)));
             }
             checks.push_back(check("art: toggling IPC vs base IPC",
                                    r[5].ipc, "==", r[4].ipc));
             return checks;
         }});

    // §4.2: large speedups on ALU-constrained benchmarks.
    out.push_back(
        {"FineGrainTurnoffBeatsBase",
         {aluBaseJob("perlbmk", kCycles),
          aluFineGrainJob("perlbmk", kCycles)},
         [](const std::vector<SimResult>& r) {
             const SimResult& base = r[0];
             const SimResult& fg = r[1];
             return std::vector<Check>{
                 check("perlbmk: fine-grain IPC vs 1.10 x base IPC",
                       fg.ipc, ">", base.ipc * 1.10),
                 check("perlbmk: fine-grain stall cycles vs base",
                       count(fg.stallCycles), "<",
                       count(base.stallCycles)),
                 check("perlbmk fine-grain: ALU turnoffs",
                       count(fg.dtm.aluTurnoffEvents), ">", 0)};
         }});

    // Figure 7: fine-grain turnoff approaches ideal round-robin.
    out.push_back(
        {"RoundRobinIsCloseToFineGrain",
         {aluFineGrainJob("perlbmk", kCycles),
          singleCoreJob("alu-round-robin", aluRoundRobin(),
                        "perlbmk", kCycles)},
         [](const std::vector<SimResult>& r) {
             const double fg = r[0].ipc;
             const double rr = r[1].ipc;
             return std::vector<Check>{
                 check("perlbmk: |fine-grain IPC - round-robin IPC| vs "
                       "0.15 x round-robin IPC",
                       std::abs(fg - rr), "<=", 0.15 * rr)};
         }});

    // Table 5's parser row: no overheating, no turnoffs, same IPC.
    out.push_back(
        {"UnconstrainedBenchmarkUnaffected",
         {aluBaseJob("parser", kCycles / 2),
          aluFineGrainJob("parser", kCycles / 2)},
         [](const std::vector<SimResult>& r) {
             return std::vector<Check>{
                 check("parser: fine-grain IPC vs base IPC",
                       r[1].ipc, "==", r[0].ipc),
                 check("parser fine-grain: ALU turnoffs",
                       count(r[1].dtm.aluTurnoffEvents), "==", 0)};
         }});

    // Table 5: ALU0 runs several K hotter than ALU5 under static
    // priority even without overheating (parser).
    out.push_back(
        {"BaseAluTemperatureGradient",
         {aluBaseJob("parser", kCycles / 2)},
         [](const std::vector<SimResult>& r) {
             return std::vector<Check>{
                 check("parser base: IntExec0 avg vs IntExec5 avg + 2 K",
                       r[0].block("IntExec0").avg, ">",
                       r[0].block("IntExec5").avg + 2.0)};
         }});

    // §4.3 / Figure 8 on eon: priority+turnoff >= balanced+turnoff
    // >= balanced-only >= priority-only.
    out.push_back(
        {"PaperOrderingHolds",
         {regfileJob(PortMapping::Priority, false, kCycles),
          regfileJob(PortMapping::Balanced, false, kCycles),
          regfileJob(PortMapping::Balanced, true, kCycles),
          regfileJob(PortMapping::Priority, true, kCycles)},
         [](const std::vector<SimResult>& r) {
             const double po = r[0].ipc;
             const double bo = r[1].ipc;
             const double bf = r[2].ipc;
             const double pf = r[3].ipc;
             return std::vector<Check>{
                 check("eon: priority+FG IPC vs 0.99 x balanced+FG",
                       pf, ">=", bf * 0.99),
                 // Stop-go quantization adds a few percent of
                 // noise at this run length.
                 check("eon: balanced+FG IPC vs 0.96 x balanced-only",
                       bf, ">=", bo * 0.96),
                 check("eon: balanced-only IPC vs 0.99 x priority-only",
                       bo, ">=", po * 0.99),
                 // And the combination is a strict improvement
                 // over the unmanaged priority mapping. The margin
                 // is small at this run length: cooling stalls are
                 // quantized to 1.68M-cycle events, so whether the
                 // last one lands inside the 12M-cycle window
                 // moves IPC by ~14%; Table 6 and Figure 8 show a
                 // >5% gap.
                 check("eon: priority+FG IPC vs 1.01 x priority-only",
                       pf, ">", po * 1.01)};
         }});

    // Table 6: under priority mapping copy 0 leads copy 1; under
    // balanced mapping the copies are close.
    out.push_back(
        {"PriorityMappingConcentratesHeat",
         {regfileJob(PortMapping::Priority, false, kCycles / 2),
          regfileJob(PortMapping::Balanced, false, kCycles / 2)},
         [](const std::vector<SimResult>& r) {
             const auto gap = [](const SimResult& s) {
                 return s.block("IntReg0").avg -
                        s.block("IntReg1").avg;
             };
             return std::vector<Check>{
                 check("eon priority-only: IntReg0 - IntReg1 avg (K)",
                       gap(r[0]), ">", 0.5),
                 check("eon: |balanced-only copy gap| vs "
                       "priority-only gap (K)",
                       std::abs(gap(r[1])), "<", gap(r[0]))};
         }});

    out.push_back(
        {"TurnoffEventsCountedUnderPressure",
         {regfileJob(PortMapping::Priority, true, kCycles)},
         [](const std::vector<SimResult>& r) {
             return std::vector<Check>{
                 check("eon priority+FG: regfile turnoffs",
                       count(r[0].dtm.regfileTurnoffEvents), ">", 0)};
         }});
    return out;
}

} // namespace

Results::Results(std::span<const Outcome> outcomes)
{
    for (const Outcome& o : outcomes)
        results_[o.tag + "/" + o.benchmark] = &o.result.cores.front();
}

const SimResult&
Results::get(const std::string& tag,
             const std::string& benchmark) const
{
    auto it = results_.find(tag + "/" + benchmark);
    if (it == results_.end())
        fatal("missing result ", tag, "/", benchmark);
    return *it->second;
}

const std::vector<Section>&
sections()
{
    static const std::vector<Section> all = makeSections();
    return all;
}

std::vector<Job>
sectionJobs(const Section& section, std::uint64_t cycles,
            std::uint64_t base_seed)
{
    std::vector<Job> jobs;
    for (const auto& [tag, config] : section.configs) {
        for (const std::string& benchmark : section.benchmarks) {
            Job& job = jobs.emplace_back(
                singleCoreJob(tag, config, benchmark, cycles));
            job.config.base.runSeed =
                deriveRunSeed(base_seed, benchmark, "paper");
        }
    }
    return jobs;
}

std::string
describe(const Check& check)
{
    if (!*check.op)
        return check.what + "  FAILED";
    char buf[128];
    std::snprintf(buf, sizeof(buf), ": %.10g %s %.10g  %s",
                  check.measured, check.op, check.bound,
                  check.pass ? "ok" : "FAILED");
    return check.what + buf;
}

const std::vector<Claim>&
claims()
{
    static const std::vector<Claim> all = makeClaims();
    return all;
}

ClaimBatch::ClaimBatch()
{
    std::map<std::string, std::size_t> index;
    for (const Claim& claim : claims()) {
        std::vector<std::size_t>& uses = uses_.emplace_back();
        for (const Job& j : claim.jobs) {
            const std::string key = j.tag + "/" +
                                    j.config.benchmarks.front() +
                                    "/" + std::to_string(j.cycles);
            auto [it, fresh] = index.emplace(key, jobs_.size());
            if (fresh)
                jobs_.push_back(j);
            uses.push_back(it->second);
        }
    }
}

std::vector<Check>
ClaimBatch::evaluate(std::size_t c,
                     std::span<const Outcome> outcomes) const
{
    std::vector<SimResult> runs;
    for (const std::size_t i : uses_.at(c)) {
        const Outcome& o = outcomes[i];
        if (!o.ok) {
            return {Check{"job " + o.tag + "/" + o.benchmark +
                              " failed: " + o.error,
                          0, "", 0, false}};
        }
        runs.push_back(o.result.cores.front());
    }
    return claims()[c].checks(runs);
}

std::vector<std::pair<std::string, SimConfig>>
scaleConfigs()
{
    auto make = [](bool toggling, bool throttle) {
        SimConfig config = iqBase();
        config.dtm.iqToggling = toggling;
        config.dtm.fetchThrottling = throttle;
        return config;
    };
    return {
        {"iq_base", make(false, false)},
        {"iq_toggling", make(true, false)},
        {"iq_throttle", make(false, true)},
        {"iq_toggle_throttle", make(true, true)},
    };
}

std::vector<Job>
cmpScaleJobs(std::uint64_t cycles)
{
    const std::vector<std::string> mix = {"art", "mesa", "eon",
                                          "mcf"};
    std::vector<Job> jobs;
    for (const int cores : {1, 2, 4}) {
        for (const bool dram : {false, true}) {
            Job& job = jobs.emplace_back();
            job.tag = std::to_string(cores) + "core" +
                      (dram ? "_3d" : "");
            job.config.base = iqBase();
            job.config.cores = cores;
            job.config.benchmarks.assign(mix.begin(),
                                         mix.begin() + cores);
            job.config.migration.enabled = cores > 1;
            job.config.stack.dram = dram;
            job.cycles = cycles;
        }
    }
    return jobs;
}

} // namespace paper
} // namespace tempest
