#include "thermal/rc_model.hh"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/log.hh"
#include "sim/checkpoint/stateio.hh"

namespace tempest
{

void
ThermalParams::validate() const
{
    if (dieThickness <= 0 || spreaderThickness <= 0)
        fatal("layer thicknesses must be positive");
    if (rTimPerArea < 0)
        fatal("rTimPerArea must be non-negative");
    if (kSilicon <= 0 || kSpreader <= 0)
        fatal("conductivities must be positive");
    if (cvSilicon <= 0 || cvSpreader <= 0 || cSink <= 0)
        fatal("capacitances must be positive");
    if (rSpreaderSink <= 0 || rConvection <= 0)
        fatal("package resistances must be positive");
    if (ambient <= 0)
        fatal("ambient must be an absolute temperature");
    if (timeScale <= 0 || timeScale > 1.0)
        fatal("timeScale must be in (0, 1]");
    if (rStackBondPerArea < 0)
        fatal("rStackBondPerArea must be non-negative");
    if (stackedDieThickness <= 0)
        fatal("stackedDieThickness must be positive");
    if (maxCachedPropagators < 1)
        fatal("maxCachedPropagators must be >= 1");
}

RcModel::RcModel(const Floorplan& floorplan,
                 const ThermalParams& params)
    : params_(params), numBlocks_(floorplan.numBlocks())
{
    params_.validate();
    if (numBlocks_ < 1)
        fatal("thermal model needs at least one block");

    spreaderNode_ = numBlocks_;
    sinkNode_ = numBlocks_ + 1;
    numNodes_ = numBlocks_ + 2;

    // The network: per-node capacitance and conductance edges,
    // assembled here into the solver's dense G and C.
    struct Edge
    {
        int a;
        int b;
        double conductance; ///< W/K
    };
    std::vector<Edge> edges;
    std::vector<double> capacitance(
        static_cast<std::size_t>(numNodes_), 0.0); ///< J/K per node
    temp_.assign(static_cast<std::size_t>(numNodes_),
                 params_.ambient);
    power_.assign(static_cast<std::size_t>(numBlocks_), 0.0);

    // Block nodes: capacitance and vertical path to the spreader.
    // Stacked-layer blocks (layer >= 1) have no spreader path of
    // their own — their heat leaves through the die beneath them
    // (edges added after the lateral pass).
    for (int i = 0; i < numBlocks_; ++i) {
        const Block& b = floorplan.block(i);
        const SquareMeter area = b.area();
        const Meter thickness = b.layer == 0
                                    ? params_.dieThickness
                                    : params_.stackedDieThickness;
        capacitance[static_cast<std::size_t>(i)] =
            params_.cvSilicon * thickness * area *
            params_.timeScale;
        if (b.layer != 0)
            continue;

        // Conduction through the die and interface material, plus
        // constriction spreading into the much larger spreader.
        const double r_die =
            params_.dieThickness / (params_.kSilicon * area);
        const double r_tim = params_.rTimPerArea / area;
        const double r_spread =
            1.0 / (2.0 * params_.kSpreader *
                   std::sqrt(area / M_PI));
        edges.push_back(
            {i, spreaderNode_, 1.0 / (r_die + r_tim + r_spread)});
    }

    // Lateral edges between abutting blocks.
    for (int i = 0; i < numBlocks_; ++i) {
        for (int j = i + 1; j < numBlocks_; ++j) {
            const Meter edge = floorplan.sharedEdge(i, j);
            if (edge <= 0)
                continue;
            const Block& a = floorplan.block(i);
            const Block& b = floorplan.block(j);
            // Half-extent of each block perpendicular to the
            // shared edge: vertical edge -> width, else height.
            const bool vertical_edge =
                std::abs((a.x + a.width) - b.x) < 1e-9 ||
                std::abs((b.x + b.width) - a.x) < 1e-9;
            const double da =
                0.5 * (vertical_edge ? a.width : a.height);
            const double db =
                0.5 * (vertical_edge ? b.width : b.height);
            const double r =
                (da + db) /
                (params_.kSilicon * params_.dieThickness * edge);
            edges.push_back({i, j, 1.0 / r});
        }
    }

    // Vertical edges between stacked layers: conduction through
    // half of each die plus the bond/TSV interface, over the
    // footprint overlap. Appended after the single-layer edge
    // groups so a one-layer floorplan assembles the exact same
    // edge sequence (and thus G matrix bits) as before.
    for (int i = 0; i < numBlocks_; ++i) {
        for (int j = i + 1; j < numBlocks_; ++j) {
            const Block& a = floorplan.block(i);
            const Block& b = floorplan.block(j);
            if (std::abs(a.layer - b.layer) != 1)
                continue;
            const SquareMeter ov = floorplan.overlapArea(i, j);
            if (ov <= 0)
                continue;
            const Meter lower = std::min(a.layer, b.layer) == 0
                                    ? params_.dieThickness
                                    : params_.stackedDieThickness;
            const double r_per_area =
                0.5 * lower / params_.kSilicon +
                params_.rStackBondPerArea +
                0.5 * params_.stackedDieThickness /
                    params_.kSilicon;
            edges.push_back({i, j, ov / r_per_area});
        }
    }

    // Spreader and sink.
    const SquareMeter die_area = floorplan.totalArea();
    capacitance[static_cast<std::size_t>(spreaderNode_)] =
        params_.cvSpreader * params_.spreaderThickness * die_area *
        params_.spreaderAreaFactor * params_.timeScale;
    capacitance[static_cast<std::size_t>(sinkNode_)] =
        params_.cSink * params_.timeScale;
    edges.push_back(
        {spreaderNode_, sinkNode_, 1.0 / params_.rSpreaderSink});

    const double g_sink_ambient = 1.0 / params_.rConvection;

    // O(1) resistance lookups for the DTM/floorplan setup paths.
    verticalRes_.assign(static_cast<std::size_t>(numBlocks_),
                        std::numeric_limits<double>::infinity());
    lateralRes_.assign(static_cast<std::size_t>(numBlocks_) *
                           static_cast<std::size_t>(numBlocks_),
                       std::numeric_limits<double>::infinity());
    for (const Edge& e : edges) {
        if (e.a < numBlocks_ && e.b == spreaderNode_) {
            verticalRes_[static_cast<std::size_t>(e.a)] =
                1.0 / e.conductance;
        } else if (e.a < numBlocks_ && e.b < numBlocks_) {
            const KelvinPerWatt r = 1.0 / e.conductance;
            lateralRes_[static_cast<std::size_t>(e.a) * numBlocks_ +
                        e.b] = r;
            lateralRes_[static_cast<std::size_t>(e.b) * numBlocks_ +
                        e.a] = r;
        }
    }

    // Assemble the dense conductance system once and hand it to
    // the exponential-integrator backend; its LU factors also
    // serve every steady-state solve.
    std::vector<double> g(static_cast<std::size_t>(numNodes_) *
                              static_cast<std::size_t>(numNodes_),
                          0.0);
    for (const Edge& e : edges) {
        const auto a = static_cast<std::size_t>(e.a);
        const auto b = static_cast<std::size_t>(e.b);
        const auto n = static_cast<std::size_t>(numNodes_);
        g[a * n + a] += e.conductance;
        g[b * n + b] += e.conductance;
        g[a * n + b] -= e.conductance;
        g[b * n + a] -= e.conductance;
    }
    g[static_cast<std::size_t>(sinkNode_) * numNodes_ +
      sinkNode_] += g_sink_ambient;
    std::vector<double> const_heat(
        static_cast<std::size_t>(numNodes_), 0.0);
    const_heat[static_cast<std::size_t>(sinkNode_)] =
        g_sink_ambient * params_.ambient;
    expm_.emplace(std::move(g), std::move(capacitance),
                  std::move(const_heat),
                  static_cast<std::size_t>(
                      params_.maxCachedPropagators));
}

void
RcModel::setPower(int block, Watt power)
{
    if (block < 0 || block >= numBlocks_)
        panic("setPower: block index out of range");
    if (power < 0)
        panic("setPower: negative power");
    power_[static_cast<std::size_t>(block)] = power;
}

void
RcModel::setPowers(const std::vector<Watt>& powers)
{
    if (static_cast<int>(powers.size()) != numBlocks_)
        fatal("setPowers: expected ", numBlocks_, " block powers");
    for (int i = 0; i < numBlocks_; ++i)
        setPower(i, powers[static_cast<std::size_t>(i)]);
}

Watt
RcModel::power(int block) const
{
    if (block < 0 || block >= numBlocks_)
        panic("power: block index out of range");
    return power_[static_cast<std::size_t>(block)];
}

Watt
RcModel::totalPower() const
{
    Watt total = 0;
    for (Watt p : power_)
        total += p;
    return total;
}

void
RcModel::step(Seconds dt)
{
    if (dt > 0)
        expm_->advance(temp_, power_, dt);
}

void
RcModel::solveSteadyState()
{
    // One O(n^2) solve through the LU factors cached at
    // construction (the exponential backend owns them).
    expm_->steadyState(temp_, power_);
}

Kelvin
RcModel::temperature(int block) const
{
    if (block < 0 || block >= numBlocks_)
        panic("temperature: block index out of range");
    return temp_[static_cast<std::size_t>(block)];
}

Kelvin
RcModel::spreaderTemperature() const
{
    return temp_[static_cast<std::size_t>(spreaderNode_)];
}

Kelvin
RcModel::sinkTemperature() const
{
    return temp_[static_cast<std::size_t>(sinkNode_)];
}

void
RcModel::setAllTemperatures(Kelvin t)
{
    std::fill(temp_.begin(), temp_.end(), t);
}

void
RcModel::setTemperature(int block, Kelvin t)
{
    if (block < 0 || block >= numBlocks_)
        panic("setTemperature: block index out of range");
    temp_[static_cast<std::size_t>(block)] = t;
}

KelvinPerWatt
RcModel::verticalResistance(int block) const
{
    if (block < 0 || block >= numBlocks_)
        panic("no vertical edge for block ", block);
    return verticalRes_[static_cast<std::size_t>(block)];
}

KelvinPerWatt
RcModel::lateralResistance(int a, int b) const
{
    if (a < 0 || a >= numBlocks_ || b < 0 || b >= numBlocks_)
        return std::numeric_limits<double>::infinity();
    return lateralRes_[static_cast<std::size_t>(a) * numBlocks_ +
                       b]; // infinity if not adjacent
}

void
RcModel::saveState(StateWriter& w) const
{
    w.i32(numNodes_);
    w.i32(numBlocks_);
    for (const Kelvin t : temp_)
        w.f64(t);
    for (const Watt p : power_)
        w.f64(p);
}

void
RcModel::loadState(StateReader& r)
{
    const int nodes = r.i32();
    const int blocks = r.i32();
    if (nodes != numNodes_ || blocks != numBlocks_) {
        fatal("checkpoint thermal model mismatch: saved ", nodes,
              " nodes / ", blocks, " blocks, this model has ",
              numNodes_, " / ", numBlocks_,
              " (different floorplan?)");
    }
    for (Kelvin& t : temp_)
        t = r.f64();
    for (Watt& p : power_)
        p = r.f64();
}

} // namespace tempest
