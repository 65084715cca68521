#include "core/baselines.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>

#include "mor/linear_network.hpp"
#include "spice/tran.hpp"
#include "util/error.hpp"
#include "util/log.hpp"
#include "waveform/sources.hpp"

namespace sna::core {

namespace {

// Shared: reduced interconnect + Thevenin aggressors + receiver caps.
// Returns the victim driving-point node; the caller adds the victim model.
spice::NodeId buildLinearCluster(const ClusterMacromodel& model,
                                 spice::Circuit& ckt,
                                 const std::vector<double>& aggTimes) {
    const ClusterSpec& spec = model.spec();
    SNA_REQUIRE(aggTimes.size() == spec.aggressors.size(),
                "need one switch time per aggressor");
    const auto dp = ckt.node("dp_vic");
    std::vector<spice::NodeId> drvNodes{dp};
    ckt.addCapacitor("cdrv0", dp, spice::kGround, model.driverCaps()[0]);
    for (std::size_t a = 0; a < spec.aggressors.size(); ++a) {
        const auto& m = model.aggressorModels()[a];
        const std::string inst = "agg" + std::to_string(a);
        const auto src = ckt.node(inst + "_th");
        const auto adp = ckt.node(inst + "_dp");
        ckt.addVSource("v_" + inst, src, spice::kGround,
                       spice::SourceSpec::pwl(
                           m.ramp(aggTimes[a] + m.delay, spec.tstop)));
        ckt.addResistor("r_" + inst, src, adp, m.rth);
        ckt.addCapacitor("cdrv" + std::to_string(a + 1), adp, spice::kGround,
                         model.driverCaps()[a + 1]);
        drvNodes.push_back(adp);
    }
    const ic::RcNetwork& net = model.interconnect();
    if (model.options().usePrima) {
        const mor::LinearNetwork lin(net);
        std::vector<int> ports;
        std::vector<spice::NodeId> portNodes = drvNodes;
        for (int w = 0; w < net.wireCount(); ++w) {
            ports.push_back(net.driverNode(w));
        }
        for (int w = 0; w < net.wireCount(); ++w) {
            ports.push_back(net.receiverNode(w));
            portNodes.push_back(ckt.node("rcv" + std::to_string(w)));
        }
        mor::attachReduced(ckt, "rednet", lin, ports, portNodes,
                           model.options().primaBlocks);
        for (int w = 0; w < net.wireCount(); ++w) {
            ckt.addCapacitor("crx" + std::to_string(w),
                             portNodes[drvNodes.size() + w], spice::kGround,
                             model.receiverCaps()[w]);
        }
    } else {
        const auto farNodes = model.reducedPi().buildInto(ckt, "pi:", drvNodes);
        for (int w = 0; w < net.wireCount(); ++w) {
            ckt.addCapacitor("crx" + std::to_string(w), farNodes[w],
                             spice::kGround, model.receiverCaps()[w]);
        }
    }
    return dp;
}

// Victim holding model for B1: R_hold toward the holding rail.
void addHoldingResistor(const ClusterMacromodel& model, spice::Circuit& ckt,
                        spice::NodeId dp) {
    const double rHold = model.victimHoldingResistance();
    if (model.outputHoldLevel() == 0.0) {
        ckt.addResistor("r_hold", dp, spice::kGround, rHold);
    } else {
        const auto rail = ckt.node("hold_rail");
        ckt.addVSource("v_hold", rail, spice::kGround,
                       spice::SourceSpec::dc(model.outputHoldLevel()));
        ckt.addResistor("r_hold", dp, rail, rHold);
    }
}

}  // namespace

NoiseResult analyzeLinearSuperposition(
    const ClusterMacromodel& model,
    const std::vector<double>& aggressorSwitchTimes) {
    const auto start = std::chrono::steady_clock::now();
    const ClusterSpec& spec = model.spec();

    // ---- injected component: linearized victim, switching aggressors ----
    spice::Circuit ckt;
    const auto dp = buildLinearCluster(model, ckt, aggressorSwitchTimes);
    addHoldingResistor(model, ckt, dp);
    spice::TranOptions opt;
    opt.tstop = spec.tstop;
    const auto res = spice::simulateTransient(ckt, opt);
    const wave::Waveform injected = res.waveform("dp_vic");
    const auto mInj = wave::measureGlitch(injected, model.outputHoldLevel());

    // ---- propagated component from the pre-characterized tables ----------
    wave::Waveform total = injected;
    if (spec.victim.glitchHeight > 0.0) {
        const auto& table = model.propagationTable();
        const double h = spec.victim.glitchHeight;
        const double w = spec.victim.glitchWidth;
        const double peak = table.peak(h, w);
        const double area = table.area(h, w);
        if (std::abs(peak) > 1e-6) {
            // Reconstruct an equivalent triangle and align its peak with
            // the injected peak (worst-case superposition).
            const double width = 2.0 * std::abs(area / peak);
            const double tPeak =
                (std::abs(mInj.peak) > 1e-6)
                    ? mInj.peakTime
                    : spec.victim.glitchTime + 0.5 * spec.victim.glitchWidth;
            const double t0 = std::max(tPeak - 0.5 * width, 0.0) + 1e-15;
            // A wide propagated glitch aligned to a late injected peak can
            // outlast the simulation: build the triangle on a horizon that
            // holds it, then clip it to the analysis window [0, tstop].
            const double horizon = std::max(spec.tstop, 2.0 * (t0 + width));
            const wave::Waveform tri =
                wave::triangleGlitch(0.0, peak, t0, width, horizon)
                    .window(0.0, spec.tstop);
            total = total.plus(tri);
        }
    }

    NoiseResult out;
    out.waveform = total;
    out.metrics = wave::measureGlitch(total, model.outputHoldLevel());
    out.engineNodes = ckt.nodeCount();
    out.runtimeSec = std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - start)
                         .count();
    return out;
}

NoiseResult analyzeIterativeThevenin(
    const ClusterMacromodel& model,
    const std::vector<double>& aggressorSwitchTimes, double glitchTime,
    int maxIterations) {
    const auto start = std::chrono::steady_clock::now();
    const ClusterSpec& spec = model.spec();
    const ic::RcNetwork& net = model.interconnect();

    // ---- V0(t): the victim driver's own glitch response, no crosstalk ----
    wave::Waveform v0;
    {
        spice::Circuit ckt;
        const auto vin = ckt.node("vin");
        const auto out = ckt.node("out");
        if (const auto glitch = victimInputGlitch(spec, glitchTime)) {
            ckt.addVSource("v_in", vin, spice::kGround,
                           spice::SourceSpec::pwl(*glitch));
        } else {
            ckt.addVSource("v_in", vin, spice::kGround,
                           spice::SourceSpec::dc(model.inputHoldLevel()));
        }
        ckt.addTableVccs("idc_victim", out, vin, model.loadCurve());
        double load = net.totalGroundCapOf(0) + model.receiverCaps()[0];
        for (int o = 1; o < net.wireCount(); ++o) {
            load += net.couplingCapBetween(0, o);
        }
        ckt.addCapacitor("cload", out, spice::kGround, load);
        spice::TranOptions opt;
        opt.tstop = spec.tstop;
        v0 = spice::simulateTransient(ckt, opt).waveform("out");
    }

    // ---- iterate the victim Thevenin resistance --------------------------
    const double vHold = model.outputHoldLevel();
    double rv = model.victimHoldingResistance();
    NoiseResult result;
    for (int it = 0; it < maxIterations; ++it) {
        spice::Circuit ckt;
        const auto dp = buildLinearCluster(model, ckt, aggressorSwitchTimes);
        const auto vsrc = ckt.node("v0");
        ckt.addVSource("v_victim", vsrc, spice::kGround,
                       spice::SourceSpec::pwl(v0));
        ckt.addResistor("r_victim", vsrc, dp, rv);
        spice::TranOptions opt;
        opt.tstop = spec.tstop;
        const auto res = spice::simulateTransient(ckt, opt);
        result.waveform = res.waveform("dp_vic");
        result.metrics = wave::measureGlitch(result.waveform, vHold);
        result.engineNodes = ckt.nodeCount();

        // Refit: secant resistance of the load curve between the holding
        // point and the current noise peak (input at its quiet level — the
        // propagated part is carried by V0).
        const double vPeak = vHold + result.metrics.peak;
        const double iHold =
            model.loadCurve()(model.inputHoldLevel(), vHold);
        const double iPeak =
            model.loadCurve()(model.inputHoldLevel(), vPeak);
        const double dv = vPeak - vHold;
        const double di = iPeak - iHold;
        if (std::abs(dv) < 1e-6 || di <= 0.0) break;
        const double rNew = dv / di;
        const bool converged = std::abs(rNew - rv) <= 0.02 * rv;
        rv = rNew;
        if (converged) break;
    }

    result.runtimeSec = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - start)
                            .count();
    return result;
}

}  // namespace sna::core
