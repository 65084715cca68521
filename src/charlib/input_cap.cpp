#include "charlib/characterize.hpp"
#include "spice/tran.hpp"
#include "util/error.hpp"
#include "waveform/metrics.hpp"
#include "waveform/sources.hpp"

namespace sna::charlib {

double measureInputCapacitance(const cell::Cell& c, const std::string& pin) {
    const double vdd = c.technology().vdd;
    // Drive the pin through a known resistor with a slow ramp; the charge
    // into the pin is the integral of (vsrc - vpin) / R.
    spice::Circuit ckt;
    const auto vddNode = ckt.node("vdd");
    ckt.addVSource("vsupply", vddNode, spice::kGround,
                   spice::SourceSpec::dc(vdd));
    const double tRamp = 2e-9;
    const double tStop = 3e-9;
    const double r = 1e3;
    const auto src = ckt.node("src");
    const auto pinNode = ckt.node("pin");
    ckt.addVSource("vramp", src, spice::kGround,
                   spice::SourceSpec::pwl(
                       wave::saturatedRamp(0, vdd, 0.1e-9, tRamp, tStop)));
    ckt.addResistor("rsense", src, pinNode, r);

    std::map<std::string, spice::NodeId> pins;
    for (const auto& in : c.inputNames()) {
        pins[in] = (in == pin) ? pinNode : ckt.node(in);
        if (in != pin) {
            ckt.addVSource("v_" + in, pins[in], spice::kGround,
                           spice::SourceSpec::dc(0.0));
        }
    }
    pins[c.outputName()] = ckt.node("out");
    // Light output load so the Miller contribution is realistic.
    ckt.addCapacitor("cl", pins[c.outputName()], spice::kGround, 5e-15);
    c.instantiate(ckt, "dut", pins, vddNode);

    spice::TranOptions opt;
    opt.tstop = tStop;
    opt.probes = {"src", "pin"};
    const auto res = spice::simulateTransient(ckt, opt);
    const auto drop = res.waveform("src").minus(res.waveform("pin"));
    const double charge = wave::integrate(drop) / r;
    return charge / vdd;
}

}  // namespace sna::charlib
