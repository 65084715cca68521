#include <cmath>

#include "charlib/characterize.hpp"
#include "spice/tran.hpp"
#include "util/error.hpp"
#include "waveform/metrics.hpp"
#include "waveform/sources.hpp"

namespace sna::charlib {

namespace {

// Does a glitch of (height, width) at the receiver input propagate a
// failure (output deviation beyond failFraction of the swing)?
bool glitchFails(const NrcSpec& spec, double height, double width) {
    const cell::Cell& cellRef = *spec.cell;
    const double vdd = cellRef.technology().vdd;

    // Quiet input vector: sensitized on `input` with that pin at quietLevel.
    std::map<std::string, bool> quiet;
    bool found = false;
    for (const bool outLevel : {false, true}) {
        try {
            auto vec = cellRef.holdingVector(outLevel, spec.input);
            if (vec.at(spec.input) == spec.quietLevel) {
                quiet = vec;
                found = true;
                break;
            }
        } catch (const ModelError&) {
            continue;
        }
    }
    SNA_REQUIRE(found, "no sensitized quiet vector for NRC of '" +
                           cellRef.name() + "/" + spec.input + "'");
    const bool outLevel = cellRef.evaluate(quiet);
    const double outBaseline = outLevel ? vdd : 0.0;
    const double inBaseline = spec.quietLevel ? vdd : 0.0;
    const double dir = spec.quietLevel ? -1.0 : +1.0;

    spice::Circuit ckt;
    const auto vddNode = ckt.node("vdd");
    ckt.addVSource("vsupply", vddNode, spice::kGround,
                   spice::SourceSpec::dc(vdd));
    const double t0 = 50e-12;
    const double tStop = t0 + width + std::max(1.5e-9, 5 * width);
    std::map<std::string, spice::NodeId> pins;
    for (const auto& in : cellRef.inputNames()) {
        const auto n = ckt.node(in);
        pins[in] = n;
        const double level = quiet.at(in) ? vdd : 0.0;
        if (in == spec.input) {
            ckt.addVSource("v_" + in, n, spice::kGround,
                           spice::SourceSpec::pwl(wave::triangleGlitch(
                               inBaseline, dir * height, t0, width, tStop)));
        } else {
            ckt.addVSource("v_" + in, n, spice::kGround,
                           spice::SourceSpec::dc(level));
        }
    }
    const auto outNode = ckt.node("out");
    pins[cellRef.outputName()] = outNode;
    ckt.addCapacitor("cload", outNode, spice::kGround, spec.loadCap);
    cellRef.instantiate(ckt, "dut", pins, vddNode);

    spice::TranOptions opt;
    opt.tstop = tStop;
    opt.probes = {"out"};
    const auto res = spice::simulateTransient(ckt, opt);
    const auto m = wave::measureGlitch(res.waveform("out"), outBaseline);
    return std::abs(m.peak) >= spec.failFraction * vdd;
}

}  // namespace

la::Grid1d characterizeNrc(const NrcSpec& spec) {
    SNA_REQUIRE(spec.cell != nullptr, "NRC spec needs a cell");
    SNA_REQUIRE(spec.widths.size() >= 2, "NRC needs at least two widths");
    const double vdd = spec.cell->technology().vdd;

    std::vector<double> hFail;
    for (const double w : spec.widths) {
        // Bisect the failing height in [0, 1.4 vdd]; failure is monotone in
        // height for static CMOS receivers.
        double lo = 0.0;
        double hi = 1.4 * vdd;
        if (!glitchFails(spec, hi, w)) {
            hFail.push_back(hi);  // nothing fails at this width
            continue;
        }
        for (int it = 0; it < 12; ++it) {
            const double mid = 0.5 * (lo + hi);
            if (glitchFails(spec, mid, w)) {
                hi = mid;
            } else {
                lo = mid;
            }
        }
        hFail.push_back(0.5 * (lo + hi));
    }
    return la::Grid1d(spec.widths, std::move(hFail));
}

}  // namespace sna::charlib
