#include "testsupport/charlib_oracles.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <string>

#include "charlib/cell_bench.hpp"
#include "spice/dc.hpp"
#include "spice/tran.hpp"
#include "util/error.hpp"
#include "waveform/metrics.hpp"
#include "waveform/sources.hpp"

namespace sna::testsupport {

namespace {

// A fresh bench circuit: supply, inputs at `vector` with `inputSpec` on the
// sensitive pin, and either a load capacitor or (loadCap <= 0) a DC clamp
// "v_out" at `clampV` on the output.
struct FreshBench {
    spice::Circuit ckt;

    FreshBench(const cell::Cell& cellRef, const std::string& input,
               const std::map<std::string, bool>& vector,
               const spice::SourceSpec& inputSpec, double loadCap,
               double clampV = 0.0) {
        const double vdd = cellRef.technology().vdd;
        const auto vddNode = ckt.node("vdd");
        ckt.addVSource("vsupply", vddNode, spice::kGround,
                       spice::SourceSpec::dc(vdd));
        std::map<std::string, spice::NodeId> pins;
        for (const auto& in : cellRef.inputNames()) {
            const auto n = ckt.node(in);
            pins[in] = n;
            ckt.addVSource("v_" + in, n, spice::kGround,
                           in == input ? inputSpec
                                       : spice::SourceSpec::dc(
                                             vector.at(in) ? vdd : 0.0));
        }
        const auto outNode = ckt.node("out");
        pins[cellRef.outputName()] = outNode;
        if (loadCap > 0.0) {
            ckt.addCapacitor("cload", outNode, spice::kGround, loadCap);
        } else {
            ckt.addVSource("v_out", outNode, spice::kGround,
                           spice::SourceSpec::dc(clampV));
        }
        cellRef.instantiate(ckt, "dut", pins, vddNode);
    }

    wave::Waveform out(double tStop) const {
        spice::TranOptions opt;
        opt.tstop = tStop;
        opt.probes = {"out"};
        return spice::simulateTransient(ckt, opt).waveform("out");
    }
};

bool glitchFails(const charlib::NrcSpec& spec, double height, double width) {
    const cell::Cell& cellRef = *spec.cell;
    const double vdd = cellRef.technology().vdd;
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
    SNA_REQUIRE(found, "no sensitized quiet vector for NRC");
    const double outBaseline = cellRef.evaluate(quiet) ? vdd : 0.0;
    const double inBaseline = spec.quietLevel ? vdd : 0.0;
    const double dir = spec.quietLevel ? -1.0 : +1.0;
    const double t0 = 50e-12;
    const double tStop = t0 + width + std::max(1.5e-9, 5 * width);
    const FreshBench bench(cellRef, spec.input, quiet,
                           spice::SourceSpec::pwl(wave::triangleGlitch(
                               inBaseline, dir * height, t0, width, tStop)),
                           spec.loadCap);
    const auto m = wave::measureGlitch(bench.out(tStop), outBaseline);
    return std::abs(m.peak) >= spec.failFraction * vdd;
}

}  // namespace

la::Grid1d referenceNrc(const charlib::NrcSpec& spec) {
    const double vdd = spec.cell->technology().vdd;
    std::vector<double> hFail;
    for (const double w : spec.widths) {
        double lo = 0.0;
        double hi = 1.4 * vdd;
        if (!glitchFails(spec, hi, w)) {
            hFail.push_back(hi);
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

double referenceRampRcCrossing(double frac, double tau, double rc) {
    SNA_REQUIRE(frac > 0.0 && frac < 1.0, "crossing fraction out of range");
    auto value = [&](double t) {
        if (t <= tau) {
            return (t - rc * (1.0 - std::exp(-t / rc))) / tau;
        }
        return 1.0 -
               (rc / tau) * (1.0 - std::exp(-tau / rc)) *
                   std::exp(-(t - tau) / rc);
    };
    double lo = 0.0;
    double hi = tau + rc;
    while (value(hi) < frac) hi *= 2.0;
    for (int it = 0; it < 100; ++it) {
        const double mid = 0.5 * (lo + hi);
        if (value(mid) < frac) {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    return 0.5 * (lo + hi);
}

charlib::TheveninModel referenceThevenin(const charlib::TheveninSpec& spec) {
    const cell::Cell& cellRef = *spec.cell;
    const double vdd = cellRef.technology().vdd;
    const bool outStart = !spec.outputRising;
    const auto holding = cellRef.holdingVector(outStart, spec.input);
    const double tStart = charlib::kTheveninInputStart;
    const double tStop = 4e-9;
    const double v0 = holding.at(spec.input) ? vdd : 0.0;
    const FreshBench ramp(cellRef, spec.input, holding,
                          spice::SourceSpec::pwl(wave::saturatedRamp(
                              v0, vdd - v0, tStart, spec.inputSlew, tStop)),
                          spec.loadCap);
    const auto finalVector = cellRef.holdingVector(!outStart, spec.input);
    const FreshBench clamp(
        cellRef, spec.input, finalVector,
        spice::SourceSpec::dc(finalVector.at(spec.input) ? vdd : 0.0),
        /*loadCap=*/0.0, 0.5 * vdd);
    const double current = spice::solveDc(clamp.ckt).sourceCurrent("v_out");
    return charlib::fitThevenin(spec, ramp.out(tStop),
                                (0.5 * vdd) / std::abs(current),
                                referenceRampRcCrossing);
}

charlib::PropagationTable referencePropagation(
    const charlib::PropagationSpec& spec) {
    const cell::Cell& cellRef = *spec.cell;
    const double vdd = cellRef.technology().vdd;
    const auto holding = cellRef.holdingVector(spec.outputLevel, spec.input);
    const double inBaseline = holding.at(spec.input) ? vdd : 0.0;
    const double outBaseline = spec.outputLevel ? vdd : 0.0;
    const double dir = (inBaseline < 0.5 * vdd) ? +1.0 : -1.0;
    std::vector<double> zPeak, zArea;
    for (const double h : spec.heights) {
        for (const double w : spec.widths) {
            const double t0 = 50e-12;
            const double tStop = t0 + w + std::max(2e-9, 6 * w);
            const FreshBench bench(
                cellRef, spec.input, holding,
                spice::SourceSpec::pwl(wave::triangleGlitch(
                    inBaseline, dir * h, t0, w, tStop)),
                spec.loadCap);
            const auto m = wave::measureGlitch(bench.out(tStop), outBaseline);
            zPeak.push_back(m.peak);
            zArea.push_back(m.area);
        }
    }
    charlib::PropagationTable table;
    table.peak = la::Grid2d(spec.heights, spec.widths, std::move(zPeak));
    table.area = la::Grid2d(spec.heights, spec.widths, std::move(zArea));
    table.outputBaseline = outBaseline;
    return table;
}

}  // namespace sna::testsupport
