#include <cmath>

#include "charlib/cell_bench.hpp"
#include "charlib/characterize.hpp"
#include "util/error.hpp"
#include "waveform/sources.hpp"

namespace sna::charlib {

namespace {

// Quiet input vector: sensitized on `input` with that pin at quietLevel.
std::map<std::string, bool> quietVector(const NrcSpec& spec) {
    const cell::Cell& cellRef = *spec.cell;
    for (const bool outLevel : {false, true}) {
        try {
            auto vec = cellRef.holdingVector(outLevel, spec.input);
            if (vec.at(spec.input) == spec.quietLevel) return vec;
        } catch (const ModelError&) {
            continue;
        }
    }
    throw LogicError("no sensitized quiet vector for NRC of '" +
                     cellRef.name() + "/" + spec.input + "'");
}

// Bisect the failing height in [0, 1.4 vdd] at each width, on one receiver
// bench whose quiet input is re-armed with a triangle glitch per probe;
// failure is monotone in height for static CMOS receivers.
std::vector<double> failingHeights(const NrcSpec& spec,
                                   const std::vector<double>& widths) {
    const auto quiet = quietVector(spec);
    CellBench bench(*spec.cell, spec.input, quiet, CellBench::Output::kLoad,
                    spec.loadCap);
    const double vdd = bench.vdd();
    const double outBaseline = spec.cell->evaluate(quiet) ? vdd : 0.0;
    const double inBaseline = spec.quietLevel ? vdd : 0.0;
    const double dir = spec.quietLevel ? -1.0 : +1.0;
    const double threshold = spec.failFraction * vdd;

    // Does a glitch of (height, width) at the receiver input propagate a
    // failure (output deviation beyond failFraction of the swing)? The run
    // stops at the first sample that deviates that far: the glitch peak
    // (the largest sample deviation) already decides the answer there.
    auto fails = [&](double height, double width) {
        const double t0 = 50e-12;
        const double tStop = t0 + width + std::max(1.5e-9, 5 * width);
        bench.input().setSpec(spice::SourceSpec::pwl(wave::triangleGlitch(
            inBaseline, dir * height, t0, width, tStop)));
        return bench
            .transient(tStop,
                       [&](double, double v) {
                           return std::abs(v - outBaseline) >= threshold;
                       })
            .stopped();
    };

    std::vector<double> hFail;
    for (const double w : widths) {
        double lo = 0.0;
        double hi = 1.4 * vdd;
        if (!fails(hi, w)) {
            hFail.push_back(hi);  // nothing fails at this width
            continue;
        }
        for (int it = 0; it < 12; ++it) {
            const double mid = 0.5 * (lo + hi);
            if (fails(mid, w)) {
                hi = mid;
            } else {
                lo = mid;
            }
        }
        hFail.push_back(0.5 * (lo + hi));
    }
    return hFail;
}

}  // namespace

la::Grid1d characterizeNrc(const NrcSpec& spec) {
    SNA_REQUIRE(spec.cell != nullptr, "NRC spec needs a cell");
    SNA_REQUIRE(spec.widths.size() >= 2, "NRC needs at least two widths");
    return la::Grid1d(spec.widths, failingHeights(spec, spec.widths));
}

double nrcFailingHeight(const NrcSpec& spec, double width) {
    SNA_REQUIRE(spec.cell != nullptr, "NRC spec needs a cell");
    return failingHeights(spec, {width}).front();
}

}  // namespace sna::charlib
