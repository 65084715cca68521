#include <cmath>
#include <map>

#include "charlib/cell_bench.hpp"
#include "spice/dc.hpp"
#include "util/error.hpp"
#include "util/log.hpp"
#include "waveform/sources.hpp"

namespace sna::charlib {

wave::Waveform TheveninModel::ramp(double t0, double tEnd) const {
    return wave::saturatedRamp(vStart, vEnd, t0, slew, tEnd);
}

// Analytic crossing time of the (ramp + R)ic load C response at `frac` of
// the swing. Response (normalized swing 1, ramp duration tau, time constant
// rc, ramp starts at 0):
//   t <= tau : v(t) = (t - rc (1 - e^{-t/rc})) / tau
//   t  > tau : v(t) = 1 - (rc/tau) (1 - e^{-tau/rc}) e^{-(t-tau)/rc}
// Monotone increasing, so bisection is exact.
double rampRcCrossing(double frac, double tau, double rc) {
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
        // lo and hi are adjacent doubles: every later iteration would
        // recompute this same mid and leave both ends unchanged.
        if (mid == lo || mid == hi) break;
        if (value(mid) < frac) {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    return 0.5 * (lo + hi);
}

namespace {

// Does the output cross `target` (in the transition's direction) between
// consecutive samples a and b?
bool crossesBetween(double a, double b, double target, bool rising) {
    return rising ? (a < target && b >= target) : (a > target && b <= target);
}

// Output crossing time at `frac` of the swing, linearly interpolated on the
// PWL waveform (sample-scanning alone is biased late on coarse steps).
double measuredCrossing(const wave::Waveform& w, double vStart, double vEnd,
                        double frac, double tAfter) {
    const double target = vStart + frac * (vEnd - vStart);
    const bool rising = vEnd > vStart;
    const auto& samples = w.samples();
    for (std::size_t i = 1; i < samples.size(); ++i) {
        if (samples[i].t < tAfter) continue;
        const auto& a = samples[i - 1];
        const auto& b = samples[i];
        if (!crossesBetween(a.v, b.v, target, rising)) continue;
        const double f = (target - a.v) / (b.v - a.v);
        return a.t + f * (b.t - a.t);
    }
    throw ModelError("driver output never crossed the target level during "
                     "Thevenin characterization");
}

// DC effective driving resistance toward the post-transition rail: clamp
// the output at mid-swing with the inputs at their final values and read
// R = (half swing) / |I|. This is the classic identifiable definition; a
// crossing-time-only fit degenerates for slew-limited (strong) drivers.
double effectiveResistance(const TheveninSpec& spec,
                           const std::map<std::string, bool>& finalVector) {
    const double vdd = spec.cell->technology().vdd;
    CellBench bench(*spec.cell, spec.input, finalVector,
                    CellBench::Output::kClamp, 0.5 * vdd);
    const auto dc = spice::solveDc(bench.circuit());
    // Rising output: the cell sources current into the clamp (negative
    // sunk current); falling: it sinks. Either way use the magnitude.
    const double magnitude = std::abs(dc.sourceCurrent("v_out"));
    if (magnitude < 1e-9) {
        throw ModelError("driver delivers no current at mid-swing; cannot "
                         "extract an effective resistance");
    }
    return (0.5 * vdd) / magnitude;
}

}  // namespace

TheveninModel fitThevenin(const TheveninSpec& spec, const wave::Waveform& out,
                          double rth, CrossingFn crossing) {
    const double vdd = spec.cell->technology().vdd;
    const double tStart = kTheveninInputStart;
    const double vStart = spec.outputRising ? 0.0 : vdd;
    const double vEnd = vdd - vStart;
    const double t20 = measuredCrossing(out, vStart, vEnd, 0.2, tStart);
    const double t80 = measuredCrossing(out, vStart, vEnd, 0.8, tStart);
    SNA_REQUIRE(t80 > t20, "inverted crossing order in Thevenin fit");

    // Fit the ramp duration tau so the model's 20%/80% crossings match the
    // golden transition. The model ramp starts where the golden output
    // leaves 2% of the swing (driver insertion delay).
    const double rc = rth * spec.loadCap;
    const double tLaunch = measuredCrossing(out, vStart, vEnd, 0.02, tStart);
    const double m20 = t20 - tLaunch;
    const double m80 = t80 - tLaunch;
    auto error = [&](double tau) {
        const double c20 = crossing(0.2, tau, rc);
        const double c80 = crossing(0.8, tau, rc);
        const double e20 = (c20 - m20) / m80;
        const double e80 = (c80 - m80) / m80;
        return e20 * e20 + e80 * e80;
    };
    double bestTau = std::max(m80 - rc, 0.05 * m80);
    double bestErr = error(bestTau);
    for (int it = 0; it < 4; ++it) {
        const double span = (it == 0) ? 20.0 : 1.5;
        const int n = 40;
        const double tau0 = bestTau / span;
        for (int a = 0; a <= n; ++a) {
            const double tau =
                tau0 * std::pow(span * span, a / static_cast<double>(n));
            const double e = error(tau);
            if (e < bestErr) {
                bestErr = e;
                bestTau = tau;
            }
        }
    }
    log::debug() << "thevenin fit " << spec.cell->name()
                 << ": slew=" << bestTau << " rth=" << rth
                 << " err=" << bestErr;

    TheveninModel model;
    model.vStart = vStart;
    model.vEnd = vEnd;
    model.slew = bestTau;
    model.rth = rth;
    model.delay = tLaunch - tStart;
    return model;
}

TheveninModel characterizeThevenin(const TheveninSpec& spec) {
    SNA_REQUIRE(spec.cell != nullptr, "thevenin spec needs a cell");
    SNA_REQUIRE(spec.loadCap > 0.0, "thevenin load must be positive");
    const cell::Cell& cellRef = *spec.cell;
    const double vdd = cellRef.technology().vdd;

    // Bench: start from the vector holding the output at the pre-transition
    // level, then ramp the chosen input to its flipped value.
    const bool outStart = !spec.outputRising;
    const auto holding = cellRef.holdingVector(outStart, spec.input);
    CellBench bench(cellRef, spec.input, holding, CellBench::Output::kLoad,
                    spec.loadCap);
    const double tStart = kTheveninInputStart;
    const double tStop = 4e-9;
    const double v0 = holding.at(spec.input) ? vdd : 0.0;
    bench.input().setSpec(spice::SourceSpec::pwl(wave::saturatedRamp(
        v0, vdd - v0, tStart, spec.inputSlew, tStop)));

    // The fit reads the first 2%, 20% and 80% crossings at t >= tStart; the
    // run ends at the sample completing the 80% one, which the other two
    // precede (the output starts on its pre-transition rail).
    const double vStart = outStart ? vdd : 0.0;
    const double vEnd = vdd - vStart;
    const double target80 = vStart + 0.8 * (vEnd - vStart);
    bool havePrev = false;
    double prev = 0.0;
    const auto res = bench.transient(tStop, [&](double t, double v) {
        const bool crossed =
            havePrev && t >= tStart &&
            crossesBetween(prev, v, target80, spec.outputRising);
        havePrev = true;
        prev = v;
        return crossed;
    });

    // R_TH from the DC effective resistance (always identifiable).
    const double rth = effectiveResistance(
        spec, cellRef.holdingVector(!outStart, spec.input));
    return fitThevenin(spec, res.waveform("out"), rth);
}

}  // namespace sna::charlib
