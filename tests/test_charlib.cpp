// Tests for cell characterization: load curves (the paper's Eq. (1)),
// holding resistance, Thevenin fits, propagation tables, NRCs, and input
// capacitance measurement; bitwise agreement of the reused-bench,
// early-stopping characterizations with their fresh-circuit oracles; and
// concurrent characterization through one CharCache.
#include <gtest/gtest.h>

#include <cmath>
#include <thread>

#include "celllib/library.hpp"
#include "charlib/char_cache.hpp"
#include "charlib/characterize.hpp"
#include "spice/tran.hpp"
#include "testsupport/charlib_oracles.hpp"
#include "util/error.hpp"
#include "waveform/metrics.hpp"
#include "waveform/sources.hpp"

namespace {

using namespace sna;
using cell::CellLibrary;

const CellLibrary& lib130() {
    static const CellLibrary lib(tech::tech130());
    return lib;
}

charlib::LoadCurveSpec nandSpec(int n = 17) {
    charlib::LoadCurveSpec spec;
    spec.cell = &lib130().cell("NAND2_X1");
    spec.input = "a";
    spec.outputLevel = false;  // a=b=1, output held low
    spec.nVin = n;
    spec.nVout = n;
    return spec;
}

TEST(LoadCurve, ZeroCurrentAtTheHoldingPoint) {
    const auto table = charlib::characterizeLoadCurve(nandSpec());
    // At (vin = vdd, vout = 0) the cell is in its stable state: the current
    // vanishes up to bilinear interpolation error between grid points (the
    // restoring current is mA-scale two patches away).
    EXPECT_NEAR(table(1.2, 0.0), 0.0, 5e-6);
}

TEST(LoadCurve, RestoringCurrentGrowsWithOutputNoise) {
    const auto table = charlib::characterizeLoadCurve(nandSpec());
    // Output pushed above ground with full gate drive: the NMOS stack sinks
    // monotonically increasing current.
    double prev = -1e9;
    for (double v = 0.0; v <= 1.0; v += 0.1) {
        const double i = table(1.2, v);
        EXPECT_GE(i, prev - 1e-9) << "v=" << v;
        prev = i;
    }
    EXPECT_GT(table(1.2, 0.6), 1e-4);  // mA-scale restoring current
}

TEST(LoadCurve, InputGlitchWeakensRestoringCurrent) {
    // The cell non-linearity at the heart of the paper: a glitch on the
    // victim driver INPUT (vin dropping from vdd) reduces the output
    // restoring current — the interaction linear superposition misses.
    const auto table = charlib::characterizeLoadCurve(nandSpec());
    const double strong = table(1.2, 0.4);
    const double weak = table(0.7, 0.4);
    const double off = table(0.2, 0.4);
    EXPECT_GT(strong, weak);
    EXPECT_GT(weak, off);
    // With the input glitched below VT the pulldown is nearly off while the
    // pullup starts fighting: much smaller (possibly negative) current.
    EXPECT_LT(off, 0.25 * strong);
}

TEST(LoadCurve, PullupRestoresTowardVdd) {
    // With the input glitched low the NAND pullup turns on and restores the
    // output toward vdd: it SOURCES current while vout < vdd (negative
    // table entry) and SINKS it again once the output is dragged above vdd.
    const auto table = charlib::characterizeLoadCurve(nandSpec());
    EXPECT_LT(table(0.0, 0.6), 0.0);
    EXPECT_GT(table(0.0, 1.4), 0.0);
}

TEST(LoadCurve, GridMatchesDirectDcSolve) {
    // Interpolated table values reproduce fresh DC solves within bilinear
    // interpolation error.
    const auto table = charlib::characterizeLoadCurve(nandSpec(33));
    const auto fine = charlib::characterizeLoadCurve(nandSpec(9));
    for (const double vin : {0.15, 0.62, 1.05}) {
        for (const double vout : {0.08, 0.33, 0.91}) {
            EXPECT_NEAR(fine(vin, vout), table(vin, vout),
                        std::max(3e-5, 0.08 * std::abs(table(vin, vout))));
        }
    }
}

TEST(HoldingResistance, PositiveAndOrdered) {
    // NAND2 output-low holding resistance: the 2-stack of X1 is weaker
    // (higher R) than the X2 version.
    const auto t1 = charlib::characterizeLoadCurve(nandSpec());
    auto spec2 = nandSpec();
    spec2.cell = &lib130().cell("NAND2_X2");
    const auto t2 = charlib::characterizeLoadCurve(spec2);
    const double r1 = charlib::holdingResistance(t1, 1.2, 0.0);
    const double r2 = charlib::holdingResistance(t2, 1.2, 0.0);
    EXPECT_GT(r1, 10.0);
    EXPECT_LT(r1, 1e5);
    EXPECT_LT(r2, r1);
    EXPECT_NEAR(r2, 0.5 * r1, 0.2 * r1);
}

TEST(HoldingResistance, NonRestoringTableThrows) {
    // A synthetic load curve with dI/dVout <= 0 models a node that is not
    // actually held; the extraction must refuse it.
    const la::Grid2d bad({0.0, 1.0}, {0.0, 1.0}, {0.0, -1e-3, 0.0, -1e-3});
    EXPECT_THROW(charlib::holdingResistance(bad, 0.5, 0.5), ModelError);
}

TEST(Thevenin, FitReproducesCrossingTimes) {
    charlib::TheveninSpec spec;
    spec.cell = &lib130().cell("INV_X1");
    spec.input = "a";
    spec.outputRising = false;  // inverter output falls on rising input
    spec.loadCap = 30e-15;
    const auto model = charlib::characterizeThevenin(spec);
    EXPECT_GT(model.rth, 10.0);
    EXPECT_LT(model.rth, 1e4);
    EXPECT_GT(model.slew, 1e-12);
    EXPECT_LT(model.slew, 1e-9);
    EXPECT_DOUBLE_EQ(model.vStart, 1.2);
    EXPECT_DOUBLE_EQ(model.vEnd, 0.0);

    // Validate: the Thevenin circuit into the same load lands within 15% on
    // the 50% crossing of the golden transition (Dartu-Pileggi accuracy).
    spice::Circuit golden;
    {
        const auto vdd = golden.node("vdd");
        const auto in = golden.node("in");
        const auto out = golden.node("out");
        golden.addVSource("vs", vdd, spice::kGround, spice::SourceSpec::dc(1.2));
        golden.addVSource("vin", in, spice::kGround,
                          spice::SourceSpec::pwl(wave::saturatedRamp(
                              0, 1.2, 50e-12, 30e-12, 4e-9)));
        golden.addCapacitor("cl", out, spice::kGround, 30e-15);
        lib130().cell("INV_X1").instantiate(golden, "dut",
                                            {{"a", in}, {"y", out}}, vdd);
    }
    spice::TranOptions opt;
    opt.tstop = 4e-9;
    const auto goldenOut =
        spice::simulateTransient(golden, opt).waveform("out");

    spice::Circuit thev;
    {
        const auto src = thev.node("src");
        const auto out = thev.node("out");
        thev.addVSource("vth", src, spice::kGround,
                        spice::SourceSpec::pwl(
                            model.ramp(50e-12 + model.delay, 4e-9)));
        thev.addResistor("rth", src, out, model.rth);
        thev.addCapacitor("cl", out, spice::kGround, 30e-15);
    }
    const auto thevOut = spice::simulateTransient(thev, opt).waveform("out");

    auto cross50 = [](const wave::Waveform& w, bool falling) {
        const auto& s = w.samples();
        for (std::size_t i = 1; i < s.size(); ++i) {
            const bool crossed = falling ? (s[i - 1].v > 0.6 && s[i].v <= 0.6)
                                         : (s[i - 1].v < 0.6 && s[i].v >= 0.6);
            if (!crossed) continue;
            const double f = (0.6 - s[i - 1].v) / (s[i].v - s[i - 1].v);
            return s[i - 1].t + f * (s[i].t - s[i - 1].t);
        }
        return -1.0;
    };
    const double tg = cross50(goldenOut, true);
    const double tt = cross50(thevOut, true);
    ASSERT_GT(tg, 0.0);
    ASSERT_GT(tt, 0.0);
    EXPECT_NEAR(tt, tg, 0.15 * tg);
}

TEST(Thevenin, StrongerDriverFitsSmallerR) {
    // Compare at matched electrical operating points (load scaled with the
    // drive): the waveforms are then similar and the fitted R must scale
    // inversely with strength. With a fixed small load a strong driver is
    // slew-limited and R is not identifiable — that is physics, not a bug.
    charlib::TheveninSpec s1;
    s1.cell = &lib130().cell("INV_X1");
    s1.input = "a";
    s1.outputRising = true;
    s1.loadCap = 30e-15;
    auto s4 = s1;
    s4.cell = &lib130().cell("INV_X4");
    s4.loadCap = 120e-15;
    const double r1 = charlib::characterizeThevenin(s1).rth;
    const double r4 = charlib::characterizeThevenin(s4).rth;
    EXPECT_LT(r4, r1);
    EXPECT_NEAR(r4, r1 / 4.0, 0.35 * r1 / 4.0);
}

TEST(Propagation, TableIsMonotoneInHeight) {
    charlib::PropagationSpec spec;
    spec.cell = &lib130().cell("NAND2_X1");
    spec.input = "a";
    spec.outputLevel = false;
    spec.heights = {0.2, 0.4, 0.6, 0.8, 1.0, 1.2};
    spec.widths = {100e-12, 200e-12, 400e-12};
    const auto table = charlib::characterizePropagation(spec);
    for (const double w : spec.widths) {
        double prev = -1.0;
        for (const double h : spec.heights) {
            const double p = std::abs(table.peak(h, w));
            EXPECT_GE(p, prev - 1e-4) << "h=" << h << " w=" << w;
            prev = p;
        }
    }
    // Output glitch on a low-held output is positive (toward vdd).
    EXPECT_GT(table.peak(1.2, 400e-12), 0.2);
    EXPECT_DOUBLE_EQ(table.outputBaseline, 0.0);
}

TEST(Propagation, SubthresholdGlitchBarelyPropagates) {
    charlib::PropagationSpec spec;
    spec.cell = &lib130().cell("INV_X1");
    spec.input = "a";
    spec.outputLevel = false;  // input high, output low
    spec.heights = {0.1, 0.25};
    spec.widths = {150e-12, 300e-12};
    const auto table = charlib::characterizePropagation(spec);
    EXPECT_LT(std::abs(table.peak(0.1, 300e-12)), 0.06);
}

TEST(Nrc, CurveIsMonotoneNonIncreasing) {
    charlib::NrcSpec spec;
    spec.cell = &lib130().cell("INV_X2");
    spec.input = "a";
    spec.quietLevel = false;  // quiet low input, upward glitch
    spec.widths = {50e-12, 100e-12, 200e-12, 400e-12, 800e-12};
    const auto nrc = charlib::characterizeNrc(spec);
    const auto& hs = nrc.ys();
    for (std::size_t i = 1; i < hs.size(); ++i) {
        EXPECT_LE(hs[i], hs[i - 1] + 1e-3) << "width idx " << i;
    }
    // Wide glitches fail near the switching threshold; narrow ones need
    // substantially more height.
    EXPECT_GT(hs.front(), hs.back() + 0.05);
    EXPECT_GT(hs.back(), 0.3);   // still above a third of the swing
    EXPECT_LT(hs.back(), 1.0);
}

TEST(InputCap, ChargeMethodAgreesWithAnalytic) {
    for (const char* name : {"INV_X1", "NAND2_X1", "NOR2_X1"}) {
        const auto& c = lib130().cell(name);
        const double analytic = c.inputCapacitance("a");
        const double measured = charlib::measureInputCapacitance(c, "a");
        EXPECT_GT(measured, 0.2 * analytic) << name;
        // The Miller effect can push the effective cap above the static sum;
        // agreement within ~2.5x is the expected physics, not slop.
        EXPECT_LT(measured, 2.5 * analytic) << name;
    }
}

// ------------------------------------------- reused bench vs fresh oracle

// (cell, sensitive input) pairs covering one- to three-input, inverting and
// non-inverting (two-stage) cells.
const std::vector<std::pair<const char*, const char*>>& benchCells() {
    static const std::vector<std::pair<const char*, const char*>> cells{
        {"INV_X1", "a"},   {"NAND2_X1", "a"}, {"NAND2_X1", "b"},
        {"NOR3_X1", "a"},  {"AOI21_X1", "a"}, {"BUF_X2", "a"}};
    return cells;
}

void expectSameGrid(const la::Grid2d& a, const la::Grid2d& b) {
    ASSERT_EQ(a.xs(), b.xs());
    ASSERT_EQ(a.ys(), b.ys());
    for (std::size_t i = 0; i < a.xs().size(); ++i) {
        for (std::size_t j = 0; j < a.ys().size(); ++j) {
            EXPECT_EQ(a.at(i, j), b.at(i, j)) << i << "," << j;
        }
    }
}

void expectSameModel(const charlib::TheveninModel& a,
                     const charlib::TheveninModel& b) {
    EXPECT_EQ(a.vStart, b.vStart);
    EXPECT_EQ(a.vEnd, b.vEnd);
    EXPECT_EQ(a.slew, b.slew);
    EXPECT_EQ(a.rth, b.rth);
    EXPECT_EQ(a.delay, b.delay);
}

TEST(BenchOracle, NrcMatchesFreshFullLengthBisection) {
    for (const auto& [name, pin] : benchCells()) {
        for (const bool quiet : {false, true}) {
            charlib::NrcSpec spec;
            spec.cell = &lib130().cell(name);
            spec.input = pin;
            spec.quietLevel = quiet;
            spec.widths = {15e-12, 120e-12, 700e-12};
            const auto curve = charlib::characterizeNrc(spec);
            const auto oracle = testsupport::referenceNrc(spec);
            EXPECT_EQ(curve.xs(), oracle.xs()) << name << "/" << pin;
            EXPECT_EQ(curve.ys(), oracle.ys())
                << name << "/" << pin << " quiet " << quiet;
        }
    }
}

TEST(BenchOracle, TheveninMatchesFreshFullLengthFit) {
    for (const auto& [name, pin] : benchCells()) {
        for (const bool rising : {false, true}) {
            charlib::TheveninSpec spec;
            spec.cell = &lib130().cell(name);
            spec.input = pin;
            spec.outputRising = rising;
            SCOPED_TRACE(std::string(name) + "/" + pin +
                         (rising ? " rising" : " falling"));
            expectSameModel(charlib::characterizeThevenin(spec),
                            testsupport::referenceThevenin(spec));
        }
    }
}

TEST(BenchOracle, PropagationMatchesFreshCircuits) {
    for (const auto& [name, pin] : benchCells()) {
        for (const bool level : {false, true}) {
            charlib::PropagationSpec spec;
            spec.cell = &lib130().cell(name);
            spec.input = pin;
            spec.outputLevel = level;
            spec.heights = {0.3, 0.9};
            spec.widths = {80e-12, 400e-12};
            SCOPED_TRACE(std::string(name) + "/" + pin + " level " +
                         std::to_string(level));
            const auto table = charlib::characterizePropagation(spec);
            const auto oracle = testsupport::referencePropagation(spec);
            expectSameGrid(table.peak, oracle.peak);
            expectSameGrid(table.area, oracle.area);
            EXPECT_EQ(table.outputBaseline, oracle.outputBaseline);
        }
    }
}

// --------------------------------------------------------- concurrency

TEST(CharCacheConcurrency, TwoThreadsMatchSerialCharacterization) {
    // Each worker characterizes its own NRC and Thevenin specs through one
    // shared cache; every result must equal the serial direct call. Run
    // under TSan this also proves the benches share no mutable state.
    std::vector<charlib::NrcSpec> nrcs(2);
    std::vector<charlib::TheveninSpec> thevs(2);
    const char* cells[2] = {"INV_X1", "NAND2_X1"};
    for (int k = 0; k < 2; ++k) {
        nrcs[k].cell = &lib130().cell(cells[k]);
        nrcs[k].input = "a";
        nrcs[k].quietLevel = k == 1;
        nrcs[k].widths = {100e-12, 400e-12};
        thevs[k].cell = &lib130().cell(cells[1 - k]);
        thevs[k].input = "a";
        thevs[k].outputRising = k == 0;
    }

    charlib::CharCache cache;
    std::vector<std::shared_ptr<const la::Grid1d>> nrcOut(2);
    std::vector<std::shared_ptr<const charlib::TheveninModel>> thevOut(2);
    std::vector<std::thread> workers;
    for (int k = 0; k < 2; ++k) {
        workers.emplace_back([&, k] {
            nrcOut[k] = cache.nrc(nrcs[k]);
            thevOut[k] = cache.thevenin(thevs[k]);
        });
    }
    for (auto& w : workers) w.join();

    for (int k = 0; k < 2; ++k) {
        EXPECT_EQ(nrcOut[k]->ys(), charlib::characterizeNrc(nrcs[k]).ys());
        expectSameModel(*thevOut[k], charlib::characterizeThevenin(thevs[k]));
    }
    EXPECT_EQ(cache.stats().nrcRuns, 2u);
    EXPECT_EQ(cache.stats().theveninRuns, 2u);
}

}  // namespace
