// Tests for the SPICE engine: MNA assembly, DC Newton, transient accuracy,
// device physics, KCL invariants, and bitwise equivalence of the in-place
// dense solver with the triplet-list reference.
#include <gtest/gtest.h>

#include <cmath>

#include "la/dense.hpp"
#include "la/sparse.hpp"
#include "spice/circuit.hpp"
#include "spice/dc.hpp"
#include "spice/tran.hpp"
#include "util/cancel.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "waveform/metrics.hpp"
#include "waveform/sources.hpp"

namespace {

using namespace sna;
using spice::Circuit;
using spice::SourceSpec;

// ---------------------------------------------------------------- DC basics

TEST(Dc, ResistorDivider) {
    Circuit c;
    const auto vdd = c.node("vdd");
    const auto mid = c.node("mid");
    c.addVSource("v1", vdd, spice::kGround, SourceSpec::dc(3.0));
    c.addResistor("r1", vdd, mid, 1000.0);
    c.addResistor("r2", mid, spice::kGround, 2000.0);
    const auto dc = spice::solveDc(c);
    // gmin (1e-12 S per node) loads the divider by a few nV; that is the
    // accepted SPICE-engine behavior, not an error.
    EXPECT_NEAR(dc.voltage("mid"), 2.0, 1e-7);
    EXPECT_NEAR(dc.voltage("vdd"), 3.0, 1e-12);
    // Source delivers V/(R1+R2) = 1 mA.
    EXPECT_NEAR(dc.sourceCurrent("v1"), 1e-3, 1e-9);
}

TEST(Dc, CurrentSourceIntoResistor) {
    Circuit c;
    const auto n = c.node("n");
    c.addISource("i1", spice::kGround, n, SourceSpec::dc(2e-3));
    c.addResistor("r1", n, spice::kGround, 500.0);
    const auto dc = spice::solveDc(c);
    EXPECT_NEAR(dc.voltage("n"), 1.0, 1e-9);
}

TEST(Dc, FloatingVSourceUsesBranchEquation) {
    // 3 V across a floating source stacked on a 1 V grounded source.
    Circuit c;
    const auto a = c.node("a");
    const auto b = c.node("b");
    c.addVSource("vbase", a, spice::kGround, SourceSpec::dc(1.0));
    c.addVSource("vstack", b, a, SourceSpec::dc(3.0));
    c.addResistor("rl", b, spice::kGround, 1e4);
    const auto dc = spice::solveDc(c);
    EXPECT_NEAR(dc.voltage("b"), 4.0, 1e-9);
}

TEST(Dc, VcvsAmplifies) {
    Circuit c;
    const auto in = c.node("in");
    const auto out = c.node("out");
    c.addVSource("vin", in, spice::kGround, SourceSpec::dc(0.25));
    c.addVcvs("e1", out, spice::kGround, in, spice::kGround, 4.0);
    c.addResistor("rl", out, spice::kGround, 1e3);
    const auto dc = spice::solveDc(c);
    EXPECT_NEAR(dc.voltage("out"), 1.0, 1e-9);
}

TEST(Dc, LinearVccs) {
    Circuit c;
    const auto in = c.node("in");
    const auto out = c.node("out");
    c.addVSource("vin", in, spice::kGround, SourceSpec::dc(1.0));
    // i = gm*vin pulled out of `out` node through the source into ground.
    c.addVccs("g1", out, spice::kGround, in, spice::kGround, 1e-3);
    c.addResistor("rl", out, spice::kGround, 1e3);
    const auto dc = spice::solveDc(c);
    // KCL: current leaves `out` through the VCCS, resistor pulls it up from
    // ground: v(out) = -gm*vin*R = -1 V.
    EXPECT_NEAR(dc.voltage("out"), -1.0, 1e-9);
}

TEST(Dc, TwoSourcesOnOneNodeIsModelError) {
    Circuit c;
    const auto n = c.node("n");
    c.addVSource("v1", n, spice::kGround, SourceSpec::dc(1.0));
    c.addVSource("v2", n, spice::kGround, SourceSpec::dc(2.0));
    EXPECT_THROW(spice::solveDc(c), ModelError);
}

TEST(Dc, TableVccsPullsNodeToTableRoot) {
    // Table i(vin, vout) = (vout - 0.5) * 1e-3 regardless of vin: a 1 kOhm
    // Norton equivalent pulling the node to 0.5 V.
    std::vector<double> vin{0.0, 1.0};
    std::vector<double> vout{0.0, 1.0};
    std::vector<double> z;
    for (double x : vin) {
        (void)x;
        for (double y : vout) z.push_back((y - 0.5) * 1e-3);
    }
    Circuit c;
    const auto out = c.node("out");
    const auto in = c.node("in");
    c.addVSource("vin", in, spice::kGround, SourceSpec::dc(0.3));
    c.addTableVccs("t1", out, in, la::Grid2d(vin, vout, z));
    const auto dc = spice::solveDc(c);
    EXPECT_NEAR(dc.voltage("out"), 0.5, 1e-6);
}

// ---------------------------------------------------------------- MOSFET

spice::MosModel nmosModel() {
    spice::MosModel m;
    m.type = spice::MosType::Nmos;
    m.vt0 = 0.4;
    m.kp = 200e-6;
    m.lambda = 0.05;
    m.gamma = 0.2;
    m.phi = 0.7;
    return m;
}

spice::MosModel pmosModel() {
    spice::MosModel m = nmosModel();
    m.type = spice::MosType::Pmos;
    m.vt0 = 0.42;
    m.kp = 80e-6;
    return m;
}

TEST(Mosfet, RegionsOfLevel1) {
    const auto m = nmosModel();
    const double beta = m.kp * 2.0;  // W/L = 2
    // Cutoff.
    EXPECT_DOUBLE_EQ(spice::evalLevel1(m, beta, 0.2, 0.5, 0.0).ids, 0.0);
    // Saturation: vds > vgst.
    const auto sat = spice::evalLevel1(m, beta, 1.0, 1.0, 0.0);
    const double vgst = 1.0 - m.vt0;
    EXPECT_NEAR(sat.ids, 0.5 * beta * vgst * vgst * (1 + m.lambda * 1.0), 1e-12);
    EXPECT_GT(sat.gm, 0.0);
    EXPECT_GT(sat.gds, 0.0);
    // Triode: vds < vgst.
    const auto tri = spice::evalLevel1(m, beta, 1.2, 0.1, 0.0);
    EXPECT_NEAR(tri.ids, beta * ((1.2 - m.vt0) - 0.05) * 0.1 * (1 + 0.005),
                1e-12);
}

TEST(Mosfet, ContinuousAcrossTriodeSatBoundary) {
    const auto m = nmosModel();
    const double beta = m.kp;
    const double vgst = 0.6;
    const auto below = spice::evalLevel1(m, beta, vgst + m.vt0, vgst - 1e-9, 0.0);
    const auto above = spice::evalLevel1(m, beta, vgst + m.vt0, vgst + 1e-9, 0.0);
    EXPECT_NEAR(below.ids, above.ids, 1e-9);
    EXPECT_NEAR(below.gm, above.gm, 1e-6);
}

TEST(Mosfet, BodyEffectRaisesThreshold) {
    const auto m = nmosModel();
    const auto noBias = spice::evalLevel1(m, m.kp, 0.8, 1.0, 0.0);
    const auto revBias = spice::evalLevel1(m, m.kp, 0.8, 1.0, -0.5);
    EXPECT_GT(noBias.ids, revBias.ids);
    EXPECT_GT(revBias.gmbs, 0.0);
}

class MosfetMonotonic : public ::testing::TestWithParam<double> {};

TEST_P(MosfetMonotonic, IdsIncreasesWithVgsAndVds) {
    const auto m = nmosModel();
    const double vds = GetParam();
    double prev = -1.0;
    for (double vgs = 0.0; vgs <= 1.3; vgs += 0.05) {
        const double ids = spice::evalLevel1(m, m.kp, vgs, vds, 0.0).ids;
        EXPECT_GE(ids, prev - 1e-15);
        prev = ids;
    }
    double prevD = -1.0;
    for (double v = 0.0; v <= 1.3; v += 0.05) {
        const double ids = spice::evalLevel1(m, m.kp, 1.2, v, 0.0).ids;
        EXPECT_GE(ids, prevD - 1e-15);
        prevD = ids;
    }
}

INSTANTIATE_TEST_SUITE_P(VdsSweep, MosfetMonotonic,
                         ::testing::Values(0.05, 0.2, 0.6, 1.0, 1.2));

TEST(Mosfet, LinearizationMatchesFiniteDifference) {
    Circuit c;
    const auto d = c.node("d");
    const auto g = c.node("g");
    const auto s = c.node("s");
    const auto b = c.node("b");
    auto& fet = c.addMosfet("m1", d, g, s, b, nmosModel(), 1e-6, 0.13e-6,
                            /*withParasitics=*/false);
    util::Rng rng(3);
    for (int k = 0; k < 50; ++k) {
        const double vd = rng.uniform(-0.3, 1.5);
        const double vg = rng.uniform(-0.3, 1.5);
        const double vs = rng.uniform(-0.3, 1.5);
        const double vb = rng.uniform(-0.3, 0.0);
        const auto lin = fet.linearize(vd, vg, vs, vb);
        const double h = 1e-7;
        const double dId =
            (fet.linearize(vd + h, vg, vs, vb).id - fet.linearize(vd - h, vg, vs, vb).id) /
            (2 * h);
        const double dIg =
            (fet.linearize(vd, vg + h, vs, vb).id - fet.linearize(vd, vg - h, vs, vb).id) /
            (2 * h);
        const double dIs =
            (fet.linearize(vd, vg, vs + h, vb).id - fet.linearize(vd, vg, vs - h, vb).id) /
            (2 * h);
        // Finite differences straddling a region boundary are allowed to
        // disagree; tolerate a small absolute band.
        EXPECT_NEAR(lin.dVd, dId, 5e-4 + 0.02 * std::abs(dId));
        EXPECT_NEAR(lin.dVg, dIg, 5e-4 + 0.02 * std::abs(dIg));
        EXPECT_NEAR(lin.dVs, dIs, 5e-4 + 0.02 * std::abs(dIs));
    }
}

// Build a CMOS inverter: returns (circuit, in, out nodes).
struct InverterFixture {
    Circuit c;
    spice::NodeId in, out, vdd;
    double supply = 1.2;

    explicit InverterFixture(double wp = 2e-6, double wn = 1e-6) {
        vdd = c.node("vdd");
        in = c.node("in");
        out = c.node("out");
        c.addVSource("vsupply", vdd, spice::kGround, SourceSpec::dc(supply));
        c.addMosfet("mp", out, in, vdd, vdd, pmosModel(), wp, 0.13e-6);
        c.addMosfet("mn", out, in, spice::kGround, spice::kGround, nmosModel(),
                    wn, 0.13e-6);
    }
};

TEST(Dc, InverterRails) {
    InverterFixture f;
    f.c.addVSource("vin", f.in, spice::kGround, SourceSpec::dc(0.0));
    auto dc = spice::solveDc(f.c);
    EXPECT_NEAR(dc.voltage("out"), 1.2, 1e-3);

    InverterFixture g;
    g.c.addVSource("vin", g.in, spice::kGround, SourceSpec::dc(1.2));
    dc = spice::solveDc(g.c);
    EXPECT_NEAR(dc.voltage("out"), 0.0, 1e-3);
}

TEST(Dc, InverterVtcIsMonotonicDecreasing) {
    InverterFixture f;
    auto& vin = f.c.addVSource("vin", f.in, spice::kGround, SourceSpec::dc(0.0));
    double prev = 1e9;
    la::Vector warm;
    for (double v = 0.0; v <= 1.2 + 1e-9; v += 0.05) {
        vin.setSpec(SourceSpec::dc(v));
        const auto dc = spice::solveDc(f.c, {},
                                       warm.empty() ? nullptr : &warm);
        warm = dc.raw();
        const double out = dc.voltage("out");
        EXPECT_LE(out, prev + 1e-6) << "VTC not monotonic at vin=" << v;
        prev = out;
    }
}

TEST(Dc, KclHoldsAtEveryInternalNode) {
    // Property: at DC, the device currents into every free node sum to ~0.
    InverterFixture f;
    f.c.addVSource("vin", f.in, spice::kGround, SourceSpec::dc(0.6));
    const auto dc = spice::solveDc(f.c);
    // Rebuild an eval context equivalent via sourceCurrent: use KCL through
    // the public API: current delivered by supply equals current sunk by
    // the NMOS (out node is internal, so check via the two fets directly).
    const double iSupply = dc.sourceCurrent("vsupply");
    EXPECT_GT(std::abs(iSupply), 1e-9);  // inverter mid-swing draws current
    // Input draws no DC current.
    EXPECT_NEAR(dc.sourceCurrent("vin"), 0.0, 1e-9);
}

// -------------------------------------------------------------- transient

TEST(Tran, RcStepMatchesAnalytic) {
    // R = 1k, C = 1pF driven by a fast ramp step to 1 V: v(t) ~ 1-exp(-t/RC).
    Circuit c;
    const auto in = c.node("in");
    const auto out = c.node("out");
    const double r = 1000.0, cap = 1e-12;
    c.addVSource("vin", in, spice::kGround,
                 SourceSpec::pwl(wave::saturatedRamp(0, 1, 1e-11, 1e-12, 1e-8)));
    c.addResistor("r1", in, out, r);
    c.addCapacitor("c1", out, spice::kGround, cap);
    spice::TranOptions opt;
    opt.tstop = 8e-9;
    const auto res = spice::simulateTransient(c, opt);
    const auto& w = res.waveform("out");
    const double t0 = 1.1e-11;  // after the input settles
    for (double t = 2e-10; t < 7e-9; t += 3e-10) {
        const double expected = 1.0 - std::exp(-(t - t0) / (r * cap));
        EXPECT_NEAR(w.value(t), expected, 6e-3) << "t=" << t;
    }
}

TEST(Tran, RcChargeConservation) {
    // Current integral through the resistor equals the final capacitor
    // charge: integrate (vin - vout)/R dt ~= C * vout(tstop).
    Circuit c;
    const auto in = c.node("in");
    const auto out = c.node("out");
    const double r = 2000.0, cap = 2e-12;
    c.addVSource("vin", in, spice::kGround,
                 SourceSpec::pwl(wave::saturatedRamp(0, 1, 0, 1e-11, 1e-7)));
    c.addResistor("r1", in, out, r);
    c.addCapacitor("c1", out, spice::kGround, cap);
    spice::TranOptions opt;
    opt.tstop = 5e-8;  // >> RC: fully charged
    const auto res = spice::simulateTransient(c, opt);
    const auto diff = res.waveform("in").minus(res.waveform("out"));
    const double charge = wave::integrate(diff) / r;
    EXPECT_NEAR(charge, cap * res.waveform("out").value(5e-8), cap * 0.02);
}

TEST(Tran, CoupledCapsInjectGlitch) {
    // Classic two-net crosstalk: victim held by a resistor, aggressor steps.
    Circuit c;
    const auto agg = c.node("agg");
    const auto vic = c.node("vic");
    c.addVSource("va", agg, spice::kGround,
                 SourceSpec::pwl(wave::saturatedRamp(0, 1.2, 1e-10, 5e-11, 1e-8)));
    c.addResistor("rhold", vic, spice::kGround, 1000.0);
    c.addCapacitor("cc", agg, vic, 20e-15);
    c.addCapacitor("cg", vic, spice::kGround, 30e-15);
    spice::TranOptions opt;
    opt.tstop = 2e-9;
    const auto res = spice::simulateTransient(c, opt);
    const auto m = wave::measureGlitch(res.waveform("vic"), 0.0);
    EXPECT_GT(m.peak, 0.05);   // a visible upward glitch
    EXPECT_LT(m.peak, 1.2);    // but bounded by the aggressor swing
    // Glitch decays back to the baseline.
    EXPECT_NEAR(res.waveform("vic").value(2e-9), 0.0, 1e-3);
}

TEST(Tran, InverterSwitchesWithDelay) {
    InverterFixture f;
    f.c.addVSource("vin", f.in, spice::kGround,
                   SourceSpec::pwl(wave::saturatedRamp(0, 1.2, 2e-10, 5e-11,
                                                       4e-9)));
    f.c.addCapacitor("cload", f.out, spice::kGround, 10e-15);
    spice::TranOptions opt;
    opt.tstop = 4e-9;
    const auto res = spice::simulateTransient(f.c, opt);
    const auto& out = res.waveform("out");
    EXPECT_NEAR(out.value(0.0), 1.2, 2e-2);
    EXPECT_NEAR(out.value(4e-9), 0.0, 2e-2);
    // Output crosses VDD/2 after the input does (causality / finite delay).
    const double tInCross = 2e-10 + 5e-11 * 0.5;
    double tOutCross = 0.0;
    for (const auto& s : out.samples()) {
        if (s.v < 0.6) {
            tOutCross = s.t;
            break;
        }
    }
    EXPECT_GT(tOutCross, tInCross);
}

TEST(Tran, TrapezoidalBeatsEulerOnEnergy) {
    // LC-free sanity: adaptive trap keeps the RC response within tolerance
    // even with a coarse dtMax (the LTE controller must refine).
    Circuit c;
    const auto in = c.node("in");
    const auto out = c.node("out");
    c.addVSource("vin", in, spice::kGround,
                 SourceSpec::pwl(wave::saturatedRamp(0, 1, 0, 1e-11, 1e-7)));
    c.addResistor("r1", in, out, 1e4);
    c.addCapacitor("c1", out, spice::kGround, 1e-12);
    spice::TranOptions opt;
    opt.tstop = 5e-8;
    opt.dtMax = 5e-9;
    const auto res = spice::simulateTransient(c, opt);
    for (double t = 5e-9; t < 5e-8; t += 5e-9) {
        const double expected = 1.0 - std::exp(-t / 1e-8);
        EXPECT_NEAR(res.waveform("out").value(t), expected, 8e-3);
    }
}

TEST(Tran, StatsAreReported) {
    Circuit c;
    const auto n = c.node("n");
    c.addVSource("v", n, spice::kGround, SourceSpec::dc(1.0));
    c.addResistor("r", n, spice::kGround, 1.0);
    spice::TranOptions opt;
    opt.tstop = 1e-9;
    const auto res = spice::simulateTransient(c, opt);
    EXPECT_GT(res.stats().accepted, 10u);
    EXPECT_TRUE(res.has("n"));
    EXPECT_FALSE(res.has("nope"));
    EXPECT_THROW(res.waveform("nope"), LogicError);
}

TEST(Tran, RejectsNonPositiveStop) {
    Circuit c;
    c.addResistor("r", c.node("a"), spice::kGround, 1.0);
    spice::TranOptions opt;
    opt.tstop = 0.0;
    EXPECT_THROW(spice::simulateTransient(c, opt), LogicError);
}

// ------------------------------------------------------ solver equivalence
//
// The Newton core stamps straight into a reused dense matrix and factors it
// in place. These tests pin it, bit for bit, to the straightforward path:
// stamp a triplet list, copy it with toDense(), factor the copy by value.

// Reference damped Newton over SparseMatrix + toDense + solveDense, with the
// same convergence and damping rules as spice::solveNewton.
spice::NewtonStats referenceNewton(spice::MnaMap& map, la::Vector& x,
                                   double time, double dt,
                                   spice::Integration method, bool transient,
                                   const la::Vector* xPrev,
                                   const std::vector<double>* statePrev) {
    const spice::NewtonOptions opt;
    map.updateFixed(time, 1.0);
    la::SparseMatrix j(map.unknowns());
    la::Vector rhs(map.unknowns(), 0.0);
    spice::NewtonStats stats;
    for (int iter = 0; iter < opt.maxIterations; ++iter) {
        ++stats.iterations;
        const spice::EvalContext ctx(map, x, xPrev, time, dt, method,
                                     transient, 1.0, statePrev, nullptr);
        map.assemble(j, rhs, ctx);
        const la::Vector xNew = la::solveDense(j.toDense(), rhs);
        double worst = 0.0;
        for (std::size_t i = 0; i < x.size(); ++i) {
            worst = std::max(worst, std::abs(xNew[i] - x[i]));
        }
        if (worst <= opt.vtol) {
            x = xNew;
            stats.converged = true;
            return stats;
        }
        const double scale = (worst > opt.maxStep) ? opt.maxStep / worst : 1.0;
        for (std::size_t i = 0; i < x.size(); ++i) {
            x[i] += scale * (xNew[i] - x[i]);
        }
    }
    return stats;
}

// Dense assembly equals toDense() of the triplet assembly, entry by entry.
void expectSameAssembly(const spice::MnaMap& map,
                        const spice::EvalContext& ctx) {
    const std::size_t n = map.unknowns();
    la::SparseMatrix trips(n);
    la::Vector rhsSparse(n, 0.0);
    map.assemble(trips, rhsSparse, ctx);
    la::DenseMatrix dense(n, n);
    la::Vector rhsDense(n, 0.0);
    map.assemble(dense, rhsDense, ctx);
    EXPECT_EQ(dense.data(), trips.toDense().data());
    EXPECT_EQ(rhsDense, rhsSparse);
}

// DC Newton and one trapezoidal transient Newton from the DC point, on the
// in-place path and the reference path: same iterations, same bits.
void expectNewtonBitwise(const Circuit& c) {
    spice::MnaMap inPlace(c);
    spice::MnaMap reference(c);
    ASSERT_TRUE(inPlace.usesDense());
    const std::size_t n = inPlace.unknowns();

    la::Vector xa(n, 0.0);
    la::Vector xb(n, 0.0);
    const auto sa = spice::solveNewton(
        inPlace, xa, 0.0, 0.0, spice::Integration::BackwardEuler, false, 1.0,
        nullptr, nullptr, spice::NewtonOptions{});
    const auto sb = referenceNewton(reference, xb, 0.0, 0.0,
                                    spice::Integration::BackwardEuler, false,
                                    nullptr, nullptr);
    ASSERT_TRUE(sa.converged);
    EXPECT_EQ(sa.iterations, sb.iterations);
    EXPECT_EQ(xa, xb);

    // Nonzero capacitor/branch history exercises every companion term.
    std::vector<double> state(inPlace.stateSlots());
    for (std::size_t i = 0; i < state.size(); ++i) {
        state[i] = 1e-6 * static_cast<double>(i + 1);
    }
    const la::Vector xPrev = xa;
    const double dt = 2e-11;
    for (const auto method :
         {spice::Integration::BackwardEuler, spice::Integration::Trapezoidal}) {
        const auto ta = spice::solveNewton(inPlace, xa, dt, dt, method, true,
                                           1.0, &xPrev, &state,
                                           spice::NewtonOptions{});
        const auto tb = referenceNewton(reference, xb, dt, dt, method, true,
                                        &xPrev, &state);
        EXPECT_TRUE(ta.converged);
        EXPECT_EQ(ta.iterations, tb.iterations);
        EXPECT_EQ(xa, xb);
        const spice::EvalContext ctx(inPlace, xa, &xPrev, dt, dt, method, true,
                                     1.0, &state, nullptr);
        expectSameAssembly(inPlace, ctx);
    }
}

TEST(SolverEquivalence, InverterInPlaceNewtonMatchesTripletReference) {
    InverterFixture f;
    f.c.addVSource("vin", f.in, spice::kGround,
                   SourceSpec::pwl(wave::saturatedRamp(0, 1.2, 0.0, 5e-11,
                                                       1e-9)));
    f.c.addCapacitor("cload", f.out, spice::kGround, 10e-15);
    expectNewtonBitwise(f.c);
}

TEST(SolverEquivalence, CoupledRcPairInPlaceNewtonMatchesTripletReference) {
    Circuit c;
    const auto agg = c.node("agg");
    const auto vic = c.node("vic");
    const auto aggFar = c.node("agg_far");
    const auto vicFar = c.node("vic_far");
    c.addVSource("va", agg, spice::kGround,
                 SourceSpec::pwl(wave::saturatedRamp(0, 1.2, 0.0, 5e-11, 1e-9)));
    c.addResistor("rhold", vic, spice::kGround, 1000.0);
    c.addResistor("ra", agg, aggFar, 250.0);
    c.addResistor("rv", vic, vicFar, 250.0);
    c.addCapacitor("cc_near", agg, vic, 12e-15);
    c.addCapacitor("cc_far", aggFar, vicFar, 9e-15);
    c.addCapacitor("cg_vic", vicFar, spice::kGround, 30e-15);
    c.addCapacitor("cg_agg", aggFar, spice::kGround, 25e-15);
    expectNewtonBitwise(c);
}

TEST(SolverEquivalence, VcvsBranchCircuitInPlaceNewtonMatchesTripletReference) {
    Circuit c;
    const auto in = c.node("in");
    const auto mid = c.node("mid");
    const auto out = c.node("out");
    const auto top = c.node("top");
    c.addVSource("vin", in, spice::kGround,
                 SourceSpec::pwl(wave::saturatedRamp(0, 0.5, 0.0, 5e-11, 1e-9)));
    c.addResistor("r1", in, mid, 1e3);
    c.addCapacitor("c1", mid, spice::kGround, 20e-15);
    c.addVcvs("e1", out, spice::kGround, mid, spice::kGround, 2.0);
    c.addVSource("vstack", top, out, SourceSpec::dc(0.3));  // floating
    c.addResistor("rl", top, spice::kGround, 5e3);
    c.addCapacitor("cl", top, spice::kGround, 15e-15);
    expectNewtonBitwise(c);
}

TEST(SolverEquivalence, DenseLuMatchesInPlaceFactorization) {
    // Row r's dominant entry sits in column r+1 (mod n), so partial
    // pivoting picks every pivot from the row above: a 6-cycle.
    const std::size_t n = 6;
    util::Rng rng(7);
    la::DenseMatrix a(n, n);
    for (std::size_t r = 0; r < n; ++r) {
        for (std::size_t c = 0; c < n; ++c) a(r, c) = rng.uniform(-1.0, 1.0);
    }
    for (std::size_t r = 0; r < n; ++r) a(r, (r + 1) % n) += 10.0;

    const la::DenseLu lu(a);
    la::DenseMatrix factors = a;
    std::vector<std::size_t> perm;
    const int sign = la::luFactorInPlace(factors, perm);

    double det = sign;
    for (std::size_t i = 0; i < n; ++i) det *= factors(i, i);
    EXPECT_EQ(lu.determinant(), det);
    EXPECT_EQ(std::signbit(lu.determinant()), std::signbit(det));
    EXPECT_EQ(sign, -1);  // a 6-cycle is an odd permutation

    // Solving every basis vector exposes the whole factorization.
    la::Vector work;
    for (std::size_t k = 0; k < n; ++k) {
        la::Vector e(n, 0.0);
        e[k] = 1.0;
        la::Vector viaInPlace = e;
        la::luSolveInPlace(factors, perm, viaInPlace, work);
        EXPECT_EQ(lu.solve(e), viaInPlace) << "column " << k;
    }
}

// ------------------------------------------------------------------ probes

void expectSameWaveform(const wave::Waveform& a, const wave::Waveform& b) {
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a.samples()[i].t, b.samples()[i].t) << "sample " << i;
        EXPECT_EQ(a.samples()[i].v, b.samples()[i].v) << "sample " << i;
    }
}

TEST(TranProbes, ProbedWaveformMatchesFullRecording) {
    InverterFixture f;
    f.c.addVSource("vin", f.in, spice::kGround,
                   SourceSpec::pwl(wave::saturatedRamp(0, 1.2, 2e-10, 5e-11,
                                                       2e-9)));
    f.c.addCapacitor("cload", f.out, spice::kGround, 10e-15);
    spice::TranOptions opt;
    opt.tstop = 2e-9;
    const auto full = spice::simulateTransient(f.c, opt);
    opt.probes = {"out"};
    const auto probed = spice::simulateTransient(f.c, opt);

    EXPECT_TRUE(probed.has("out"));
    EXPECT_FALSE(probed.has("in"));
    EXPECT_FALSE(probed.has("vdd"));
    expectSameWaveform(probed.waveform("out"), full.waveform("out"));
    EXPECT_EQ(probed.stats().accepted, full.stats().accepted);
    EXPECT_EQ(probed.stats().newtonIterations, full.stats().newtonIterations);
}

TEST(TranProbes, UnknownOrGroundProbeThrows) {
    Circuit c;
    const auto n = c.node("n");
    c.addVSource("v", n, spice::kGround, SourceSpec::dc(1.0));
    c.addResistor("r", n, spice::kGround, 1.0);
    spice::TranOptions opt;
    opt.tstop = 1e-9;
    opt.probes = {"nope"};
    EXPECT_THROW(spice::simulateTransient(c, opt), LogicError);
    opt.probes = {"0"};
    EXPECT_THROW(spice::simulateTransient(c, opt), LogicError);
}

TEST(TranProbes, ReusedEngineMatchesFreshRunsAfterReArming) {
    // Between runs only the source spec changes; each run of the reused
    // engine must be bitwise a fresh simulateTransient.
    Circuit c;
    const auto agg = c.node("agg");
    const auto vic = c.node("vic");
    auto& src = c.addVSource("va", agg, spice::kGround, SourceSpec::dc(0.0));
    c.addResistor("rhold", vic, spice::kGround, 1000.0);
    c.addCapacitor("cc", agg, vic, 20e-15);
    c.addCapacitor("cg", vic, spice::kGround, 30e-15);
    spice::TranOptions opt;
    opt.tstop = 2e-9;
    opt.probes = {"vic"};
    spice::TransientEngine engine(c);
    for (const double t0 : {3e-10, 0.0, 1.2e-9, 3e-10}) {
        src.setSpec(t0 > 0.0 ? SourceSpec::pwl(wave::saturatedRamp(
                                   0, 1.2, t0, 5e-11, opt.tstop))
                             : SourceSpec::dc(0.6));
        const auto reused = engine.run(opt);
        const auto fresh = spice::simulateTransient(c, opt);
        expectSameWaveform(reused.waveform("vic"), fresh.waveform("vic"));
    }
}

// --------------------------------------------------------------- early stop

// Inverter whose output falls from vdd once the input ramps up at 0.2 ns.
spice::TranOptions fallingInverter(InverterFixture& f) {
    f.c.addVSource("vin", f.in, spice::kGround,
                   SourceSpec::pwl(wave::saturatedRamp(0, 1.2, 2e-10, 5e-11,
                                                       2e-9)));
    f.c.addCapacitor("cload", f.out, spice::kGround, 10e-15);
    spice::TranOptions opt;
    opt.tstop = 2e-9;
    opt.probes = {"out", "in"};
    return opt;
}

TEST(TranEarlyStop, StoppedWaveformIsBitwisePrefixOfFullRun) {
    InverterFixture f;
    auto opt = fallingInverter(f);
    const auto full = spice::simulateTransient(f.c, opt);
    opt.stopWhen = [](double, double v) { return v < 0.6; };
    const auto stopped = spice::simulateTransient(f.c, opt);
    EXPECT_FALSE(full.stopped());
    EXPECT_TRUE(stopped.stopped());

    // The run ends on the first sample of probes[0] below 0.6 V; every
    // probe's samples up to there are the full run's, bit for bit.
    const auto& fullOut = full.waveform("out").samples();
    std::size_t first = 0;
    while (fullOut[first].v >= 0.6) ++first;
    for (const char* node : {"out", "in"}) {
        const auto& a = stopped.waveform(node).samples();
        const auto& b = full.waveform(node).samples();
        ASSERT_EQ(a.size(), first + 1) << node;
        for (std::size_t i = 0; i < a.size(); ++i) {
            EXPECT_EQ(a[i].t, b[i].t) << node << " sample " << i;
            EXPECT_EQ(a[i].v, b[i].v) << node << " sample " << i;
        }
    }
    EXPECT_LT(stopped.stats().accepted, full.stats().accepted);
}

TEST(TranEarlyStop, PredicateThatNeverFiresGivesTheFullRun) {
    InverterFixture f;
    auto opt = fallingInverter(f);
    const auto full = spice::simulateTransient(f.c, opt);
    std::size_t calls = 0;
    opt.stopWhen = [&calls](double, double) {
        ++calls;
        return false;
    };
    const auto run = spice::simulateTransient(f.c, opt);
    EXPECT_FALSE(run.stopped());
    expectSameWaveform(run.waveform("out"), full.waveform("out"));
    expectSameWaveform(run.waveform("in"), full.waveform("in"));
    EXPECT_EQ(run.stats().accepted, full.stats().accepted);
    EXPECT_EQ(run.stats().rejected, full.stats().rejected);
    EXPECT_EQ(run.stats().newtonIterations, full.stats().newtonIterations);
    // Called once per recorded sample, the DC point included.
    EXPECT_EQ(calls, full.waveform("out").size());
}

TEST(TranEarlyStop, PredicateFiringOnTheDcSampleYieldsOneSample) {
    InverterFixture f;
    auto opt = fallingInverter(f);
    const auto full = spice::simulateTransient(f.c, opt);
    opt.stopWhen = [](double t, double) { return t == 0.0; };
    const auto run = spice::simulateTransient(f.c, opt);
    EXPECT_TRUE(run.stopped());
    ASSERT_EQ(run.waveform("out").size(), 1u);
    EXPECT_EQ(run.waveform("out").samples()[0].t, 0.0);
    EXPECT_EQ(run.waveform("out").samples()[0].v,
              full.waveform("out").samples()[0].v);
    EXPECT_EQ(run.stats().accepted, 0u);
}

TEST(TranEarlyStop, CancelledTokenUnwindsARunWithAPredicate) {
    // The token trips mid-run (from the predicate, which never fires); the
    // next step's cancellation poll must still unwind the transient.
    InverterFixture f;
    auto opt = fallingInverter(f);
    util::CancelToken token;
    std::size_t calls = 0;
    opt.stopWhen = [&](double, double) {
        if (++calls == 10) token.cancel();
        return false;
    };
    const util::CancelScope scope(&token);
    EXPECT_THROW(spice::simulateTransient(f.c, opt), util::CancelledError);
    EXPECT_EQ(calls, 10u);
}

TEST(TranEarlyStop, PredicateNeedsANamedProbe) {
    InverterFixture f;
    auto opt = fallingInverter(f);
    opt.probes.clear();
    opt.stopWhen = [](double, double) { return false; };
    EXPECT_THROW(spice::simulateTransient(f.c, opt), LogicError);
}

}  // namespace
