// Tests for the noise core: macromodel accuracy vs golden, baseline
// underestimation (the paper's thesis), alignment search, NRC reports, and
// the design-level flow.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <random>

#include "core/alignment.hpp"
#include "core/baselines.hpp"
#include "core/report.hpp"
#include "core/sna.hpp"
#include "interconnect/parallel_bus.hpp"
#include "spice/tran.hpp"
#include "testsupport/oracles.hpp"
#include "util/error.hpp"
#include "waveform/sources.hpp"

namespace {

using namespace sna;
using core::AggressorSpec;
using core::ClusterMacromodel;
using core::ClusterSpec;

ClusterSpec paperCluster(double glitchFraction = 0.7, int aggressors = 1) {
    ClusterSpec spec;
    spec.victim.driverCell = "NAND2_X1";
    spec.victim.glitchInput = "a";
    spec.victim.outputLevel = false;
    spec.victim.glitchHeight = glitchFraction > 0.0
                                   ? glitchFraction * spec.technology->vdd
                                   : 0.0;
    spec.victim.glitchWidth = 250e-12;
    for (int a = 0; a < aggressors; ++a) {
        AggressorSpec agg;
        agg.driverCell = "INV_X2";
        agg.outputRising = true;
        spec.aggressors.push_back(agg);
    }
    spec.segments = 12;
    return spec;
}

TEST(Macromodel, DescribeListsFigure1Elements) {
    const ClusterMacromodel model(paperCluster());
    const std::string d = model.describe();
    EXPECT_NE(d.find("VCCS I_DC"), std::string::npos);
    EXPECT_NE(d.find("Thevenin V_TH"), std::string::npos);
    EXPECT_NE(d.find("coupled-Pi"), std::string::npos);
    EXPECT_NE(d.find("receiver"), std::string::npos);
}

TEST(Macromodel, HoldingPointIsQuiet) {
    const ClusterMacromodel model(paperCluster());
    // I_DC at the holding point is ~0 and the holding resistance is the
    // kOhm-scale NMOS stack resistance.
    EXPECT_NEAR(model.loadCurve()(model.inputHoldLevel(),
                                  model.outputHoldLevel()),
                0.0, 5e-6);
    EXPECT_GT(model.victimHoldingResistance(), 100.0);
    EXPECT_LT(model.victimHoldingResistance(), 1e4);
}

TEST(Macromodel, QuietClusterStaysQuiet) {
    // No propagated glitch and the aggressor switching only at 2.4 ns: the
    // victim driving point must sit at its baseline until then.
    ClusterSpec spec = paperCluster(0.0);
    const ClusterMacromodel model(spec);
    const auto r = model.analyzeAt({2.4e-9}, 0.0);
    const auto quietPart = r.waveform.window(0.0, 2.3e-9);
    EXPECT_LT(std::abs(wave::measureGlitch(quietPart, 0.0).peak), 0.01);
    // ... and the late aggressor still injects once it fires.
    EXPECT_GT(std::abs(r.metrics.peak), 0.1);
}

struct AccuracyCase {
    const tech::Technology* tech;
    const char* victim;
    int aggressors;
    double glitchFraction;
    double lengthUm;
};

void PrintTo(const AccuracyCase& c, std::ostream* os) {
    *os << c.tech->name << "/" << c.victim << "/agg" << c.aggressors
        << "/g" << c.glitchFraction << "/L" << c.lengthUm;
}

class MacromodelAccuracy : public ::testing::TestWithParam<AccuracyCase> {};

TEST_P(MacromodelAccuracy, TracksGoldenWithinFewPercent) {
    const auto& p = GetParam();
    ClusterSpec spec = paperCluster(p.glitchFraction, p.aggressors);
    spec.technology = p.tech;
    spec.victim.driverCell = p.victim;
    spec.victim.glitchHeight = p.glitchFraction * p.tech->vdd;
    spec.lengthUm = p.lengthUm;

    const ClusterMacromodel model(spec);
    const auto align = core::findWorstAlignment(model);
    ClusterSpec goldenSpec = spec;
    for (std::size_t a = 0; a < goldenSpec.aggressors.size(); ++a) {
        goldenSpec.aggressors[a].switchTime = align.aggressorSwitchTimes[a];
    }
    goldenSpec.victim.glitchTime = align.glitchTime;
    const auto golden = core::simulateGolden(goldenSpec);
    const auto macro =
        model.analyzeAt(align.aggressorSwitchTimes, align.glitchTime);

    ASSERT_GT(std::abs(golden.metrics.peak), 0.05);
    const double peakErr =
        (macro.metrics.peak - golden.metrics.peak) / golden.metrics.peak;
    const double areaErr =
        (macro.metrics.area - golden.metrics.area) / golden.metrics.area;
    // "The error was always within few percents" (Sec. 3). Our bound is a
    // conservative 11%: complex gates with stacked pull networks carry
    // internal-node charge the DC load curve cannot represent, worth a few
    // extra percent (always on the overestimating, safe side here).
    EXPECT_LT(std::abs(peakErr), 0.11) << "peak " << macro.metrics.peak
                                       << " vs " << golden.metrics.peak;
    EXPECT_LT(std::abs(areaErr), 0.12) << "area " << macro.metrics.area
                                       << " vs " << golden.metrics.area;
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, MacromodelAccuracy,
    ::testing::Values(
        AccuracyCase{&tech::tech130(), "NAND2_X1", 1, 0.7, 500.0},
        AccuracyCase{&tech::tech130(), "NAND2_X1", 2, 0.6, 500.0},
        AccuracyCase{&tech::tech130(), "NOR2_X1", 1, 0.6, 400.0},
        AccuracyCase{&tech::tech130(), "INV_X1", 1, 0.0, 600.0},
        AccuracyCase{&tech::tech90(), "NAND2_X1", 1, 0.7, 400.0},
        AccuracyCase{&tech::tech90(), "INV_X2", 2, 0.5, 500.0}));

TEST(Baselines, LinearSuperpositionUnderestimates) {
    // The paper's Table 1 claim: summing independently computed injected
    // and propagated noise misses the non-linear interaction and lands well
    // below golden.
    const ClusterSpec spec = paperCluster();
    const ClusterMacromodel model(spec);
    const auto align = core::findWorstAlignment(model);
    ClusterSpec goldenSpec = spec;
    goldenSpec.aggressors[0].switchTime = align.aggressorSwitchTimes[0];
    goldenSpec.victim.glitchTime = align.glitchTime;
    const auto golden = core::simulateGolden(goldenSpec);
    const auto b1 =
        core::analyzeLinearSuperposition(model, align.aggressorSwitchTimes);

    EXPECT_LT(b1.metrics.peak, 0.85 * golden.metrics.peak);
    EXPECT_LT(b1.metrics.area, 0.85 * golden.metrics.area);
}

TEST(Baselines, IterativeTheveninAlsoUnderestimates) {
    // The Sec. 1 claim about [4]: a linear victim model, even iteratively
    // refit, still leaves a significant underestimation.
    const ClusterSpec spec = paperCluster();
    const ClusterMacromodel model(spec);
    const auto align = core::findWorstAlignment(model);
    ClusterSpec goldenSpec = spec;
    goldenSpec.aggressors[0].switchTime = align.aggressorSwitchTimes[0];
    goldenSpec.victim.glitchTime = align.glitchTime;
    const auto golden = core::simulateGolden(goldenSpec);
    const auto macro =
        model.analyzeAt(align.aggressorSwitchTimes, align.glitchTime);
    const auto b2 = core::analyzeIterativeThevenin(
        model, align.aggressorSwitchTimes, align.glitchTime);

    EXPECT_LT(b2.metrics.peak, 0.92 * golden.metrics.peak);
    // The macromodel must be the most accurate of the three models.
    const double macroErr = std::abs(macro.metrics.peak - golden.metrics.peak);
    const double b2Err = std::abs(b2.metrics.peak - golden.metrics.peak);
    EXPECT_LT(macroErr, b2Err);
}

TEST(Baselines, InjectedOnlyClusterIsCloseAcrossModels) {
    // Without a propagated glitch the victim stays near its holding point,
    // where the linearization is valid: B1 is then a decent approximation
    // (this is why classical SNA worked at all).
    ClusterSpec spec = paperCluster(0.0);
    const ClusterMacromodel model(spec);
    const std::vector<double> t{0.4e-9};
    const auto macro = model.analyzeAt(t, 0.4e-9);
    const auto b1 = core::analyzeLinearSuperposition(model, t);
    ASSERT_GT(macro.metrics.peak, 0.03);
    EXPECT_NEAR(b1.metrics.peak, macro.metrics.peak,
                0.30 * macro.metrics.peak);
}

TEST(Baselines, SuperpositionClipsAWidePropagatedGlitchToTheWindow) {
    // A long-wire AOI21 victim under three aggressors stretches the
    // propagated glitch's equivalent triangle past 1 ns. With the
    // aggressors switching late, the triangle aligned to the injected peak
    // outlasts tstop: B1 must clip it to the analysis window, not throw.
    ClusterSpec spec;
    spec.victim.driverCell = "AOI21_X1";
    spec.victim.glitchInput = "a";
    spec.victim.outputLevel = false;
    spec.victim.receiverCell = "INV_X1";
    spec.victim.glitchHeight = 0.6 * spec.technology->vdd;
    spec.victim.glitchWidth = 150e-12;
    for (int a = 0; a < 3; ++a) {
        AggressorSpec agg;
        agg.driverCell = "INV_X1";
        spec.aggressors.push_back(agg);
    }
    spec.lengthUm = 600.0;
    const ClusterMacromodel model(spec);
    const std::vector<double> late(3, 1.8e-9);

    core::NoiseResult b1;
    ASSERT_NO_THROW(b1 = core::analyzeLinearSuperposition(model, late));
    // The analysis window is still the simulation's.
    EXPECT_EQ(b1.waveform.startTime(), 0.0);
    EXPECT_EQ(b1.waveform.endTime(), spec.tstop);
    ASSERT_TRUE(std::isfinite(b1.metrics.peak));
    // The clipped triangle still adds to the injected noise.
    ClusterSpec injectedOnly = spec;
    injectedOnly.victim.glitchHeight = 0.0;
    const auto inj = core::analyzeLinearSuperposition(
        ClusterMacromodel(injectedOnly), late);
    EXPECT_GT(std::abs(b1.metrics.peak), std::abs(inj.metrics.peak));
}

TEST(Baselines, SuperpositionIsExactInLinearClusters) {
    // Control experiment for the paper's thesis: when the victim driver IS
    // linear (a resistor), the injected contributions of two aggressors add
    // exactly. The Table 1 error therefore comes from the cell
    // non-linearity, not from the superposition arithmetic.
    auto build = [](bool agg1On, bool agg2On) {
        spice::Circuit c;
        const auto vic = c.node("vic");
        c.addResistor("rhold", vic, spice::kGround, 800.0);
        c.addCapacitor("cg", vic, spice::kGround, 25e-15);
        auto addAgg = [&](const char* name, bool on) {
            const auto src = c.node(std::string(name) + "_src");
            const auto dp = c.node(std::string(name) + "_dp");
            if (on) {
                c.addVSource(std::string("v") + name, src, spice::kGround,
                             spice::SourceSpec::pwl(wave::saturatedRamp(
                                 0, 1.2, 0.4e-9, 40e-12, 2e-9)));
            } else {
                c.addVSource(std::string("v") + name, src, spice::kGround,
                             spice::SourceSpec::dc(0.0));
            }
            c.addResistor(std::string("r") + name, src, dp, 200.0);
            c.addCapacitor(std::string("cc") + name, dp, vic, 30e-15);
            c.addCapacitor(std::string("cga") + name, dp, spice::kGround,
                           20e-15);
        };
        addAgg("a1", agg1On);
        addAgg("a2", agg2On);
        spice::TranOptions opt;
        opt.tstop = 2e-9;
        return spice::simulateTransient(c, opt).waveform("vic");
    };
    const auto both = build(true, true);
    const auto only1 = build(true, false);
    const auto only2 = build(false, true);
    const auto summed = only1.plus(only2);
    EXPECT_LT(wave::maxDifference(both, summed), 2e-3);  // ~exact (solver tol)
    // And the combined peak is meaningfully large, so the check is not
    // vacuous.
    EXPECT_GT(wave::measureGlitch(both, 0.0).peak, 0.1);
}

TEST(Macromodel, PrimaModeMatchesPiMode) {
    const ClusterSpec spec = paperCluster();
    const ClusterMacromodel pi(spec);
    ClusterMacromodel::Options opt;
    opt.usePrima = true;
    const ClusterMacromodel prima(spec, opt);
    const std::vector<double> t{0.5e-9};
    const auto rPi = pi.analyzeAt(t, 0.45e-9);
    const auto rPrima = prima.analyzeAt(t, 0.45e-9);
    EXPECT_NEAR(rPrima.metrics.peak, rPi.metrics.peak,
                0.06 * std::abs(rPi.metrics.peak));
}

TEST(Macromodel, EngineIsMuchSmallerThanGolden) {
    const ClusterSpec spec = paperCluster();
    const ClusterMacromodel model(spec);
    const auto macro = model.analyze();
    const auto golden = core::simulateGolden(spec);
    EXPECT_LT(macro.engineNodes * 3, golden.engineNodes);
    EXPECT_LT(macro.runtimeSec, golden.runtimeSec);
}

TEST(Alignment, SearchBeatsDefaultAndMatchesBruteForce) {
    const ClusterSpec spec = paperCluster();
    const ClusterMacromodel model(spec);
    const auto defaultRun = model.analyze();
    const auto smart = core::findWorstAlignment(model);
    EXPECT_GE(std::abs(smart.worst.metrics.peak),
              std::abs(defaultRun.metrics.peak) - 1e-6);
    // Brute force over the same window cannot be much better.
    const auto brute = core::bruteForceWorstAlignment(model, 0.8e-9, 7);
    EXPECT_GE(std::abs(smart.worst.metrics.peak),
              0.97 * std::abs(brute.worst.metrics.peak));
}

TEST(Alignment, RequiresMatchingAggressorCount) {
    const ClusterSpec spec = paperCluster();
    const ClusterMacromodel model(spec);
    EXPECT_THROW(model.analyzeAt({1e-10, 2e-10}, 1e-10), LogicError);
}

// One engine probed in a scrambled order — switch times jumping back and
// forth, aggressors going quiet (+inf) and switching again — must return
// exactly what a freshly built circuit returns for every probe; any state
// leaking from one probe into the next shows up as a bit difference.
void expectEngineMatchesFreshCircuits(const ClusterMacromodel& model) {
    const double quiet = std::numeric_limits<double>::infinity();
    std::vector<std::pair<std::vector<double>, double>> probes{
        {{0.5e-9, 0.3e-9}, 0.45e-9}, {{quiet, 0.6e-9}, 0.2e-9},
        {{0.1e-9, quiet}, 0.7e-9},   {{quiet, quiet}, 0.4e-9},
        {{0.9e-9, 0.2e-9}, 0.0},     {{0.0, 1.5e-9}, 1.1e-9},
        {{0.5e-9, 0.3e-9}, 0.45e-9}, {{quiet, 0.6e-9}, 0.2e-9},
    };
    std::shuffle(probes.begin(), probes.end(), std::mt19937_64(11));
    core::MacromodelEngine engine(model);
    for (const auto& [aggTimes, glitchTime] : probes) {
        const auto reused = engine.run(aggTimes, glitchTime);
        const auto fresh = model.analyzeAt(aggTimes, glitchTime);
        const auto& a = reused.waveform.samples();
        const auto& b = fresh.waveform.samples();
        ASSERT_EQ(a.size(), b.size()) << "glitch at " << glitchTime;
        for (std::size_t i = 0; i < a.size(); ++i) {
            ASSERT_EQ(a[i].t, b[i].t) << "sample " << i;
            ASSERT_EQ(a[i].v, b[i].v) << "sample " << i;
        }
        EXPECT_EQ(reused.metrics.peak, fresh.metrics.peak);
        EXPECT_EQ(reused.metrics.area, fresh.metrics.area);
        EXPECT_EQ(reused.metrics.width, fresh.metrics.width);
        EXPECT_EQ(reused.engineNodes, fresh.engineNodes);
    }
}

TEST(Alignment, ReusedEngineMatchesFreshCircuitForEveryProbe) {
    expectEngineMatchesFreshCircuits(ClusterMacromodel(paperCluster(0.7, 2)));
    expectEngineMatchesFreshCircuits(ClusterMacromodel(paperCluster(0.0, 2)));
    ClusterMacromodel::Options prima;
    prima.usePrima = true;  // branch unknowns and multiport state
    expectEngineMatchesFreshCircuits(
        ClusterMacromodel(paperCluster(0.7, 2), prima));
}

TEST(Report, FlagsLargeGlitchAgainstNrc) {
    // Strong coupling + propagated glitch: must fail the receiver NRC.
    ClusterSpec spec = paperCluster(0.8, 2);
    spec.lengthUm = 700.0;
    core::ReportOptions opt;
    const auto report = core::analyzeCluster(spec, opt);
    EXPECT_GT(report.nrcLimit, 0.1);
    EXPECT_EQ(report.fails, report.margin <= 0.0);
    EXPECT_TRUE(report.fails);
}

TEST(Report, PassesQuietCluster) {
    // Tiny coupling and no propagated noise: must pass.
    ClusterSpec spec = paperCluster(0.0, 1);
    spec.lengthUm = 60.0;
    spec.segments = 4;
    const auto report = core::analyzeCluster(spec);
    EXPECT_FALSE(report.fails);
    EXPECT_GT(report.margin, 0.0);
}

// ----------------------------------------------------------------- design

TEST(DesignFlow, AnalyzesSpefClusters) {
    const cell::CellLibrary lib(tech::tech130());

    // Parasitics: a 3-wire star cluster exported to SPEF and re-read.
    ic::StarClusterSpec star;
    star.layer = &tech::tech130().layer("M4");
    star.lengthUm = 400.0;
    star.aggressors = 2;
    star.segments = 8;
    const auto rc = ic::buildStarCluster(star);
    const auto spef = parser::parseSpef(ic::toSpef(rc, "mini"));

    core::Design design(lib);
    auto connect = [&](const std::string& inst, const std::string& cellName,
                       const std::map<std::string, std::string>& pins) {
        core::Instance i;
        i.name = inst;
        i.cellName = cellName;
        i.pinToNet = pins;
        design.addInstance(std::move(i));
    };
    connect("u_vic", "NAND2_X1",
            {{"a", "in_a"}, {"b", "in_b"}, {"y", "victim"}});
    connect("u_rx", "INV_X2", {{"a", "victim"}, {"y", "out_v"}});
    connect("u_a0", "INV_X2", {{"a", "in0"}, {"y", "agg0"}});
    connect("u_a0rx", "INV_X1", {{"a", "agg0"}, {"y", "out0"}});
    connect("u_a1", "BUF_X2", {{"a", "in1"}, {"y", "agg1"}});
    connect("u_a1rx", "INV_X1", {{"a", "agg1"}, {"y", "out1"}});

    EXPECT_EQ(design.driverOf("victim")->name, "u_vic");
    EXPECT_EQ(design.loadsOf("victim").size(), 1u);
    EXPECT_EQ(design.driverOf("nope"), nullptr);

    core::DesignNoiseOptions opt;
    opt.report.searchAlignment = false;  // keep the test fast
    const auto reports = core::analyzeDesign(design, spef, opt);

    // The victim net has coupling and a driver/load: it must be analyzed.
    bool foundVictim = false;
    for (const auto& r : reports) {
        if (r.net == "victim") {
            foundVictim = true;
            EXPECT_EQ(r.aggressorNets.size(), 2u);
            EXPECT_GT(std::abs(r.cluster.worst.metrics.peak), 0.0);
            EXPECT_GT(r.cluster.nrcLimit, 0.0);
        }
    }
    EXPECT_TRUE(foundVictim);
}

TEST(DesignFlow, RejectsUnconnectedPins) {
    const cell::CellLibrary lib(tech::tech130());
    core::Design design(lib);
    core::Instance i;
    i.name = "u1";
    i.cellName = "NAND2_X1";
    i.pinToNet = {{"a", "n1"}};  // b and y missing
    EXPECT_THROW(design.addInstance(std::move(i)), ModelError);
}

}  // namespace
