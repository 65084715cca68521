// Tests for the levelized design graph and the propagated-noise wavefront:
// Kahn levels vs hand-computed, deterministic cycle breaking, bit-identical
// propagate=false regression at several thread counts, a combined-noise
// failure that local-only analysis misses, once-per-(cell, pin, level)
// propagation-table characterization, and the NRC width-grid knob.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <sstream>

#include "charlib/char_cache.hpp"
#include "core/design_index.hpp"
#include "core/propagate.hpp"
#include "core/sna.hpp"
#include "testsupport/oracles.hpp"

namespace {

using namespace sna;

void addInst(core::Design& d, const std::string& name,
             const std::string& cell,
             std::map<std::string, std::string> pins) {
    core::Instance i;
    i.name = name;
    i.cellName = cell;
    i.pinToNet = std::move(pins);
    d.addInstance(std::move(i));
}

// ------------------------------------------------------------ levelization

TEST(Levelize, DagLevelsMatchHandComputed) {
    const cell::CellLibrary lib(tech::tech130());
    core::Design design(lib);
    // in -> g1 -> x -> g2 -> y -> g3 -> z, plus a branch x -> g4 -> w and a
    // reconvergence NAND(y, w) -> v. Hand-computed levels:
    //   in: 0, x: 1, y: 2, w: 2, z: 3, v: 3.
    addInst(design, "g1", "INV_X1", {{"a", "in"}, {"y", "x"}});
    addInst(design, "g2", "INV_X1", {{"a", "x"}, {"y", "y"}});
    addInst(design, "g3", "INV_X1", {{"a", "y"}, {"y", "z"}});
    addInst(design, "g4", "INV_X2", {{"a", "x"}, {"y", "w"}});
    addInst(design, "g5", "NAND2_X1", {{"a", "y"}, {"b", "w"}, {"y", "v"}});
    const auto spef = parser::parseSpef(
        "*SPEF \"IEEE 1481-1998\"\n*DESIGN \"lv\"\n"
        "*T_UNIT 1 PS\n*C_UNIT 1 FF\n*R_UNIT 1 OHM\n");
    const core::DesignIndex index(design, spef);
    const core::NetLevels& lv = index.levels();

    EXPECT_TRUE(lv.brokenEdges.empty());
    ASSERT_EQ(lv.levels.size(), 4u);
    EXPECT_EQ(lv.levels[0], (std::vector<std::string>{"in"}));
    EXPECT_EQ(lv.levels[1], (std::vector<std::string>{"x"}));
    EXPECT_EQ(lv.levels[2], (std::vector<std::string>{"w", "y"}));
    EXPECT_EQ(lv.levels[3], (std::vector<std::string>{"v", "z"}));
    EXPECT_EQ(lv.levelOf.at("in"), 0);
    EXPECT_EQ(lv.levelOf.at("x"), 1);
    EXPECT_EQ(lv.levelOf.at("w"), 2);
    EXPECT_EQ(lv.levelOf.at("v"), 3);

    // Fanin edges of the reconvergent net, sorted by (fromNet, inst, pin).
    const auto& fanin = index.faninOf("v");
    ASSERT_EQ(fanin.size(), 2u);
    EXPECT_EQ(fanin[0].fromNet, "w");
    EXPECT_EQ(fanin[0].pin, "b");
    EXPECT_EQ(fanin[1].fromNet, "y");
    EXPECT_EQ(fanin[1].pin, "a");
    EXPECT_EQ(index.fanoutOf("x"),
              (std::vector<std::string>{"w", "y"}));
}

TEST(Levelize, CycleBrokenDeterministically) {
    const cell::CellLibrary lib(tech::tech130());
    const auto spef = parser::parseSpef(
        "*SPEF \"IEEE 1481-1998\"\n*DESIGN \"ring\"\n"
        "*T_UNIT 1 PS\n*C_UNIT 1 FF\n*R_UNIT 1 OHM\n");

    // A 3-inverter ring: a -> b -> c -> a. Kahn stalls immediately; the
    // break must land on the lexicographically smallest stalled net.
    const auto levelsOf = [&](const std::vector<int>& order) {
        core::Design design(lib);
        const std::vector<std::array<std::string, 3>> gates = {
            {"i1", "a", "b"}, {"i2", "b", "c"}, {"i3", "c", "a"}};
        for (const int k : order) {
            addInst(design, gates[k][0], "INV_X1",
                    {{"a", gates[k][1]}, {"y", gates[k][2]}});
        }
        return core::DesignIndex(design, spef).levels();
    };

    const auto lv = levelsOf({0, 1, 2});
    ASSERT_EQ(lv.levels.size(), 3u);
    EXPECT_EQ(lv.levels[0], (std::vector<std::string>{"a"}));
    EXPECT_EQ(lv.levels[1], (std::vector<std::string>{"b"}));
    EXPECT_EQ(lv.levels[2], (std::vector<std::string>{"c"}));
    ASSERT_EQ(lv.brokenEdges.size(), 1u);
    EXPECT_EQ(lv.brokenEdges[0],
              (std::pair<std::string, std::string>{"c", "a"}));

    // Instance insertion order must not change the break or the levels.
    for (const auto& order :
         {std::vector<int>{2, 1, 0}, {1, 2, 0}, {2, 0, 1}}) {
        const auto perm = levelsOf(order);
        EXPECT_EQ(perm.levels, lv.levels);
        EXPECT_EQ(perm.brokenEdges, lv.brokenEdges);
    }
}

TEST(Levelize, SelectIncomingKeepsTheParetoFront) {
    const cell::CellLibrary lib(tech::tech130());
    core::Design design(lib);
    // NAND3 driver of "out" with inputs on three noisy nets: tall-narrow,
    // middling, and short-wide glitches. None dominates another (the NRC
    // falls with width), so all three must come back for solving.
    addInst(design, "g1", "INV_X1", {{"a", "pa"}, {"y", "na"}});
    addInst(design, "g2", "INV_X1", {{"a", "pb"}, {"y", "nb"}});
    addInst(design, "g3", "INV_X1", {{"a", "pc"}, {"y", "nc"}});
    addInst(design, "g4", "NAND3_X1",
            {{"a", "na"}, {"b", "nb"}, {"c", "nc"}, {"y", "out"}});
    const auto spef = parser::parseSpef(
        "*SPEF \"IEEE 1481-1998\"\n*DESIGN \"sel\"\n"
        "*T_UNIT 1 PS\n*C_UNIT 1 FF\n*R_UNIT 1 OHM\n");
    const core::DesignIndex index(design, spef);

    std::unordered_map<std::string, core::SurvivingSet> surviving;
    surviving["na"] = {{0.9, 50e-12}};   // tallest
    surviving["nb"] = {{0.3, 900e-12}};  // widest
    surviving["nc"] = {{0.5, 130e-12}};  // between — dominated by neither
    auto picks = core::selectIncoming(index, "out", surviving);
    ASSERT_EQ(picks.size(), 3u);
    // Height-descending (width ascending on a Pareto front).
    EXPECT_EQ(picks[0].fromNet, "na");
    EXPECT_EQ(picks[0].inputPin, "a");
    EXPECT_DOUBLE_EQ(picks[0].height, 0.9);
    EXPECT_EQ(picks[1].fromNet, "nc");
    EXPECT_EQ(picks[2].fromNet, "nb");
    EXPECT_DOUBLE_EQ(picks[2].width, 900e-12);

    // A glitch shorter AND narrower than another is dominated and dropped.
    surviving["nb"] = {{0.2, 40e-12}};
    surviving["nc"] = {{0.5, 30e-12}};
    picks = core::selectIncoming(index, "out", surviving);
    ASSERT_EQ(picks.size(), 1u);
    EXPECT_EQ(picks[0].fromNet, "na");

    // No upstream noise: empty.
    surviving.clear();
    EXPECT_TRUE(core::selectIncoming(index, "out", surviving).empty());
}

TEST(Levelize, MergeSurvivingKeepsNonDominatedFront) {
    core::SurvivingSet set;
    core::mergeSurviving(set, {0.5, 100e-12});
    core::mergeSurviving(set, {0.4, 50e-12});  // dominated: dropped
    ASSERT_EQ(set.size(), 1u);
    core::mergeSurviving(set, {0.3, 300e-12});  // incomparable: kept
    ASSERT_EQ(set.size(), 2u);
    core::mergeSurviving(set, {0.6, 400e-12});  // dominates both: evicts
    ASSERT_EQ(set.size(), 1u);
    EXPECT_DOUBLE_EQ(set[0].height, 0.6);

    // The cap keeps the extremes of an oversized front.
    core::SurvivingSet big;
    for (int i = 0; i < 8; ++i) {
        core::mergeSurviving(
            big, {1.0 - 0.1 * i, (50.0 + 100.0 * i) * 1e-12});
    }
    ASSERT_EQ(big.size(), core::kMaxSurviving);
    EXPECT_DOUBLE_EQ(big.front().height, 1.0);   // tallest kept
    EXPECT_DOUBLE_EQ(big.back().width, 750e-12);  // widest kept
}

// --------------------------------------------------- regression (off path)

// Same 4-net coupled ring as test_design_index's regression.
std::string ringSpef(int nets) {
    std::ostringstream os;
    os << "*SPEF \"IEEE 1481-1998\"\n*DESIGN \"ring\"\n";
    os << "*T_UNIT 1 PS\n*C_UNIT 1 FF\n*R_UNIT 1 OHM\n\n";
    for (int i = 0; i < nets; ++i) {
        const int j = (i + 1) % nets;
        const double cc = 6.0 + 2.0 * i;
        os << "*D_NET n" << i << " " << (6.5 + cc) << "\n";
        os << "*CONN\n*I d" << i << ":y O\n*I r" << i << ":a I\n";
        os << "*CAP\n";
        os << "1 d" << i << ":y 2.0\n";
        os << "2 n" << i << ":1 3.0\n";
        os << "3 r" << i << ":a 1.5\n";
        os << "4 n" << i << ":1 n" << j << ":1 " << cc << "\n";
        os << "*RES\n";
        os << "1 d" << i << ":y n" << i << ":1 40\n";
        os << "2 n" << i << ":1 r" << i << ":a 40\n";
        os << "*END\n\n";
    }
    return os.str();
}

void buildRingDesign(core::Design& design, int nets) {
    for (int i = 0; i < nets; ++i) {
        const std::string n = std::to_string(i);
        addInst(design, "d" + n, (i % 2 == 0) ? "INV_X1" : "INV_X2",
                {{"a", "pi" + n}, {"y", "n" + n}});
        addInst(design, "r" + n, (i % 2 == 0) ? "INV_X2" : "INV_X1",
                {{"a", "n" + n}, {"y", "po" + n}});
    }
}

TEST(PropagateOff, BitIdenticalToReferenceAtAnyThreadCount) {
    const cell::CellLibrary lib(tech::tech130());
    const auto spef = parser::parseSpef(ringSpef(4));
    core::Design design(lib);
    buildRingDesign(design, 4);

    core::DesignNoiseOptions opt;
    opt.maxAggressors = 2;
    opt.report.searchAlignment = false;
    opt.report.macromodel.loadCurveGrid = 9;
    opt.propagate = false;

    const auto ref = core::analyzeDesignReference(design, spef, opt);
    ASSERT_EQ(ref.size(), 4u);
    for (const int threads : {1, 4}) {
        opt.threads = threads;
        const auto fast = core::analyzeDesign(design, spef, opt);
        ASSERT_EQ(fast.size(), ref.size()) << "threads=" << threads;
        for (std::size_t i = 0; i < ref.size(); ++i) {
            EXPECT_EQ(fast[i].net, ref[i].net);
            EXPECT_EQ(fast[i].aggressorNets, ref[i].aggressorNets);
            // Bit-identical, not merely close: the cached pipeline must
            // reproduce the brute-force sweep exactly.
            EXPECT_EQ(fast[i].cluster.margin, ref[i].cluster.margin)
                << fast[i].net << " threads=" << threads;
            EXPECT_EQ(fast[i].cluster.nrcLimit, ref[i].cluster.nrcLimit);
            EXPECT_EQ(fast[i].cluster.worst.metrics.peak,
                      ref[i].cluster.worst.metrics.peak);
            EXPECT_EQ(fast[i].cluster.worst.metrics.width,
                      ref[i].cluster.worst.metrics.width);
            EXPECT_EQ(fast[i].cluster.fails, ref[i].cluster.fails);
            // Without propagation the local mirror equals the verdict.
            EXPECT_FALSE(fast[i].propagated.present);
            EXPECT_EQ(fast[i].propagated.localMargin,
                      fast[i].cluster.margin);
        }
    }
}

// --------------------------------------------------------- wavefront (on)

// Chain of stage nets s0..s{n-1} through INV_X1 drivers; stage i gets
// `aggsAt[i]` dedicated aggressor nets coupled at ccAt[i] fF each.
std::string chainSpef(const std::vector<int>& aggsAt,
                      const std::vector<double>& ccAt) {
    const int n = static_cast<int>(aggsAt.size());
    std::ostringstream os;
    os << "*SPEF \"IEEE 1481-1998\"\n*DESIGN \"chain\"\n";
    os << "*T_UNIT 1 PS\n*C_UNIT 1 FF\n*R_UNIT 1 OHM\n\n";
    for (int i = 0; i < n; ++i) {
        os << "*D_NET s" << i << " " << (6.5 + aggsAt[i] * ccAt[i]) << "\n";
        os << "*CONN\n*I c" << i << ":y O\n*I c" << (i + 1) << ":a I\n";
        os << "*CAP\n1 c" << i << ":y 2.0\n2 s" << i << ":1 3.0\n";
        os << "3 c" << (i + 1) << ":a 1.5\n";
        for (int a = 0; a < aggsAt[i]; ++a) {
            os << (4 + a) << " s" << i << ":1 g" << i << "_" << a << ":1 "
               << ccAt[i] << "\n";
        }
        os << "*RES\n1 c" << i << ":y s" << i << ":1 60\n";
        os << "2 s" << i << ":1 c" << (i + 1) << ":a 60\n*END\n\n";
        for (int a = 0; a < aggsAt[i]; ++a) {
            os << "*D_NET g" << i << "_" << a << " 6.0\n";
            os << "*CONN\n*I a" << i << "_" << a << ":y O\n*I r" << i << "_"
               << a << ":a I\n";
            os << "*CAP\n1 a" << i << "_" << a << ":y 2.0\n2 g" << i << "_"
               << a << ":1 2.0\n";
            os << "*RES\n1 a" << i << "_" << a << ":y g" << i << "_" << a
               << ":1 40\n2 g" << i << "_" << a << ":1 r" << i << "_" << a
               << ":a 40\n*END\n\n";
        }
    }
    return os.str();
}

void buildChain(core::Design& d, const std::vector<int>& aggsAt) {
    const int n = static_cast<int>(aggsAt.size());
    for (int i = 0; i < n; ++i) {
        const std::string si = "s" + std::to_string(i);
        const std::string prev = i == 0 ? "pin" : "s" + std::to_string(i - 1);
        addInst(d, "c" + std::to_string(i), "INV_X1",
                {{"a", prev}, {"y", si}});
        for (int a = 0; a < aggsAt[i]; ++a) {
            const std::string g =
                "g" + std::to_string(i) + "_" + std::to_string(a);
            addInst(d, "a" + std::to_string(i) + "_" + std::to_string(a),
                    "INV_X4", {{"a", g + "_in"}, {"y", g}});
        }
    }
    addInst(d, "c" + std::to_string(n), "INV_X2",
            {{"a", "s" + std::to_string(n - 1)}, {"y", "chain_out"}});
}

TEST(PropagateOn, CombinedNoiseFailureLocalOnlyMisses) {
    const cell::CellLibrary lib(tech::tech130());
    // Stage 0: hammered by three strong aggressors (big surviving glitch,
    // still passing its own NRC). Stage 1: moderate local coupling that
    // passes on its own but fails once stage 0's glitch rides along.
    const std::vector<int> aggs{3, 3};
    const auto spef = parser::parseSpef(chainSpef(aggs, {35.0, 12.0}));
    core::Design design(lib);
    buildChain(design, aggs);

    core::DesignNoiseOptions opt;
    opt.maxAggressors = 3;
    opt.report.searchAlignment = false;
    opt.report.macromodel.loadCurveGrid = 9;
    opt.propagate = true;
    charlib::CharCache cache;
    opt.cache = &cache;

    const auto reports = core::analyzeDesign(design, spef, opt);
    ASSERT_EQ(reports.size(), 2u);
    const auto& s0 = reports[0];
    const auto& s1 = reports[1];
    ASSERT_EQ(s0.net, "s0");
    ASSERT_EQ(s1.net, "s1");

    // Stage 0 passes and has no upstream noise.
    EXPECT_FALSE(s0.propagated.present);
    EXPECT_FALSE(s0.cluster.fails);

    // Stage 1: local-only passes, combined fails — the verdict the flat
    // per-net sweep misses entirely.
    EXPECT_TRUE(s1.propagated.present);
    EXPECT_EQ(s1.propagated.fromNet, "s0");
    EXPECT_EQ(s1.propagated.inputPin, "a");
    EXPECT_EQ(s1.propagated.height,
              std::abs(s0.cluster.worst.metrics.peak));
    EXPECT_FALSE(s1.propagated.localFails);
    EXPECT_GT(s1.propagated.localMargin, 0.0);
    EXPECT_TRUE(s1.cluster.fails);
    EXPECT_LT(s1.cluster.margin, 0.0);
    EXPECT_LT(s1.cluster.margin, s1.propagated.localMargin);
    // The injected glitch is echoed on the governing cluster report.
    EXPECT_EQ(s1.cluster.glitchInHeight, s1.propagated.height);

    // The wavefront is deterministic at any thread count.
    opt.threads = 4;
    charlib::CharCache cache4;
    opt.cache = &cache4;
    const auto reports4 = core::analyzeDesign(design, spef, opt);
    ASSERT_EQ(reports4.size(), reports.size());
    for (std::size_t i = 0; i < reports.size(); ++i) {
        EXPECT_EQ(reports4[i].cluster.margin, reports[i].cluster.margin);
        EXPECT_EQ(reports4[i].propagated.localMargin,
                  reports[i].propagated.localMargin);
        EXPECT_EQ(reports4[i].propagated.fromNet,
                  reports[i].propagated.fromNet);
    }
}

TEST(PropagateOn, PassThroughNetsCarryNoiseAndTablesCharacterizeOnce) {
    const cell::CellLibrary lib(tech::tech130());
    // Stage 1 has no coupling: it is not a victim cluster, but stage 0's
    // glitch must still reach stage 2 through the propagation tables.
    const std::vector<int> aggs{3, 0, 2};
    const auto spef = parser::parseSpef(chainSpef(aggs, {35.0, 0.0, 10.0}));
    core::Design design(lib);
    buildChain(design, aggs);

    core::DesignNoiseOptions opt;
    opt.maxAggressors = 3;
    opt.report.searchAlignment = false;
    opt.report.macromodel.loadCurveGrid = 9;
    opt.propagate = true;
    charlib::CharCache cache;
    opt.cache = &cache;

    const auto reports = core::analyzeDesign(design, spef, opt);
    // s0 and s2 are victim clusters (SPEF order); the quiet net s1 gets a
    // propagated-only entry (its receiver is still NRC-checked) appended
    // after them.
    ASSERT_EQ(reports.size(), 3u);
    const auto& s2 = reports[1];
    ASSERT_EQ(s2.net, "s2");
    EXPECT_TRUE(s2.propagated.present);
    EXPECT_EQ(s2.propagated.fromNet, "s1");  // via the pass-through net
    EXPECT_GT(s2.propagated.height, 0.0);
    EXPECT_LT(s2.cluster.margin, s2.propagated.localMargin);

    const auto& s1 = reports[2];
    ASSERT_EQ(s1.net, "s1");
    EXPECT_TRUE(s1.aggressorNets.empty());  // no cluster: NRC check only
    EXPECT_TRUE(s1.propagated.present);
    EXPECT_EQ(s1.propagated.fromNet, "s0");
    EXPECT_GT(s1.cluster.nrcLimit, 0.0);
    // The glitch on s1 (after the driver) is what the receiver sees.
    EXPECT_GT(s1.cluster.worst.metrics.peak, 0.0);
    EXPECT_EQ(s1.propagated.localPeak, 0.0);
    EXPECT_DOUBLE_EQ(s1.propagated.localMargin, s1.cluster.nrcLimit);

    // The only pass-through driver is c1 (INV_X1, pin a), characterized at
    // both holding levels: exactly one table per (cell, pin, level).
    // chain_out is a leaf nothing consumes, so c2's tables are never built.
    const auto stats = cache.stats();
    EXPECT_EQ(stats.propagationRuns, 2u);

    // A second run through the same cache re-characterizes nothing and
    // reproduces the identical verdicts.
    const auto again = core::analyzeDesign(design, spef, opt);
    const auto stats2 = cache.stats();
    EXPECT_EQ(stats2.propagationRuns, stats.propagationRuns);
    EXPECT_GT(stats2.propagationHits, stats.propagationHits);
    ASSERT_EQ(again.size(), reports.size());
    for (std::size_t i = 0; i < reports.size(); ++i) {
        EXPECT_EQ(again[i].cluster.margin, reports[i].cluster.margin);
    }
}

// ------------------------------------------------------------- NRC knob

TEST(NrcGrid, CustomGridChangesProbesStaysNearExact) {
    core::ClusterSpec spec;
    spec.victim.receiverCell = "INV_X2";
    spec.victim.outputLevel = false;

    wave::GlitchMetrics m;
    m.width = 300e-12;  // off both grids' nodes, inside both ranges

    core::NrcOptions defaults;
    core::NrcOptions octave;
    octave.growth = 2.0;
    core::NrcOptions exact;
    exact.interp = core::NrcOptions::Interp::kExact;

    // The knob really changes the probe points.
    EXPECT_GT(defaults.grid().size(), octave.grid().size());
    EXPECT_DOUBLE_EQ(defaults.grid().front(), 20e-12);
    EXPECT_DOUBLE_EQ(octave.grid().front(), 20e-12);

    const double limExact = core::nrcLimitFor(spec, m, nullptr, exact);
    const double limDefault = core::nrcLimitFor(spec, m, nullptr, defaults);
    const double limOctave = core::nrcLimitFor(spec, m, nullptr, octave);
    ASSERT_GT(limExact, 0.0);
    // Half-octave log-width interpolation: ~0.15% bound, allow 1%.
    EXPECT_NEAR(limDefault, limExact, 0.01 * limExact);
    // Octave spacing is coarser but must stay within a few percent.
    EXPECT_NEAR(limOctave, limExact, 0.04 * limExact);

    // Linear-width interpolation on the default grid stays close too.
    core::NrcOptions linear;
    linear.interp = core::NrcOptions::Interp::kLinearWidth;
    const double limLinear = core::nrcLimitFor(spec, m, nullptr, linear);
    EXPECT_NEAR(limLinear, limExact, 0.02 * limExact);

    // The default knobs reproduce the pre-knob canonical grid bitwise.
    const auto grid = defaults.grid();
    std::vector<double> legacy;
    for (double p = 20e-12; p < 2.561e-9; p *= std::sqrt(2.0)) {
        legacy.push_back(p);
    }
    EXPECT_EQ(grid, legacy);
}

TEST(NrcGrid, ExactProbeMatchesThreeWidthCurve) {
    // An exact-width probe bisects that one width; it must equal the
    // interior node of the bracketing three-width curve bitwise, both for
    // the kExact mode and for widths beyond the canonical grid.
    core::ClusterSpec spec;
    spec.victim.receiverCell = "INV_X2";
    spec.victim.outputLevel = true;
    charlib::NrcSpec nrc;
    nrc.cell = &cell::sharedLibrary(*spec.technology).cell("INV_X2");
    nrc.input = "a";
    nrc.quietLevel = true;
    auto threeWidth = [&nrc](double w) {
        nrc.widths = {0.5 * w, w, 2.0 * w};
        return charlib::characterizeNrc(nrc)(w);
    };

    core::NrcOptions exact;
    exact.interp = core::NrcOptions::Interp::kExact;
    wave::GlitchMetrics m;
    m.width = 300e-12;
    EXPECT_EQ(core::nrcLimitFor(spec, m, nullptr, exact), threeWidth(300e-12));

    const core::NrcOptions defaults;
    m.width = 1.5 * defaults.grid().back();
    EXPECT_EQ(core::nrcLimitFor(spec, m, nullptr, defaults),
              threeWidth(m.width));
}

TEST(NrcGrid, BracketLookupMatchesFullCurveInterpolation) {
    // nrcLimitFor reads only the grid widths bracketing the glitch; cached
    // or not, the value must be bitwise the interpolation of the full
    // canonical curve, on nodes (where the upper width is not read), below
    // the first width and between nodes, in both interpolation modes.
    core::ClusterSpec spec;
    spec.victim.receiverCell = "NAND2_X1";
    spec.victim.outputLevel = true;
    const core::NrcOptions logOpt;
    core::NrcOptions linOpt;
    linOpt.interp = core::NrcOptions::Interp::kLinearWidth;
    const auto grid = logOpt.grid();
    charlib::NrcSpec nrc;
    nrc.cell = &cell::sharedLibrary(*spec.technology).cell("NAND2_X1");
    nrc.input = "a";
    nrc.quietLevel = true;
    nrc.widths = grid;
    const auto curve = charlib::characterizeNrc(nrc);
    auto fullCurve = [&curve](double w, bool logInterp) {
        const auto& xs = curve.xs();
        const auto& ys = curve.ys();
        if (w <= xs.front()) return ys.front();
        std::size_t i = 0;
        while (i + 2 < xs.size() && xs[i + 1] <= w) ++i;
        const double t =
            logInterp ? (std::log(w) - std::log(xs[i])) /
                            (std::log(xs[i + 1]) - std::log(xs[i]))
                      : (w - xs[i]) / (xs[i + 1] - xs[i]);
        return ys[i] + t * (ys[i + 1] - ys[i]);
    };

    struct Case {
        double width;
        std::size_t widthsRead;
    };
    const Case cases[] = {{1e-12, 1},          {grid[0], 1},
                          {grid[4], 1},        {grid.back(), 2},
                          {0.5 * (grid[2] + grid[3]), 2},
                          {0.99 * grid.back(), 2}};
    for (const Case& c : cases) {
        for (const bool logInterp : {true, false}) {
            const core::NrcOptions* opt = logInterp ? &logOpt : &linOpt;
            SCOPED_TRACE(std::to_string(c.width) + (logInterp ? " log" : " lin"));
            wave::GlitchMetrics m;
            m.width = c.width;
            const double expected =
                fullCurve(std::max(c.width, grid.front()), logInterp);
            EXPECT_EQ(core::nrcLimitFor(spec, m, nullptr, *opt), expected);
            charlib::CharCache cache;
            EXPECT_EQ(core::nrcLimitFor(spec, m, &cache, *opt), expected);
            EXPECT_EQ(cache.stats().nrcRuns, c.widthsRead);
        }
    }
}

}  // namespace
