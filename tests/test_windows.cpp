// Tests for timing-window-aware alignment (FRAME-style temporal
// correlation): the windows file loader, window propagation on a
// hand-computed chain, empty-overlap aggressor exclusion and incoming-glitch
// dropping, bit-identity of the no-windows wavefront at threads 1/4 and
// under all-unbounded windows, deterministic multi-driver handling under
// instance permutation, and the alignment-search clamping / tie-break /
// dead-axis fixes.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <sstream>

#include "charlib/char_cache.hpp"
#include "charlib/characterize.hpp"
#include "core/alignment.hpp"
#include "core/design_index.hpp"
#include "core/propagate.hpp"
#include "core/sna.hpp"
#include "parser/windows_parser.hpp"
#include "testsupport/oracles.hpp"
#include "util/error.hpp"

namespace {

using namespace sna;

constexpr double kInf = std::numeric_limits<double>::infinity();

void addInst(core::Design& d, const std::string& name,
             const std::string& cell,
             std::map<std::string, std::string> pins) {
    core::Instance i;
    i.name = name;
    i.cellName = cell;
    i.pinToNet = std::move(pins);
    d.addInstance(std::move(i));
}

std::string emptySpefHeader(const std::string& design) {
    return "*SPEF \"IEEE 1481-1998\"\n*DESIGN \"" + design +
           "\"\n*T_UNIT 1 PS\n*C_UNIT 1 FF\n*R_UNIT 1 OHM\n";
}

// ---------------------------------------------------------------- parser

TEST(WindowsParser, UnitsBoundsAndDefaults) {
    const auto w = parser::parseTimingWindows(
        "# comment line\n"
        "// also a comment\n"
        "*T_UNIT 1 PS\n"
        "n1 100 200\n"
        "n2 * 500\n"
        "n3 -50 *\n");
    ASSERT_EQ(w.size(), 3u);
    EXPECT_DOUBLE_EQ(w.of("n1").earliest, 100e-12);
    EXPECT_DOUBLE_EQ(w.of("n1").latest, 200e-12);
    EXPECT_EQ(w.of("n2").earliest, -kInf);
    EXPECT_DOUBLE_EQ(w.of("n2").latest, 500e-12);
    EXPECT_DOUBLE_EQ(w.of("n3").earliest, -50e-12);
    EXPECT_EQ(w.of("n3").latest, kInf);
    // Unlisted nets fall back to the unbounded default.
    EXPECT_EQ(w.find("other"), nullptr);
    EXPECT_EQ(w.of("other"), core::TimingWindow::unbounded());

    // Default unit is seconds.
    const auto s = parser::parseTimingWindows("a 1e-9 2e-9\n");
    EXPECT_DOUBLE_EQ(s.of("a").earliest, 1e-9);
    EXPECT_DOUBLE_EQ(s.of("a").latest, 2e-9);
}

TEST(WindowsParser, MalformedInputsThrowWithLineNumbers) {
    EXPECT_THROW(parser::parseTimingWindows("n1 200 100\n"), ParseError);
    EXPECT_THROW(parser::parseTimingWindows("n1 1 2\nn1 3 4\n"), ParseError);
    EXPECT_THROW(parser::parseTimingWindows("n1 xyz 100\n"), ParseError);
    EXPECT_THROW(parser::parseTimingWindows("n1 100\n"), ParseError);
    EXPECT_THROW(parser::parseTimingWindows("*T_UNIT 1 LIGHTYEARS\nn1 1 2\n"),
                 ParseError);
    try {
        parser::parseTimingWindows("# ok\nn1 200 100\n");
        FAIL() << "expected ParseError";
    } catch (const ParseError& e) {
        EXPECT_EQ(e.line(), 2);
        EXPECT_NE(std::string(e.what()).find("inverted"), std::string::npos);
    }
}

TEST(WindowsParser, NonFiniteBoundsRejected) {
    // strtod accepts "nan"/"inf" spellings; a NaN bound silently defeats
    // every overlap test and an explicit infinity is '*''s job — both are
    // malformed here, with the offending token named.
    EXPECT_THROW(parser::parseTimingWindows("n1 nan 100\n"), ParseError);
    EXPECT_THROW(parser::parseTimingWindows("n1 0 NaN\n"), ParseError);
    EXPECT_THROW(parser::parseTimingWindows("n1 -inf 100\n"), ParseError);
    try {
        parser::parseTimingWindows("n1 0 inf\n");
        FAIL() << "expected ParseError";
    } catch (const ParseError& e) {
        EXPECT_EQ(e.line(), 1);
        EXPECT_NE(std::string(e.what()).find("'inf'"), std::string::npos);
        EXPECT_NE(std::string(e.what()).find("finite"), std::string::npos);
    }
    // The wildcard stays the supported unbounded spelling.
    const auto w = parser::parseTimingWindows("n1 * 100\nn2 50 *\n");
    EXPECT_TRUE(std::isinf(w.find("n1")->earliest));
    EXPECT_TRUE(std::isinf(w.find("n2")->latest));
}

TEST(WindowsOps, IntervalAlgebra) {
    const core::TimingWindow a{1e-9, 3e-9};
    const core::TimingWindow b{2e-9, 5e-9};
    const core::TimingWindow c{4e-9, 6e-9};
    EXPECT_EQ(a.intersect(b), (core::TimingWindow{2e-9, 3e-9}));
    EXPECT_TRUE(a.intersect(c).empty());
    EXPECT_EQ(a.unite(c), (core::TimingWindow{1e-9, 6e-9}));
    EXPECT_EQ(a.shifted(10e-12, 50e-12),
              (core::TimingWindow{1.01e-9, 3.05e-9}));
    EXPECT_FALSE(core::TimingWindow::unbounded().bounded());
    EXPECT_FALSE(core::TimingWindow::unbounded().empty());
    // Infinite bounds survive shifting untouched.
    const auto u = core::TimingWindow::unbounded().shifted(1e-12, 2e-12);
    EXPECT_EQ(u, core::TimingWindow::unbounded());
}

// ----------------------------------------------------- window propagation

TEST(WindowPropagation, HandComputedChainAndHull) {
    const cell::CellLibrary lib(tech::tech130());
    core::Design design(lib);
    // in -> g1 -> x -> g2 -> y, plus a branch in -> g3 -> w and a
    // reconvergent NAND(y, w) -> v (hull of two shifted fanin windows).
    addInst(design, "g1", "INV_X1", {{"a", "in"}, {"y", "x"}});
    addInst(design, "g2", "INV_X2", {{"a", "x"}, {"y", "y"}});
    addInst(design, "g3", "INV_X4", {{"a", "in"}, {"y", "w"}});
    addInst(design, "g4", "NAND2_X1", {{"a", "y"}, {"b", "w"}, {"y", "v"}});
    const auto spef = parser::parseSpef(emptySpefHeader("wp"));

    core::TimingWindows in;
    in.set("in", {100e-12, 200e-12});
    const core::DesignIndex index(design, spef, &in);
    charlib::CharCache cache;
    const auto windows = core::propagateWindows(index, &cache);

    // Hand-compose the expected shifts from the same Thevenin models the
    // propagation uses: dMin = min direction delay, dMax = max direction
    // delay + slew, at the canonical propagation load.
    const auto stageShift = [&](const std::string& cellName,
                                const std::string& pin) {
        double dMin = kInf;
        double dMax = -kInf;
        for (const bool rising : {false, true}) {
            charlib::TheveninSpec ts;
            ts.cell = &lib.cell(cellName);
            ts.input = pin;
            ts.outputRising = rising;
            ts.loadCap = core::kPropagationLoadCap;
            const auto m = *cache.thevenin(ts);
            dMin = std::min(dMin, m.delay);
            dMax = std::max(dMax, m.delay + m.slew);
        }
        return std::pair<double, double>{dMin, dMax};
    };

    EXPECT_EQ(windows.at("in"), (core::TimingWindow{100e-12, 200e-12}));
    const auto [d1lo, d1hi] = stageShift("INV_X1", "a");
    ASSERT_GT(d1lo, 0.0);
    ASSERT_GT(d1hi, d1lo);
    const core::TimingWindow wx{100e-12 + d1lo, 200e-12 + d1hi};
    EXPECT_EQ(windows.at("x"), wx);

    const auto [d2lo, d2hi] = stageShift("INV_X2", "a");
    const core::TimingWindow wy{wx.earliest + d2lo, wx.latest + d2hi};
    EXPECT_EQ(windows.at("y"), wy);

    const auto [d3lo, d3hi] = stageShift("INV_X4", "a");
    const core::TimingWindow ww{100e-12 + d3lo, 200e-12 + d3hi};
    EXPECT_EQ(windows.at("w"), ww);

    // Reconvergence: the hull of both shifted fanin windows.
    const auto [d4alo, d4ahi] = stageShift("NAND2_X1", "a");
    const auto [d4blo, d4bhi] = stageShift("NAND2_X1", "b");
    const core::TimingWindow va{wy.earliest + d4alo, wy.latest + d4ahi};
    const core::TimingWindow vb{ww.earliest + d4blo, ww.latest + d4bhi};
    EXPECT_EQ(windows.at("v"), va.unite(vb));

    // Windows only widen down a chain (slew widening), and shift later.
    EXPECT_GT(wx.earliest, 100e-12);
    EXPECT_GT(wy.latest - wy.earliest, wx.latest - wx.earliest);

    // Without any explicit window everything stays unbounded and nothing
    // is characterized.
    const core::DesignIndex bare(design, spef);
    charlib::CharCache bareCache;
    const auto unbounded = core::propagateWindows(bare, &bareCache);
    EXPECT_EQ(unbounded.at("v"), core::TimingWindow::unbounded());
    EXPECT_EQ(bareCache.stats().theveninRuns, 0u);
}

// ------------------------------------------------- design-level windows

// Chain of stage nets s0..s{n-1} through INV_X1 drivers; stage i gets
// `aggsAt[i]` dedicated aggressor nets coupled at ccAt[i] fF each (same
// builder as test_propagate).
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

core::DesignNoiseOptions fastPropagateOptions() {
    core::DesignNoiseOptions opt;
    opt.maxAggressors = 3;
    opt.report.searchAlignment = false;
    opt.report.macromodel.loadCurveGrid = 9;
    opt.propagate = true;
    return opt;
}

TEST(WindowedDesign, EmptyOverlapAggressorExcludedRecoversMargin) {
    const cell::CellLibrary lib(tech::tech130());
    const std::vector<int> aggs{3};
    const auto spef = parser::parseSpef(chainSpef(aggs, {35.0}));
    core::Design design(lib);
    buildChain(design, aggs);

    auto opt = fastPropagateOptions();
    charlib::CharCache cache;
    opt.cache = &cache;

    // Unconstrained baseline.
    const auto base = core::analyzeDesign(design, spef, opt);
    ASSERT_EQ(base.size(), 1u);
    EXPECT_FALSE(base[0].windows.constrained);

    // Victim sensitive early; one aggressor can only switch late.
    core::TimingWindows w;
    w.set("s0", {0.0, 300e-12});
    w.set("g0_0", {1.5e-9, 2.0e-9});
    opt.windows = &w;
    const auto rep = core::analyzeDesign(design, spef, opt);
    ASSERT_EQ(rep.size(), 1u);
    const auto& r = rep[0];
    EXPECT_TRUE(r.windows.constrained);
    EXPECT_EQ(r.windows.window, (core::TimingWindow{0.0, 300e-12}));
    ASSERT_EQ(r.windows.excludedAggressors,
              (std::vector<std::string>{"g0_0"}));
    // The unconstrained margin reproduces the windows-less run bitwise, and
    // silencing one of three aggressors strictly recovers margin.
    EXPECT_EQ(r.windows.unconstrainedMargin, base[0].cluster.margin);
    EXPECT_GT(r.windows.windowedMargin, r.windows.unconstrainedMargin);
    // The governing verdict is the windowed one, and both margins are on
    // the report.
    EXPECT_EQ(r.cluster.margin, r.windows.windowedMargin);
}

TEST(WindowedDesign, DisjointIncomingGlitchDropped) {
    const cell::CellLibrary lib(tech::tech130());
    // Same shape as test_propagate's combined-failure chain: stage 0 leaves
    // a big surviving glitch, stage 1 fails only when it rides along.
    const std::vector<int> aggs{3, 3};
    const auto spef = parser::parseSpef(chainSpef(aggs, {35.0, 12.0}));
    core::Design design(lib);
    buildChain(design, aggs);

    auto opt = fastPropagateOptions();
    charlib::CharCache cache;
    opt.cache = &cache;
    const auto base = core::analyzeDesign(design, spef, opt);
    ASSERT_EQ(base.size(), 2u);
    ASSERT_TRUE(base[1].propagated.present);
    ASSERT_TRUE(base[1].cluster.fails);
    ASSERT_FALSE(base[1].propagated.localFails);

    // Stage 0 switches late, stage 1 is sensitive early: the surviving
    // glitch cannot collide with stage 1 and must be dropped there.
    core::TimingWindows w;
    w.set("s0", {1.5e-9, 1.6e-9});
    w.set("s1", {0.0, 300e-12});
    opt.windows = &w;
    const auto rep = core::analyzeDesign(design, spef, opt);
    ASSERT_EQ(rep.size(), 2u);
    const auto& s1 = rep[1];
    ASSERT_EQ(s1.net, "s1");
    EXPECT_TRUE(s1.windows.constrained);
    EXPECT_EQ(s1.windows.droppedIncoming,
              (std::vector<std::string>{"s0"}));
    // With the glitch dropped the combined verdict falls back to the local
    // one and the net passes — the pessimism the windows recovered.
    EXPECT_FALSE(s1.propagated.present);
    EXPECT_FALSE(s1.cluster.fails);
    EXPECT_EQ(s1.cluster.margin, s1.propagated.localMargin);
    EXPECT_GT(s1.windows.windowedMargin, s1.windows.unconstrainedMargin);
    EXPECT_EQ(s1.windows.unconstrainedMargin, base[1].cluster.margin);

    // Stage 0 itself keeps its aggressors (their unbounded windows overlap
    // its late window): the windowed run changes nothing there.
    EXPECT_EQ(rep[0].windows.windowedMargin,
              rep[0].windows.unconstrainedMargin);
    EXPECT_TRUE(rep[0].windows.excludedAggressors.empty());
}

TEST(WindowedDesign, NoWindowsBitIdenticalAtThreads14) {
    const cell::CellLibrary lib(tech::tech130());
    const std::vector<int> aggs{3, 0, 2};
    const auto spef = parser::parseSpef(chainSpef(aggs, {35.0, 0.0, 10.0}));
    core::Design design(lib);
    buildChain(design, aggs);

    auto opt = fastPropagateOptions();
    charlib::CharCache c1;
    opt.cache = &c1;
    opt.threads = 1;
    const auto t1 = core::analyzeDesign(design, spef, opt);

    charlib::CharCache c4;
    opt.cache = &c4;
    opt.threads = 4;
    const auto t4 = core::analyzeDesign(design, spef, opt);

    ASSERT_EQ(t1.size(), t4.size());
    for (std::size_t i = 0; i < t1.size(); ++i) {
        EXPECT_EQ(t1[i].net, t4[i].net);
        EXPECT_EQ(t1[i].cluster.margin, t4[i].cluster.margin);
        EXPECT_EQ(t1[i].cluster.worst.metrics.peak,
                  t4[i].cluster.worst.metrics.peak);
        EXPECT_EQ(t1[i].propagated.localMargin, t4[i].propagated.localMargin);
        EXPECT_FALSE(t1[i].windows.constrained);
    }

    // All-unbounded windows must reproduce the windows-less margins bitwise
    // (the constraints degenerate to the full search range).
    core::TimingWindows unbounded;
    unbounded.set("pin", core::TimingWindow::unbounded());
    auto wopt = opt;
    charlib::CharCache cw;
    wopt.cache = &cw;
    wopt.threads = 1;
    wopt.windows = &unbounded;
    const auto wrep = core::analyzeDesign(design, spef, wopt);
    ASSERT_EQ(wrep.size(), t1.size());
    for (std::size_t i = 0; i < t1.size(); ++i) {
        EXPECT_EQ(wrep[i].net, t1[i].net);
        EXPECT_TRUE(wrep[i].windows.constrained);
        EXPECT_EQ(wrep[i].cluster.margin, t1[i].cluster.margin);
        EXPECT_EQ(wrep[i].windows.windowedMargin,
                  wrep[i].windows.unconstrainedMargin);
        EXPECT_TRUE(wrep[i].windows.excludedAggressors.empty());
        EXPECT_TRUE(wrep[i].windows.droppedIncoming.empty());
    }
}

// ----------------------------------------------------------- multi-driver

// 4-net coupled ring (same as test_propagate's regression fixture).
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
        os << "2 n" << i << ":1 r" << i << ":a 40\n*END\n\n";
    }
    return os.str();
}

TEST(MultiDriver, DeterministicWinnerUnderInstancePermutation) {
    const cell::CellLibrary lib(tech::tech130());
    const auto spef = parser::parseSpef(ringSpef(4));

    // n0 is driven by both d0 and zz_dup; the lexicographically smallest
    // instance (d0) must win no matter the insertion order, and the loser
    // must be surfaced, not silently dropped.
    const auto build = [&](bool dupFirst) {
        core::Design design(lib);
        const auto dup = [&] {
            addInst(design, "zz_dup", "INV_X4",
                    {{"a", "dup_in"}, {"y", "n0"}});
        };
        if (dupFirst) dup();
        for (int i = 0; i < 4; ++i) {
            const std::string n = std::to_string(i);
            addInst(design, "d" + n, (i % 2 == 0) ? "INV_X1" : "INV_X2",
                    {{"a", "pi" + n}, {"y", "n" + n}});
            addInst(design, "r" + n, (i % 2 == 0) ? "INV_X2" : "INV_X1",
                    {{"a", "n" + n}, {"y", "po" + n}});
        }
        if (!dupFirst) dup();
        return design;
    };

    core::DesignNoiseOptions opt;
    opt.maxAggressors = 2;
    opt.report.searchAlignment = false;
    opt.report.macromodel.loadCurveGrid = 9;

    std::vector<std::vector<core::NetNoiseReport>> runs;
    for (const bool dupFirst : {false, true}) {
        const core::Design design = build(dupFirst);
        const core::DesignIndex index(design, spef);
        ASSERT_NE(index.driverOf("n0"), nullptr);
        EXPECT_EQ(index.driverOf("n0")->name, "d0");
        EXPECT_EQ(index.extraDriversOf("n0"),
                  (std::vector<std::string>{"zz_dup"}));
        EXPECT_TRUE(index.extraDriversOf("n1").empty());
        EXPECT_EQ(design.driverOf("n0")->name, "d0");
        // The level graph uses the same winner: n0's fanin comes through
        // d0, and the levelization is insertion-order independent.
        for (const auto& e : index.faninOf("n0")) {
            EXPECT_EQ(e.inst->name, "d0");
        }
        runs.push_back(core::analyzeDesign(design, spef, opt));
    }
    ASSERT_EQ(runs[0].size(), runs[1].size());
    for (std::size_t i = 0; i < runs[0].size(); ++i) {
        EXPECT_EQ(runs[0][i].net, runs[1][i].net);
        EXPECT_EQ(runs[0][i].cluster.margin, runs[1][i].cluster.margin);
        EXPECT_EQ(runs[0][i].otherDrivers, runs[1][i].otherDrivers);
    }
    // The warning is surfaced per net on the report.
    ASSERT_EQ(runs[0][0].net, "n0");
    EXPECT_EQ(runs[0][0].otherDrivers,
              (std::vector<std::string>{"zz_dup"}));
    EXPECT_TRUE(runs[0][1].otherDrivers.empty());

    // The brute-force reference makes the same deterministic choice.
    const auto ref =
        core::analyzeDesignReference(build(true), spef, opt);
    ASSERT_EQ(ref.size(), runs[0].size());
    for (std::size_t i = 0; i < ref.size(); ++i) {
        EXPECT_EQ(ref[i].cluster.margin, runs[0][i].cluster.margin);
        EXPECT_EQ(ref[i].otherDrivers, runs[0][i].otherDrivers);
    }
}

// ------------------------------------------------------ alignment fixes

core::ClusterSpec oneAggressorSpec() {
    core::ClusterSpec spec;
    spec.victim.driverCell = "INV_X1";
    spec.victim.receiverCell = "INV_X2";
    spec.aggressors.push_back({});
    return spec;
}

core::MacromodelOptions fastModel() {
    core::MacromodelOptions m;
    m.loadCurveGrid = 9;
    return m;
}

TEST(Alignment, SlowRampCandidatesClampedNonNegative) {
    // A very slow aggressor ramp: delay + slew exceeds the peak-alignment
    // center, so the unclamped initial guess would sit at t < 0 where the
    // stimulus is truncated and the objective misleading.
    core::ClusterSpec spec = oneAggressorSpec();
    spec.aggressors[0].inputSlew = 1.5e-9;
    const core::ClusterMacromodel model(spec, fastModel());
    const auto& m = model.aggressorModels()[0];
    ASSERT_GT(m.delay + m.slew, 0.35 * spec.tstop)
        << "fixture no longer forces a negative initial time";

    const auto res = core::findWorstAlignment(model);
    ASSERT_EQ(res.aggressorSwitchTimes.size(), 1u);
    EXPECT_GE(res.aggressorSwitchTimes[0], 0.0);
    EXPECT_GE(res.glitchTime, 0.0);
    // Free-candidate guarantee: never worse than the spec's own alignment.
    const double specVal = std::abs(
        model.analyzeAt({spec.aggressors[0].switchTime},
                        spec.victim.glitchTime).metrics.peak);
    EXPECT_GE(std::abs(res.worst.metrics.peak), specVal);
}

TEST(Alignment, SpecCandidateWinsTiesOnDegenerateGrid) {
    // The slow ramp clamps the initial guess to t = 0, and the spec's own
    // switch time is that same instant: the free candidate ties the init
    // candidate exactly (identical times, identical deterministic sim) and
    // must survive as the returned alignment. A zero-width refinement grid
    // then re-probes only the incumbent's time — every probe ties, none may
    // displace it, and consecutive duplicates dedupe to one evaluation per
    // axis per round.
    core::ClusterSpec spec = oneAggressorSpec();
    spec.aggressors[0].inputSlew = 1.5e-9;  // init would be negative
    spec.aggressors[0].switchTime = 0.0;    // == the clamped init time
    const core::ClusterMacromodel model(spec, fastModel());

    core::AlignmentOptions opt;
    opt.window = 0.0;
    const auto res = core::findWorstAlignment(model, opt);
    EXPECT_EQ(res.aggressorSwitchTimes[0], 0.0);
    EXPECT_EQ(res.evaluations, 2 + opt.rounds * 1);

    // The spec candidate also never loses outright: a spec alignment
    // strictly better than every probe is returned verbatim.
    core::ClusterSpec far = oneAggressorSpec();
    far.aggressors[0].switchTime = 1.2e-9;
    const core::ClusterMacromodel farModel(far, fastModel());
    core::AlignmentOptions tiny;
    tiny.window = 1e-12;  // refinement cannot wander off the winner
    const auto farRes = core::findWorstAlignment(farModel, tiny);
    const double specVal = std::abs(
        farModel.analyzeAt({1.2e-9}, far.victim.glitchTime).metrics.peak);
    EXPECT_GE(std::abs(farRes.worst.metrics.peak), specVal);
}

TEST(Alignment, DeadGlitchAxisSkipped) {
    core::ClusterSpec spec = oneAggressorSpec();
    spec.aggressors.push_back({});
    spec.aggressors[1].couplingScale = 0.7;

    // Identical cluster except for the glitch: the glitch-less search must
    // spend strictly fewer evaluations (no dead axis), and the glitch-time
    // spec field must have no influence at all when glitchHeight == 0.
    core::ClusterSpec glitched = spec;
    glitched.victim.glitchHeight = 0.35;
    glitched.victim.glitchWidth = 200e-12;

    const core::ClusterMacromodel quiet(spec, fastModel());
    const core::ClusterMacromodel withGlitch(glitched, fastModel());
    const auto rQuiet = core::findWorstAlignment(quiet);
    const auto rGlitch = core::findWorstAlignment(withGlitch);
    EXPECT_LT(rQuiet.evaluations, rGlitch.evaluations);

    core::ClusterSpec moved = spec;
    moved.victim.glitchTime = 1.3e-9;  // dead knob: height is 0
    const core::ClusterMacromodel movedModel(moved, fastModel());
    const auto rMoved = core::findWorstAlignment(movedModel);
    EXPECT_EQ(rMoved.evaluations, rQuiet.evaluations);
    EXPECT_EQ(rMoved.worst.metrics.peak, rQuiet.worst.metrics.peak);
    EXPECT_EQ(rMoved.aggressorSwitchTimes, rQuiet.aggressorSwitchTimes);
}

TEST(Alignment, WindowConstraintsBoundAndExcludeAxes) {
    core::ClusterSpec spec = oneAggressorSpec();
    const core::ClusterMacromodel model(spec, fastModel());
    const auto& m = model.aggressorModels()[0];

    // Constrained: the OUTPUT transition [t + delay, t + delay + slew] must
    // overlap the window, bounding the input switch time.
    core::AlignmentOptions opt;
    opt.aggressorWindows = {{500e-12, 900e-12}};
    const auto res = core::findWorstAlignment(model, opt);
    const double t = res.aggressorSwitchTimes[0];
    EXPECT_GE(t + m.delay + m.slew, 500e-12);
    EXPECT_LE(t + m.delay, 900e-12);

    const auto free = core::findWorstAlignment(model);
    EXPECT_LE(std::abs(res.worst.metrics.peak),
              std::abs(free.worst.metrics.peak));

    // Excluded: an empty window holds the aggressor quiet entirely.
    core::AlignmentOptions excl;
    excl.aggressorWindows = {{900e-12, 500e-12}};
    const auto quiet = core::findWorstAlignment(model, excl);
    EXPECT_TRUE(std::isinf(quiet.aggressorSwitchTimes[0]));
    EXPECT_LT(std::abs(quiet.worst.metrics.peak),
              0.25 * std::abs(free.worst.metrics.peak));
}

}  // namespace
