// Tests for the indexed, cached, parallel full-design pipeline: DesignIndex
// vs the brute-force scans, analyzeDesign vs the reference path, thread
// determinism, and the characterization cache's once-per-cell guarantee.
#include <gtest/gtest.h>

#include <cmath>
#include <fstream>
#include <sstream>

#include "charlib/char_cache.hpp"
#include "core/design_index.hpp"
#include "core/sna.hpp"
#include "testsupport/oracles.hpp"
#include "testsupport/temp_cache.hpp"
#include "util/error.hpp"

namespace {

using namespace sna;

// A 4-net ring (every net coupled to both neighbours through distinct caps)
// plus one stub net with coupling but no driver in the design.
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
    // Coupled net with no driver instance: must be skipped by both paths.
    os << "*D_NET orphan 4.0\n*CONN\n*P orphan_in I\n*CAP\n";
    os << "1 orphan:1 2.0\n2 orphan:1 n0:1 2.0\n*RES\n";
    os << "1 orphan_in orphan:1 10\n*END\n";
    return os.str();
}

void buildRingDesign(core::Design& design, int nets) {
    auto inst = [&](const std::string& name, const std::string& cellName,
                    std::map<std::string, std::string> pins) {
        core::Instance in;
        in.name = name;
        in.cellName = cellName;
        in.pinToNet = std::move(pins);
        design.addInstance(std::move(in));
    };
    for (int i = 0; i < nets; ++i) {
        const std::string n = std::to_string(i);
        inst("d" + n, (i % 2 == 0) ? "INV_X1" : "INV_X2",
             {{"a", "pi" + n}, {"y", "n" + n}});
        inst("r" + n, (i % 2 == 0) ? "INV_X2" : "INV_X1",
             {{"a", "n" + n}, {"y", "po" + n}});
    }
}

// ------------------------------------------------------------------ index

TEST(DesignIndex, MatchesBruteForceScans) {
    const cell::CellLibrary lib(tech::tech130());
    const auto spef = parser::parseSpef(ringSpef(4));
    core::Design design(lib);
    buildRingDesign(design, 4);

    const core::DesignIndex index(design, spef);

    for (const auto& [netName, spefNet] : spef.nets()) {
        EXPECT_EQ(index.driverOf(netName), design.driverOf(netName))
            << "driver mismatch on " << netName;
        EXPECT_EQ(index.loadsOf(netName), design.loadsOf(netName))
            << "loads mismatch on " << netName;

        // Brute-force coupling: sum matching caps over every section.
        std::map<std::string, double> brute;
        for (const auto& [otherName, otherNet] : spef.nets()) {
            for (const auto& cap : otherNet.caps) {
                if (cap.node2.empty()) continue;
                const auto owner = [](const std::string& n) {
                    return n.substr(0, n.find(':'));
                };
                const std::string o1 = owner(cap.node1);
                const std::string o2 = owner(cap.node2);
                if (o1 == netName && o2 != netName) {
                    brute[o2] += cap.farads;
                } else if (o2 == netName && o1 != netName) {
                    brute[o1] += cap.farads;
                }
            }
        }
        const auto& indexed = index.couplingOf(netName);
        ASSERT_EQ(indexed.size(), brute.size()) << "on " << netName;
        for (const auto& [agg, cc] : brute) {
            ASSERT_TRUE(indexed.count(agg)) << agg << " missing";
            EXPECT_NEAR(indexed.at(agg), cc, 1e-24);
        }
    }
    EXPECT_EQ(index.driverOf("nope"), nullptr);
    EXPECT_TRUE(index.loadsOf("nope").empty());
    EXPECT_TRUE(index.couplingOf("nope").empty());
    // The orphan net couples to n0 but has no driver instance.
    EXPECT_EQ(index.driverOf("orphan"), nullptr);
    EXPECT_NEAR(index.couplingOf("orphan").at("n0"), 2e-15, 1e-24);
}

// ------------------------------------------------------------- regression

TEST(DesignFlowRegression, IndexedPipelineMatchesReference) {
    const cell::CellLibrary lib(tech::tech130());
    const auto spef = parser::parseSpef(ringSpef(4));
    core::Design design(lib);
    buildRingDesign(design, 4);

    core::DesignNoiseOptions opt;
    opt.maxAggressors = 2;
    opt.report.searchAlignment = false;  // keep the test fast
    opt.report.macromodel.loadCurveGrid = 9;

    const auto ref = core::analyzeDesignReference(design, spef, opt);
    opt.threads = 1;
    const auto fast1 = core::analyzeDesign(design, spef, opt);
    opt.threads = 4;
    const auto fast4 = core::analyzeDesign(design, spef, opt);

    ASSERT_EQ(ref.size(), 4u);
    ASSERT_EQ(fast1.size(), ref.size());
    ASSERT_EQ(fast4.size(), ref.size());
    for (std::size_t i = 0; i < ref.size(); ++i) {
        EXPECT_EQ(fast1[i].net, ref[i].net);
        EXPECT_EQ(fast1[i].aggressorNets, ref[i].aggressorNets);
        // Every net has exactly its two ring neighbours, listed once (the
        // old implementation appended them per holding level and trimmed).
        EXPECT_EQ(ref[i].aggressorNets.size(), 2u);
        EXPECT_NEAR(fast1[i].cluster.margin, ref[i].cluster.margin, 1e-9);
        EXPECT_NEAR(fast1[i].cluster.nrcLimit, ref[i].cluster.nrcLimit, 1e-9);
        EXPECT_EQ(fast1[i].cluster.fails, ref[i].cluster.fails);

        EXPECT_EQ(fast4[i].net, fast1[i].net);
        EXPECT_EQ(fast4[i].aggressorNets, fast1[i].aggressorNets);
        EXPECT_NEAR(fast4[i].cluster.margin, fast1[i].cluster.margin, 1e-9);
    }
}

// ------------------------------------------------------------------ cache

TEST(CharCacheDesign, OneCharacterizationPerCellAndLevel) {
    const cell::CellLibrary lib(tech::tech130());
    const int nets = 6;
    const auto spef = parser::parseSpef(ringSpef(nets));
    core::Design design(lib);
    buildRingDesign(design, nets);

    charlib::CharCache cache;
    core::DesignNoiseOptions opt;
    opt.maxAggressors = 2;
    opt.report.searchAlignment = false;
    opt.report.macromodel.loadCurveGrid = 9;
    opt.cache = &cache;
    const auto reports = core::analyzeDesign(design, spef, opt);
    ASSERT_EQ(reports.size(), static_cast<std::size_t>(nets));

    const auto stats = cache.stats();
    // Victim drivers are INV_X1 and INV_X2, each analyzed at both holding
    // levels: exactly 4 load-curve DC sweeps regardless of net count.
    EXPECT_EQ(stats.loadCurveRuns, 4u);
    EXPECT_GT(stats.loadCurveHits, 0u);
    // Receivers are INV_X2 and INV_X1 at both quiet levels. Each NRC check
    // reads the canonical grid widths bracketing its glitch, so each
    // distinct bracket width of a (receiver, level) is characterized
    // exactly once: the runs equal the width entries the cache holds, far
    // fewer than the 4 full curves.
    const testsupport::TempCacheFile file(testing::TempDir() +
                                          "sna_design_index_nrc.snacache");
    ASSERT_TRUE(cache.save(file.path()).ok);
    std::ifstream in(file.path());
    std::size_t bracketWidths = 0;
    for (std::string line; std::getline(in, line);) {
        if (line.rfind("entry nrcwidth ", 0) == 0) ++bracketWidths;
    }
    const std::size_t gridSize = core::NrcOptions{}.grid().size();
    EXPECT_GT(bracketWidths, 0u);
    EXPECT_LT(bracketWidths, 4 * gridSize);
    EXPECT_EQ(stats.nrcRuns, bracketWidths);
    EXPECT_GT(stats.nrcHits, 0u);
    EXPECT_GT(stats.theveninRuns, 0u);

    // A second run through the same cache re-characterizes nothing.
    const auto again = core::analyzeDesign(design, spef, opt);
    const auto stats2 = cache.stats();
    EXPECT_EQ(stats2.loadCurveRuns, stats.loadCurveRuns);
    EXPECT_EQ(stats2.theveninRuns, stats.theveninRuns);
    EXPECT_EQ(stats2.nrcRuns, stats.nrcRuns);
    for (std::size_t i = 0; i < reports.size(); ++i) {
        EXPECT_NEAR(again[i].cluster.margin, reports[i].cluster.margin, 0.0);
    }
}

}  // namespace
