// Experiment D1 — design-scale throughput of the full-design noise pipeline.
//
// Generates synthetic N-net coupled designs (a ring of parallel routes, each
// net coupled to both neighbours through distinct caps) as SPEF text,
// connects a gate-level design to them, and times end-to-end analyzeDesign:
//   * reference: the pre-index brute-force sweep (linear instance scans,
//     all-net cap scans, full per-cluster re-characterization, serial);
//   * optimized: DesignIndex + shared CharCache, swept across --threads
//     (default 1,2,4,8);
//   * propagate: the same parasitics wired as `--chains` parallel chains of
//     depth N/chains (deep levels), analyzed with the dependency-counted
//     task-graph wavefront and stage-to-stage glitch propagation, across
//     the same thread sweep. All sweep margins are cross-checked bitwise
//     against t=1 (propagate_margin_diff), the max-thread run reports its
//     scheduler counters (tasks, steals, ready-frontier high water,
//     per-worker busy fractions), and the count
//     of combined-only failures (nets the flat local-only sweep passes but
//     the propagated verdict fails) is reported;
//   * windowed: the chained wavefront again with alternating disjoint
//     switching windows (even nets early, odd nets late), measuring the
//     pessimism the FRAME-style window constraints recover: excluded
//     aggressors, dropped incoming glitches, and the worst
//     unconstrained-vs-windowed margins;
//   * cache: the chained wavefront run cold (fresh CharCache), saved to the
//     snacache file, loaded into a fresh cache, and re-run warm — the warm
//     run must replace every characterization with a disk hit (the cache
//     file and its lock sidecar are removed afterwards);
//   * eco: `--eco K` drivers near the chain tails are resized in place
//     (Design::replaceCell) and analyzeDesignIncremental re-solves the
//     dirty cone against the retained snapshot, timed against the full
//     warm-cache re-run; the incremental margins must match the full run
//     bitwise (incremental_margin_diff, asserted 0).
// Margins are cross-checked within 1e-9 between every flat path. Emits one
// JSON object (for the bench trajectory) after the human-readable table.
//
// Run:  ./build/bench_design_scale [--nets 50,200,800] [--threads 1,2,4,8]
//                                  [--reference-max 200] [--chains 4]
//                                  [--eco 1] [--smoke]
// --smoke: one tiny size, threads 1,4, no reference sweep — a CI-speed run
// whose JSON carries the full schema so bench bit-rot is caught before
// merge.
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "core/design_index.hpp"
#include "core/frontend.hpp"
#include "core/incremental.hpp"
#include "core/sna.hpp"
#include "lint/lint.hpp"
#include "interconnect/parallel_bus.hpp"
#include "parser/verilog_parser.hpp"
#include "parser/windows_parser.hpp"
#include "testsupport/oracles.hpp"
#include "util/table.hpp"
#include "util/thread_pool.hpp"

namespace {

using namespace sna;

// Ring design: net i is driven by d<i>, loaded by r<i>, and coupled to nets
// i-1 and i+1 through mid-node caps with distinct values (no rank ties).
// `quietEvery` > 0 leaves every quietEvery-th net without any coupling cap
// (to either neighbour): those nets are not victim clusters, so with
// propagation on they exercise the pass-through propagation-table path.
std::string syntheticSpef(int nets, double ccScale = 1.0,
                          int quietEvery = 0) {
    const auto quiet = [quietEvery](int i) {
        return quietEvery > 0 && i % quietEvery == quietEvery - 1;
    };
    std::ostringstream os;
    os << "*SPEF \"IEEE 1481-1998\"\n*DESIGN \"scale_" << nets << "\"\n";
    os << "*T_UNIT 1 PS\n*C_UNIT 1 FF\n*R_UNIT 1 OHM\n\n";
    for (int i = 0; i < nets; ++i) {
        const int j = (i + 1) % nets;
        // fF, to the right-hand neighbour
        const double cc = (8.0 + (i % 11)) * ccScale;
        const bool couple = !quiet(i) && !quiet(j);
        os << "*D_NET n" << i << " " << (6.5 + (couple ? cc : 0.0)) << "\n";
        os << "*CONN\n*I d" << i << ":y O\n*I r" << i << ":a I\n";
        os << "*CAP\n";
        os << "1 d" << i << ":y 2.0\n";
        os << "2 n" << i << ":1 3.0\n";
        os << "3 r" << i << ":a 1.5\n";
        if (couple) {
            os << "4 n" << i << ":1 n" << j << ":1 " << cc << "\n";
        }
        os << "*RES\n";
        os << "1 d" << i << ":y n" << i << ":1 40\n";
        os << "2 n" << i << ":1 r" << i << ":a 40\n";
        os << "*END\n\n";
    }
    return os.str();
}

void buildDesign(core::Design& design, int nets) {
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

// Chained variant of the same parasitics: the N ring-coupled nets become
// `chains` parallel chains of depth N/chains (g_i: n_{i-1} -> n_i), so the
// levelized wavefront is deep and each level holds ~`chains` victims.
void buildChainedDesign(core::Design& design, int nets, int chains) {
    auto inst = [&](const std::string& name, const std::string& cellName,
                    std::map<std::string, std::string> pins) {
        core::Instance in;
        in.name = name;
        in.cellName = cellName;
        in.pinToNet = std::move(pins);
        design.addInstance(std::move(in));
    };
    // Uniformly weak chain drivers: glitches survive the stages instead of
    // being swallowed at the first strong inverter, so the propagated
    // verdicts differ visibly from the local-only ones.
    const int depth = (nets + chains - 1) / chains;
    for (int i = 0; i < nets; ++i) {
        const std::string n = std::to_string(i);
        const int pos = i % depth;
        const std::string prev =
            pos == 0 ? "pi" + std::to_string(i / depth)
                     : "n" + std::to_string(i - 1);
        inst("g" + n, "INV_X1", {{"a", prev}, {"y", "n" + n}});
        if (pos == depth - 1 || i == nets - 1) {
            inst("snk" + n, "INV_X2", {{"a", "n" + n}, {"y", "po" + n}});
        }
    }
}

// The design serialized back out as a structural Verilog netlist (the
// format the industry front end reads): nets only loaded become inputs,
// nets only driven become outputs, the rest wires.
std::string designToVerilog(const core::Design& design,
                            const std::string& name) {
    std::set<std::string> driven, loaded;
    for (const auto& inst : design.instances()) {
        const cell::Cell& c = design.library().cell(inst.cellName);
        for (const auto& pin : c.pins()) {
            const std::string& net = inst.pinToNet.at(pin.name);
            (pin.dir == cell::PinDir::Output ? driven : loaded).insert(net);
        }
    }
    std::vector<std::string> inputs, outputs, wires;
    for (const auto& net : loaded) {
        if (driven.count(net) == 0) inputs.push_back(net);
    }
    for (const auto& net : driven) {
        (loaded.count(net) != 0 ? wires : outputs).push_back(net);
    }
    std::ostringstream os;
    os << "module " << name << " (";
    bool first = true;
    for (const auto* group : {&inputs, &outputs}) {
        for (const auto& net : *group) {
            os << (first ? "" : ", ") << net;
            first = false;
        }
    }
    os << ");\n";
    for (const auto& net : inputs) os << "  input " << net << ";\n";
    for (const auto& net : outputs) os << "  output " << net << ";\n";
    for (const auto& net : wires) os << "  wire " << net << ";\n";
    for (const auto& inst : design.instances()) {
        os << "  " << inst.cellName << " " << inst.name << " (";
        bool firstPin = true;
        for (const auto& [pin, net] : inst.pinToNet) {
            os << (firstPin ? "" : ", ") << "." << pin << "(" << net << ")";
            firstPin = false;
        }
        os << ");\n";
    }
    os << "endmodule\n";
    return os.str();
}

/// Removes a snacache file and its advisory-lock sidecar (`<path>.lock`,
/// which CharCache never deletes) when the scope ends, early returns
/// included: the bench leaves nothing in the working directory.
struct CacheFileCleanup {
    std::string path;
    ~CacheFileCleanup() {
        std::remove(path.c_str());
        std::remove((path + ".lock").c_str());
    }
};

double seconds(std::chrono::steady_clock::time_point t0) {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         t0)
        .count();
}

double maxMarginDiff(const std::vector<core::NetNoiseReport>& a,
                     const std::vector<core::NetNoiseReport>& b) {
    if (a.size() != b.size()) return 1e9;
    double worst = 0.0;
    for (std::size_t i = 0; i < a.size(); ++i) {
        if (a[i].net != b[i].net || a[i].aggressorNets != b[i].aggressorNets) {
            return 1e9;
        }
        worst = std::max(worst,
                         std::abs(a[i].cluster.margin - b[i].cluster.margin));
    }
    return worst;
}

/// One thread count of the sweep: flat optimized sweep and propagated
/// (task-graph) wavefront wall times at that count.
struct SweepPoint {
    int threads = 0;
    int workers = 0;  ///< resolved count (threads == 0 means "auto")
    double flatSec = 0.0;
    double propSec = 0.0;
};

struct Row {
    int nets = 0;
    double refSec = -1.0;  ///< < 0: reference not measured at this size
    double opt1Sec = 0.0;
    double opt4Sec = 0.0;
    std::vector<SweepPoint> sweep;
    double marginDiff = 0.0;
    std::size_t reports = 0;
    std::size_t loadCurveRuns = 0;
    std::size_t nrcRuns = 0;
    // Propagation-enabled chained variant.
    double prop1Sec = 0.0;
    double prop4Sec = 0.0;
    double propMarginDiff = 0.0;  ///< t=1 vs t=4 wavefront, must be 0
    std::size_t levels = 0;
    // Design lint over the chained variant (same DesignIndex as `levels`).
    // The synthetic designs are well-formed, so the counts double as a
    // clean-input regression check (CI asserts errors == warnings == 0).
    double lintSec = 0.0;
    std::size_t lintErrors = 0;
    std::size_t lintWarnings = 0;
    std::size_t lintInfos = 0;
    // Industry front end: the chained design serialized as structural
    // Verilog, re-parsed, and rebuilt — parse wall time and an
    // instance-exact round-trip check (asserted, like the margin diffs).
    double frontendParseSec = 0.0;
    bool frontendRoundtripOk = false;
    std::size_t frontendInstances = 0;
    // Task-graph scheduler counters from the max-thread propagate run.
    std::size_t schedTasks = 0;
    std::size_t schedSteals = 0;
    std::size_t schedMaxReady = 0;
    std::vector<double> schedBusy;  ///< per-worker busy fraction
    /// Resilience counters from the same run: both must be zero on the
    /// bench's happy path (no faults injected, no deadline set) — the CI
    /// smoke check asserts exactly that.
    std::size_t quarantinedTasks = 0;
    bool cancelled = false;
    std::size_t propagationRuns = 0;
    std::size_t combinedOnlyFails = 0;  ///< fails only with propagation
    double maxMarginDrop = 0.0;  ///< worst local-minus-combined margin, V
    // Windowed (FRAME) chained variant.
    double windowed1Sec = 0.0;
    double maxMarginRecovery = 0.0;  ///< worst windowed-minus-unconstrained
    double worstUnconstrainedMargin = 0.0;
    double worstWindowedMargin = 0.0;
    std::size_t windowExcludedAggressors = 0;
    std::size_t windowDroppedIncoming = 0;
    // Persistent characterization cache: cold run / save / load / warm run.
    std::size_t cacheEntries = 0;       ///< entries the save() wrote
    double cacheColdSec = 0.0;          ///< fresh-cache wavefront run
    double cacheWarmSec = 0.0;          ///< same run after load()
    std::size_t cacheWarmCharRuns = 0;  ///< must be 0: all served from disk
    std::size_t cacheDiskHits = 0;
    // Incremental ECO re-analysis against the retained snapshot.
    std::size_t ecoNets = 0;        ///< drivers resized in place
    std::size_t ecoDirtyTasks = 0;  ///< cone the incremental run re-solved
    std::size_t ecoTotalTasks = 0;
    double ecoIncrementalSec = 0.0;
    double ecoFullSec = 0.0;  ///< full warm-cache re-run of the same state
    double incrementalMarginDiff = 0.0;  ///< vs the full re-run, must be 0
};

}  // namespace

int main(int argc, char** argv) {
    std::vector<int> sizes{50, 200, 800};
    std::vector<int> threadsSweep{1, 2, 4, 8};
    int referenceMax = 200;  // brute force is super-quadratic; cap it
    int chains = 4;
    int eco = 1;  // drivers perturbed by the incremental ECO pass
    try {
        for (int i = 1; i < argc; ++i) {
            if (std::strcmp(argv[i], "--smoke") == 0) {
                // CI-speed run: one tiny size, no reference sweep, short
                // thread sweep. The JSON still carries every schema field.
                sizes = {12};
                threadsSweep = {1, 4};
                referenceMax = 0;
                continue;
            }
            if (std::strcmp(argv[i], "--nets") == 0 && i + 1 < argc) {
                sizes.clear();
                std::istringstream is(argv[++i]);
                std::string tok;
                while (std::getline(is, tok, ',')) {
                    sizes.push_back(std::stoi(tok));
                }
            } else if (std::strcmp(argv[i], "--threads") == 0 &&
                       i + 1 < argc) {
                threadsSweep.clear();
                std::istringstream is(argv[++i]);
                std::string tok;
                while (std::getline(is, tok, ',')) {
                    threadsSweep.push_back(std::stoi(tok));
                }
                if (threadsSweep.empty()) {
                    std::fprintf(stderr, "--threads needs a list\n");
                    return 1;
                }
            } else if (std::strcmp(argv[i], "--reference-max") == 0 &&
                       i + 1 < argc) {
                referenceMax = std::stoi(argv[++i]);
            } else if (std::strcmp(argv[i], "--chains") == 0 &&
                       i + 1 < argc) {
                chains = std::stoi(argv[++i]);
                if (chains < 1) {
                    std::fprintf(stderr, "--chains must be >= 1\n");
                    return 1;
                }
            } else if (std::strcmp(argv[i], "--eco") == 0 && i + 1 < argc) {
                eco = std::stoi(argv[++i]);
                if (eco < 1) {
                    std::fprintf(stderr, "--eco must be >= 1\n");
                    return 1;
                }
            } else {
                std::fprintf(stderr,
                             "usage: %s [--nets N1,N2,...] "
                             "[--threads T1,T2,...] [--reference-max N] "
                             "[--chains K] [--eco K] [--smoke]\n",
                             argv[0]);
                return 1;
            }
        }
    } catch (const std::exception&) {
        std::fprintf(stderr, "bad numeric argument\n");
        return 1;
    }

    const cell::CellLibrary lib(tech::tech130());
    std::vector<Row> rows;
    for (const int n : sizes) {
        const auto spef = parser::parseSpef(syntheticSpef(n));
        core::Design design(lib);
        buildDesign(design, n);

        core::DesignNoiseOptions opt;
        opt.maxAggressors = 2;
        // Alignment probes cost the same in both paths; disable the search so
        // the measurement isolates the pipeline (index + cache + threads).
        opt.report.searchAlignment = false;

        Row row;
        row.nets = n;

        // Flat sweep across the thread counts, a fresh cache per count so
        // every run does the same characterization work.
        std::vector<core::NetNoiseReport> opt1;
        row.sweep.resize(threadsSweep.size());
        auto t0 = std::chrono::steady_clock::now();
        for (std::size_t k = 0; k < threadsSweep.size(); ++k) {
            charlib::CharCache cache;
            opt.cache = &cache;
            opt.threads = threadsSweep[k];
            t0 = std::chrono::steady_clock::now();
            const auto rep = core::analyzeDesign(design, spef, opt);
            row.sweep[k].threads = threadsSweep[k];
            row.sweep[k].workers = util::resolveThreadCount(threadsSweep[k]);
            row.sweep[k].flatSec = seconds(t0);
            if (k == 0) {
                opt1 = rep;
                const auto stats = cache.stats();
                row.loadCurveRuns = stats.loadCurveRuns;
                row.nrcRuns = stats.nrcRuns;
                row.reports = rep.size();
            } else {
                row.marginDiff =
                    std::max(row.marginDiff, maxMarginDiff(opt1, rep));
            }
            if (threadsSweep[k] == 1) row.opt1Sec = row.sweep[k].flatSec;
            if (threadsSweep[k] == 4) row.opt4Sec = row.sweep[k].flatSec;
        }
        if (row.opt1Sec == 0.0) row.opt1Sec = row.sweep.front().flatSec;
        if (row.opt4Sec == 0.0) row.opt4Sec = row.sweep.back().flatSec;

        if (n <= referenceMax) {
            t0 = std::chrono::steady_clock::now();
            const auto ref = core::analyzeDesignReference(design, spef, opt);
            row.refSec = seconds(t0);
            row.marginDiff =
                std::max(row.marginDiff, maxMarginDiff(opt1, ref));
        }

        // ---- propagation-enabled chained variant -------------------------
        // An aggressive-coupling corner (2.2x the flat variant's caps): weak
        // chain drivers under heavy coupling, so upstream glitches are large
        // enough that the combined verdicts diverge from local-only. Every
        // 4th net is left uncoupled: a quiet pass-through stage that carries
        // noise via the cached propagation tables.
        const auto chainSpef = parser::parseSpef(syntheticSpef(n, 2.2, 4));
        core::Design chained(lib);
        buildChainedDesign(chained, n, chains);
        const core::DesignIndex chainedIndex(chained, chainSpef);
        row.levels = chainedIndex.levels().levels.size();

        // Design lint over the already-built index: pure static stages (no
        // characterization), timed as its own pipeline step.
        t0 = std::chrono::steady_clock::now();
        const lint::LintReport lintRep =
            lint::lintDesign(chainedIndex, chainSpef);
        row.lintSec = seconds(t0);
        row.lintErrors = lintRep.errors();
        row.lintWarnings = lintRep.warnings();
        row.lintInfos = lintRep.infos();

        // ---- industry front-end round trip -------------------------------
        // Serialize the chained design as a gate-level Verilog netlist,
        // re-read it through the front-end parser, and rebuild the Design:
        // the rebuilt instances must match the original exactly.
        {
            const std::string vtext = designToVerilog(chained, "bench_chain");
            t0 = std::chrono::steady_clock::now();
            const auto module = parser::parseVerilog(vtext);
            row.frontendParseSec = seconds(t0);
            const auto rebuilt = core::buildDesign(module, lib);
            row.frontendInstances = rebuilt.instances().size();
            bool ok =
                rebuilt.instances().size() == chained.instances().size();
            for (std::size_t k = 0; ok && k < rebuilt.instances().size();
                 ++k) {
                const auto& a = rebuilt.instances()[k];
                const auto& b = chained.instances()[k];
                ok = a.name == b.name && a.cellName == b.cellName &&
                     a.pinToNet == b.pinToNet;
            }
            row.frontendRoundtripOk = ok;
            if (!ok) {
                std::fprintf(stderr,
                             "front-end Verilog round trip diverged\n");
                return 1;
            }
        }

        // Propagated wavefront across the same thread sweep, cross-checked
        // bitwise against the serial (t=1) run; the max-thread run also
        // reports its scheduler counters.
        core::DesignNoiseOptions popt = opt;
        popt.propagate = true;
        std::vector<core::NetNoiseReport> prop1;
        for (std::size_t k = 0; k < threadsSweep.size(); ++k) {
            charlib::CharCache pcache;
            popt.cache = &pcache;
            popt.threads = threadsSweep[k];
            util::SchedulerStats sched;
            const bool last = k + 1 == threadsSweep.size();
            popt.schedulerStats = last ? &sched : nullptr;
            t0 = std::chrono::steady_clock::now();
            const auto rep = core::analyzeDesign(chained, chainSpef, popt);
            row.sweep[k].propSec = seconds(t0);
            if (k == 0) {
                prop1 = rep;
                row.propagationRuns = pcache.stats().propagationRuns;
                for (const auto& r : rep) {
                    if (r.cluster.fails && !r.propagated.localFails) {
                        ++row.combinedOnlyFails;
                    }
                    row.maxMarginDrop =
                        std::max(row.maxMarginDrop,
                                 r.propagated.localMargin - r.cluster.margin);
                }
            } else {
                row.propMarginDiff = std::max(row.propMarginDiff,
                                              maxMarginDiff(prop1, rep));
            }
            if (threadsSweep[k] == 1) row.prop1Sec = row.sweep[k].propSec;
            if (threadsSweep[k] == 4) row.prop4Sec = row.sweep[k].propSec;
            if (last) {
                row.schedTasks = sched.tasksExecuted;
                row.schedSteals = sched.steals;
                row.schedMaxReady = sched.maxReadyDepth;
                row.schedBusy = sched.busyFraction;
                row.quarantinedTasks =
                    sched.quarantinedTasks + sched.degradedTasks;
                row.cancelled = sched.cancelled;
            }
        }
        popt.schedulerStats = nullptr;
        if (row.prop1Sec == 0.0) row.prop1Sec = row.sweep.front().propSec;
        if (row.prop4Sec == 0.0) row.prop4Sec = row.sweep.back().propSec;

        // ---- timing-windows variant --------------------------------------
        // Disjoint switching slots in blocks of two (n0,n1 early; n2,n3
        // late; ...): the in-slot ring neighbour keeps its aggressor role —
        // so real glitches still survive the windowed stages — while the
        // cross-slot neighbour is excluded and the surviving glitch is
        // dropped at every slot boundary. The recovered pessimism is
        // measured as windowed-minus-unconstrained margin per net.
        std::ostringstream ws;
        ws << "*T_UNIT 1 PS\n";
        for (int i = 0; i < n; ++i) {
            ws << "n" << i << ((i / 2) % 2 == 0 ? " 0 300" : " 1500 1800")
               << "\n";
        }
        const core::TimingWindows windows =
            parser::parseTimingWindows(ws.str());
        core::DesignNoiseOptions wopt = popt;
        charlib::CharCache wcache;
        wopt.cache = &wcache;
        wopt.threads = 1;
        wopt.windows = &windows;
        t0 = std::chrono::steady_clock::now();
        const auto windowed = core::analyzeDesign(chained, chainSpef, wopt);
        row.windowed1Sec = seconds(t0);
        bool firstWindowed = true;
        for (const auto& r : windowed) {
            if (!r.windows.constrained) continue;
            row.maxMarginRecovery =
                std::max(row.maxMarginRecovery,
                         r.windows.windowedMargin -
                             r.windows.unconstrainedMargin);
            row.windowExcludedAggressors +=
                r.windows.excludedAggressors.size();
            row.windowDroppedIncoming += r.windows.droppedIncoming.size();
            if (firstWindowed ||
                r.windows.unconstrainedMargin <
                    row.worstUnconstrainedMargin) {
                row.worstUnconstrainedMargin = r.windows.unconstrainedMargin;
            }
            if (firstWindowed ||
                r.windows.windowedMargin < row.worstWindowedMargin) {
                row.worstWindowedMargin = r.windows.windowedMargin;
            }
            firstWindowed = false;
        }

        // ---- persistent characterization cache -----------------------------
        // Cold wavefront run into a fresh cache, save, load into another
        // fresh cache, identical run warm: the second invocation must do
        // zero characterization work — disk hits replace every run.
        const std::string cachePath =
            "bench_design_scale_" + std::to_string(n) + ".snacache.tmp";
        const CacheFileCleanup cacheCleanup{cachePath};
        core::DesignNoiseOptions copt = popt;
        copt.threads = threadsSweep.back();
        std::vector<core::NetNoiseReport> cacheCold;
        {
            charlib::CharCache cold;
            copt.cache = &cold;
            t0 = std::chrono::steady_clock::now();
            cacheCold = core::analyzeDesign(chained, chainSpef, copt);
            row.cacheColdSec = seconds(t0);
            const auto saved = cold.save(cachePath);
            if (!saved.ok) {
                std::fprintf(stderr, "cache save failed: %s\n",
                             saved.error.c_str());
                return 1;
            }
            row.cacheEntries = saved.entries;
        }
        {
            charlib::CharCache warm;
            const auto loaded = warm.load(cachePath);
            if (!loaded.ok) {
                std::fprintf(stderr, "cache load failed: %s\n",
                             loaded.error.c_str());
                return 1;
            }
            copt.cache = &warm;
            t0 = std::chrono::steady_clock::now();
            const auto rep = core::analyzeDesign(chained, chainSpef, copt);
            row.cacheWarmSec = seconds(t0);
            const auto wstats = warm.stats();
            row.cacheWarmCharRuns = wstats.totalRuns();
            row.cacheDiskHits = wstats.totalDiskHits();
            if (row.cacheWarmCharRuns != 0 ||
                maxMarginDiff(cacheCold, rep) != 0.0) {
                std::fprintf(stderr,
                             "warm cache run recharacterized or diverged "
                             "(%zu runs)\n",
                             row.cacheWarmCharRuns);
                return 1;
            }
        }

        // ---- incremental ECO re-analysis -----------------------------------
        // Retain a snapshot of the cold full run, resize `eco` drivers near
        // the chain tails (small downstream cones), and time the restricted
        // re-solve against a full warm-cache re-run of the mutated design.
        {
            charlib::CharCache ecache;
            core::DesignNoiseOptions eopt = popt;
            eopt.threads = threadsSweep.back();
            eopt.cache = &ecache;
            core::AnalysisSnapshot snapshot;
            eopt.snapshot = &snapshot;
            core::analyzeDesign(chained, chainSpef, eopt);
            eopt.snapshot = nullptr;

            const int depth = (n + chains - 1) / chains;
            core::DesignDelta delta;
            for (int j = 0; j < eco; ++j) {
                const int idx = (n - 1) - j * depth;
                if (idx < 0) break;
                const std::string name = "g" + std::to_string(idx);
                chained.replaceCell(name, "INV_X2");
                delta.instances.push_back(name);
            }
            row.ecoNets = delta.instances.size();

            core::IncrementalStats istats;
            t0 = std::chrono::steady_clock::now();
            const auto fast = core::analyzeDesignIncremental(
                chained, chainSpef, delta, snapshot, eopt, &istats);
            row.ecoIncrementalSec = seconds(t0);
            row.ecoDirtyTasks = istats.dirtyTasks;
            row.ecoTotalTasks = istats.totalTasks;

            t0 = std::chrono::steady_clock::now();
            const auto full = core::analyzeDesign(chained, chainSpef, eopt);
            row.ecoFullSec = seconds(t0);
            row.incrementalMarginDiff = maxMarginDiff(fast, full);
            if (row.incrementalMarginDiff != 0.0) {
                std::fprintf(stderr,
                             "incremental ECO run diverged from the full "
                             "re-run (max |dMargin| %.3e V)\n",
                             row.incrementalMarginDiff);
                return 1;
            }
        }

        rows.push_back(row);
        std::fprintf(stderr, "done %d nets\n", n);
    }

    util::Table table({"Nets", "Reports", "Reference (s)", "Opt t=1 (s)",
                       "Opt t=4 (s)", "Speed-up", "Max |dMargin| (V)",
                       "LC runs", "NRC runs"});
    for (const auto& r : rows) {
        const double best = std::min(r.opt1Sec, r.opt4Sec);
        table.addRow(
            {std::to_string(r.nets), std::to_string(r.reports),
             r.refSec < 0 ? "-" : util::Table::num(r.refSec, 2),
             util::Table::num(r.opt1Sec, 2), util::Table::num(r.opt4Sec, 2),
             r.refSec < 0 ? "-" : util::Table::num(r.refSec / best, 1),
             util::Table::num(r.marginDiff, 12),
             std::to_string(r.loadCurveRuns), std::to_string(r.nrcRuns)});
    }
    std::printf("Design-scale noise analysis throughput\n\n%s\n",
                table.str().c_str());

    util::Table ptable({"Nets", "Levels", "Lint (s)", "Lint E/W/I",
                        "Prop sweep t:s", "Max |dMargin| sweep (V)",
                        "Prop-table runs",
                        "Max margin drop (V)", "Combined-only fails"});
    for (const auto& r : rows) {
        std::ostringstream sw;
        for (std::size_t k = 0; k < r.sweep.size(); ++k) {
            sw << (k == 0 ? "" : " ") << r.sweep[k].threads << ":"
               << util::Table::num(r.sweep[k].propSec, 2);
        }
        ptable.addRow({std::to_string(r.nets), std::to_string(r.levels),
                       util::Table::num(r.lintSec, 4),
                       std::to_string(r.lintErrors) + "/" +
                           std::to_string(r.lintWarnings) + "/" +
                           std::to_string(r.lintInfos),
                       sw.str(), util::Table::num(r.propMarginDiff, 12),
                       std::to_string(r.propagationRuns),
                       util::Table::num(r.maxMarginDrop, 3),
                       std::to_string(r.combinedOnlyFails)});
    }
    std::printf(
        "Propagated-noise wavefront (chained design, %d chains, "
        "task-graph scheduling)\n\n%s\n",
        chains, ptable.str().c_str());

    util::Table ftable({"Nets", "Instances", "Verilog parse (s)",
                        "Round trip"});
    for (const auto& r : rows) {
        ftable.addRow({std::to_string(r.nets),
                       std::to_string(r.frontendInstances),
                       util::Table::num(r.frontendParseSec, 4),
                       r.frontendRoundtripOk ? "exact" : "DIVERGED"});
    }
    std::printf(
        "Industry front end (Verilog serialize / parse / rebuild)\n\n%s\n",
        ftable.str().c_str());

    util::Table stable({"Nets", "Tasks", "Steals", "Max ready depth",
                        "Busy fraction / worker"});
    for (const auto& r : rows) {
        std::ostringstream busy;
        for (std::size_t k = 0; k < r.schedBusy.size(); ++k) {
            busy << (k == 0 ? "" : " ") << util::Table::num(r.schedBusy[k], 2);
        }
        stable.addRow({std::to_string(r.nets), std::to_string(r.schedTasks),
                       std::to_string(r.schedSteals),
                       std::to_string(r.schedMaxReady), busy.str()});
    }
    std::printf(
        "Task-graph scheduler counters (max-thread propagate run)\n\n%s\n",
        stable.str().c_str());

    util::Table wtable({"Nets", "Windowed t=1 (s)", "Excl aggs",
                        "Dropped glitches", "Worst unconstr margin (V)",
                        "Worst windowed margin (V)", "Max recovery (V)"});
    for (const auto& r : rows) {
        wtable.addRow({std::to_string(r.nets),
                       util::Table::num(r.windowed1Sec, 2),
                       std::to_string(r.windowExcludedAggressors),
                       std::to_string(r.windowDroppedIncoming),
                       util::Table::num(r.worstUnconstrainedMargin, 3),
                       util::Table::num(r.worstWindowedMargin, 3),
                       util::Table::num(r.maxMarginRecovery, 3)});
    }
    std::printf(
        "Timing-windowed wavefront (alternating disjoint switching "
        "slots)\n\n%s\n",
        wtable.str().c_str());

    util::Table ctable({"Nets", "Cache entries", "Cold (s)", "Warm (s)",
                        "Warm char runs", "Disk hits", "ECO nets",
                        "Dirty/total tasks", "Incr (s)", "Full (s)",
                        "Incr speed-up"});
    for (const auto& r : rows) {
        ctable.addRow(
            {std::to_string(r.nets), std::to_string(r.cacheEntries),
             util::Table::num(r.cacheColdSec, 2),
             util::Table::num(r.cacheWarmSec, 2),
             std::to_string(r.cacheWarmCharRuns),
             std::to_string(r.cacheDiskHits), std::to_string(r.ecoNets),
             std::to_string(r.ecoDirtyTasks) + "/" +
                 std::to_string(r.ecoTotalTasks),
             util::Table::num(r.ecoIncrementalSec, 3),
             util::Table::num(r.ecoFullSec, 3),
             r.ecoIncrementalSec > 0.0
                 ? util::Table::num(r.ecoFullSec / r.ecoIncrementalSec, 1)
                 : "-"});
    }
    std::printf(
        "Persistent cache warm start + incremental ECO re-analysis\n\n%s\n",
        ctable.str().c_str());

    std::printf("{\"bench\": \"design_scale\", \"rows\": [");
    for (std::size_t i = 0; i < rows.size(); ++i) {
        const auto& r = rows[i];
        const std::string refStr =
            r.refSec < 0 ? "null" : util::Table::num(r.refSec, 4);
        const std::string speedupStr =
            r.refSec < 0
                ? "null"
                : util::Table::num(r.refSec / std::min(r.opt1Sec, r.opt4Sec),
                                   2);
        std::ostringstream sweepJson;
        for (std::size_t k = 0; k < r.sweep.size(); ++k) {
            sweepJson << (k == 0 ? "" : ", ") << "{\"threads\": "
                      << r.sweep[k].threads << ", \"workers\": "
                      << r.sweep[k].workers << ", \"flat_sec\": "
                      << util::Table::num(r.sweep[k].flatSec, 4)
                      << ", \"propagate_sec\": "
                      << util::Table::num(r.sweep[k].propSec, 4) << "}";
        }
        std::ostringstream busyJson;
        for (std::size_t k = 0; k < r.schedBusy.size(); ++k) {
            busyJson << (k == 0 ? "" : ", ")
                     << util::Table::num(r.schedBusy[k], 4);
        }
        std::printf(
            "%s{\"nets\": %d, \"reports\": %zu, \"reference_sec\": %s, "
            "\"optimized_t1_sec\": %.4f, \"optimized_t4_sec\": %.4f, "
            "\"speedup\": %s, \"max_margin_diff\": %.3e, "
            "\"load_curve_runs\": %zu, \"nrc_runs\": %zu, "
            "\"threads_sweep\": [%s], "
            "\"levels\": %zu, \"lint_sec\": %.4f, \"lint_errors\": %zu, "
            "\"lint_warnings\": %zu, \"lint_infos\": %zu, "
            "\"propagate_t1_sec\": %.4f, "
            "\"propagate_t4_sec\": %.4f, \"propagate_margin_diff\": %.3e, "
            "\"scheduler_tasks\": %zu, \"scheduler_steals\": %zu, "
            "\"scheduler_max_ready_depth\": %zu, "
            "\"scheduler_busy_fraction\": [%s], "
            "\"quarantined_tasks\": %zu, \"cancelled\": %s, "
            "\"propagation_runs\": %zu, \"max_margin_drop\": %.4f, "
            "\"combined_only_fails\": %zu, \"windowed_t1_sec\": %.4f, "
            "\"window_excluded_aggressors\": %zu, "
            "\"window_dropped_incoming\": %zu, "
            "\"worst_unconstrained_margin\": %.4f, "
            "\"worst_windowed_margin\": %.4f, "
            "\"max_margin_recovery\": %.4f, "
            "\"cache_entries\": %zu, \"cache_cold_sec\": %.4f, "
            "\"cache_warm_sec\": %.4f, \"cache_warm_char_runs\": %zu, "
            "\"cache_disk_hits\": %zu, "
            "\"eco_nets\": %zu, \"eco_dirty_tasks\": %zu, "
            "\"eco_total_tasks\": %zu, \"eco_incremental_sec\": %.4f, "
            "\"eco_full_sec\": %.4f, \"incremental_margin_diff\": %.3e, "
            "\"frontend_parse_sec\": %.4f, \"frontend_roundtrip_ok\": %s, "
            "\"frontend_instances\": %zu}",
            i == 0 ? "" : ", ", r.nets, r.reports, refStr.c_str(), r.opt1Sec,
            r.opt4Sec, speedupStr.c_str(), r.marginDiff, r.loadCurveRuns,
            r.nrcRuns, sweepJson.str().c_str(), r.levels, r.lintSec,
            r.lintErrors, r.lintWarnings, r.lintInfos, r.prop1Sec,
            r.prop4Sec, r.propMarginDiff, r.schedTasks,
            r.schedSteals, r.schedMaxReady, busyJson.str().c_str(),
            r.quarantinedTasks, r.cancelled ? "true" : "false",
            r.propagationRuns, r.maxMarginDrop, r.combinedOnlyFails,
            r.windowed1Sec, r.windowExcludedAggressors,
            r.windowDroppedIncoming, r.worstUnconstrainedMargin,
            r.worstWindowedMargin, r.maxMarginRecovery, r.cacheEntries,
            r.cacheColdSec, r.cacheWarmSec, r.cacheWarmCharRuns,
            r.cacheDiskHits, r.ecoNets, r.ecoDirtyTasks, r.ecoTotalTasks,
            r.ecoIncrementalSec, r.ecoFullSec, r.incrementalMarginDiff,
            r.frontendParseSec, r.frontendRoundtripOk ? "true" : "false",
            r.frontendInstances);
    }
    std::printf("], \"chains\": %d}\n", chains);
    return 0;
}
