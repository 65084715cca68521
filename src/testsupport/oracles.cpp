#include "testsupport/oracles.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>
#include <utility>

#include "core/wavefront.hpp"
#include "interconnect/parallel_bus.hpp"
#include "util/error.hpp"
#include "util/log.hpp"

namespace sna::core {

namespace {

double objective(const ClusterMacromodel& model,
                 const std::vector<double>& aggTimes, double glitchTime,
                 NoiseResult* out) {
    NoiseResult r = model.analyzeAt(aggTimes, glitchTime);
    const double value = std::abs(r.metrics.peak);
    if (out != nullptr) *out = std::move(r);
    return value;
}

}  // namespace

std::vector<NetNoiseReport> analyzeDesignReference(
    const Design& design, const parser::SpefFile& spef,
    const DesignNoiseOptions& opt) {
    std::vector<NetNoiseReport> reports;
    const cell::CellLibrary& lib = design.library();

    for (const auto& [netName, spefNet] : spef.nets()) {
        auto aggressors = spef.aggressorsOf(netName);
        if (aggressors.empty()) continue;
        const Instance* driver = design.driverOf(netName);
        if (driver == nullptr) {
            log::warn() << "SPEF net '" << netName
                        << "' has coupling but no driver in the design";
            continue;
        }
        const auto loads = design.loadsOf(netName);
        if (loads.empty()) continue;

        // The pre-index cost model: coupling caps may be listed under either
        // net's section, so every (victim, aggressor) pair rescans all nets.
        auto ownerOf = [](const std::string& node) {
            return node.substr(0, node.find(':'));
        };
        std::vector<std::pair<double, std::string>> ranked;
        for (const auto& agg : aggressors) {
            if (spef.nets().find(agg) == spef.nets().end()) continue;
            if (design.driverOf(agg) == nullptr) continue;
            double cc = 0.0;
            for (const auto& [otherName, otherNet] : spef.nets()) {
                for (const auto& cap : otherNet.caps) {
                    if (cap.node2.empty()) continue;
                    const std::string o1 = ownerOf(cap.node1);
                    const std::string o2 = ownerOf(cap.node2);
                    if ((o1 == netName && o2 == agg) ||
                        (o2 == netName && o1 == agg)) {
                        cc += cap.farads;
                    }
                }
            }
            ranked.push_back({cc, agg});
        }
        std::sort(ranked.begin(), ranked.end(), [](const auto& a,
                                                   const auto& b) {
            return a.first != b.first ? a.first > b.first
                                      : a.second < b.second;
        });
        if (ranked.size() > opt.maxAggressors) {
            ranked.resize(opt.maxAggressors);
        }
        if (ranked.empty()) continue;

        std::vector<std::string> clusterNets{netName};
        for (const auto& [cc, agg] : ranked) clusterNets.push_back(agg);
        const ic::RcNetwork rc = ic::rcFromSpef(spef, clusterNets);

        std::vector<std::pair<std::string, std::string>> rankedAggressors;
        for (const auto& [cc, agg] : ranked) {
            rankedAggressors.push_back({design.driverOf(agg)->cellName, agg});
        }
        // Uncached, serial cluster analysis: every cluster re-characterizes.
        ReportOptions ropt = opt.report;
        ropt.macromodel.cache = nullptr;
        reports.push_back(analyzeVictim(lib, netName, *driver,
                                        *loads.front().first,
                                        rankedAggressors, rc, opt.tstop,
                                        ropt));
        // Surface the non-winning drivers of a multiply-driven net, same
        // as the indexed path.
        for (const auto& inst : design.instances()) {
            const cell::Cell& c = lib.cell(inst.cellName);
            const auto out = inst.pinToNet.find(c.outputName());
            if (out != inst.pinToNet.end() && out->second == netName &&
                &inst != driver) {
                reports.back().otherDrivers.push_back(inst.name);
            }
        }
        std::sort(reports.back().otherDrivers.begin(),
                  reports.back().otherDrivers.end());
    }
    return reports;
}

AlignmentResult bruteForceWorstAlignment(const ClusterMacromodel& model,
                                         double window, int pointsPerAxis) {
    SNA_REQUIRE(pointsPerAxis >= 2, "grid needs >= 2 points per axis");
    const ClusterSpec& spec = model.spec();
    const bool hasGlitch = spec.victim.glitchHeight > 0.0;
    const InitialTimes init = peakAlignedInit(model);
    const std::size_t vars = init.agg.size() + (hasGlitch ? 1 : 0);
    SNA_REQUIRE(vars >= 1, "nothing to align");

    std::vector<int> idx(vars, 0);
    AlignmentResult best;
    double bestVal = -1.0;
    bool done = false;
    while (!done) {
        std::vector<double> aggTimes = init.agg;
        double glitchTime = init.glitch;
        for (std::size_t v = 0; v < vars; ++v) {
            const double center =
                (hasGlitch && v == init.agg.size()) ? init.glitch
                                                    : init.agg[v];
            const double t = center - 0.5 * window +
                             window * idx[v] / (pointsPerAxis - 1);
            if (hasGlitch && v == init.agg.size()) {
                glitchTime = std::max(t, 0.0);
            } else {
                aggTimes[v] = std::max(t, 0.0);
            }
        }
        NoiseResult r;
        const double val = objective(model, aggTimes, glitchTime, &r);
        ++best.evaluations;
        if (val > bestVal) {
            bestVal = val;
            best.aggressorSwitchTimes = aggTimes;
            best.glitchTime = glitchTime;
            best.worst = std::move(r);
        }
        // Advance the multi-index.
        done = true;
        for (std::size_t v = 0; v < vars; ++v) {
            if (++idx[v] < pointsPerAxis) {
                done = false;
                break;
            }
            idx[v] = 0;
        }
    }
    return best;
}

}  // namespace sna::core

namespace sna::testsupport {

core::AlignmentResult referenceWorstAlignment(
    const core::ClusterMacromodel& model, const core::AlignmentOptions& opt) {
    using core::objective;
    struct Axis {
        double lo = 0.0;
        double hi = 0.0;
        bool active = true;
    };
    const auto clampTo = [](double t, const Axis& ax) {
        return std::min(std::max(t, ax.lo), ax.hi);
    };
    constexpr double kQuiet = std::numeric_limits<double>::infinity();
    const core::ClusterSpec& spec = model.spec();
    const bool hasGlitch = spec.victim.glitchHeight > 0.0;
    const double tMax = 0.8 * spec.tstop;

    std::vector<Axis> aggAxis(spec.aggressors.size());
    for (std::size_t a = 0; a < spec.aggressors.size(); ++a) {
        Axis ax{0.0, tMax, true};
        if (!opt.aggressorWindows.empty()) {
            const core::TimingWindow& w = opt.aggressorWindows[a];
            const auto& m = model.aggressorModels()[a];
            if (w.empty()) {
                ax.active = false;
            } else {
                ax.lo = std::max(0.0, w.earliest - m.delay - m.slew);
                ax.hi = std::min(tMax, w.latest - m.delay);
                ax.active = ax.lo <= ax.hi;
            }
        }
        aggAxis[a] = ax;
    }
    Axis glitchAxis{0.0, tMax, hasGlitch};
    if (hasGlitch && opt.glitchWindow.bounded()) {
        glitchAxis.lo = std::max(
            0.0, opt.glitchWindow.earliest - spec.victim.glitchWidth);
        glitchAxis.hi = std::min(tMax, opt.glitchWindow.latest);
    }

    core::InitialTimes times = core::peakAlignedInit(model);
    for (std::size_t a = 0; a < times.agg.size(); ++a) {
        times.agg[a] =
            aggAxis[a].active ? clampTo(times.agg[a], aggAxis[a]) : kQuiet;
    }
    if (hasGlitch) times.glitch = clampTo(times.glitch, glitchAxis);

    core::AlignmentResult best;
    best.aggressorSwitchTimes = times.agg;
    best.glitchTime = times.glitch;
    double bestVal = objective(model, times.agg, times.glitch, &best.worst);
    best.evaluations = 1;

    std::vector<double> specTimes;
    for (std::size_t a = 0; a < spec.aggressors.size(); ++a) {
        specTimes.push_back(
            aggAxis[a].active
                ? clampTo(spec.aggressors[a].switchTime, aggAxis[a])
                : kQuiet);
    }
    const double specGlitch =
        hasGlitch ? clampTo(spec.victim.glitchTime, glitchAxis) : times.glitch;
    core::NoiseResult specRun;
    const double specVal = objective(model, specTimes, specGlitch, &specRun);
    ++best.evaluations;
    if (specVal >= bestVal) {
        bestVal = specVal;
        best.aggressorSwitchTimes = std::move(specTimes);
        best.glitchTime = specGlitch;
        best.worst = std::move(specRun);
    }

    const std::size_t vars = times.agg.size() + (hasGlitch ? 1 : 0);
    double window = opt.window;
    for (int round = 0; round < opt.rounds; ++round) {
        for (std::size_t v = 0; v < vars; ++v) {
            const bool isGlitch = hasGlitch && v == times.agg.size();
            const Axis& ax = isGlitch ? glitchAxis : aggAxis[v];
            if (!ax.active) continue;
            const double center =
                isGlitch ? best.glitchTime : best.aggressorSwitchTimes[v];
            double lastT = -1.0;
            for (int k = 0; k < opt.coarsePoints; ++k) {
                const double t = clampTo(
                    center - 0.5 * window +
                        window * k / std::max(1, opt.coarsePoints - 1),
                    ax);
                if (t == lastT) continue;
                lastT = t;
                auto aggTimes = best.aggressorSwitchTimes;
                double glitchTime = best.glitchTime;
                if (isGlitch) {
                    glitchTime = t;
                } else {
                    aggTimes[v] = t;
                }
                core::NoiseResult r;
                const double val = objective(model, aggTimes, glitchTime, &r);
                ++best.evaluations;
                if (val > bestVal) {
                    bestVal = val;
                    best.aggressorSwitchTimes = aggTimes;
                    best.glitchTime = glitchTime;
                    best.worst = std::move(r);
                }
            }
        }
        window /= 3.0;
    }
    return best;
}

}  // namespace sna::testsupport
