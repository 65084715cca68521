#include "core/alignment.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/error.hpp"
#include "util/log.hpp"

namespace sna::core {

namespace {

constexpr double kQuiet = std::numeric_limits<double>::infinity();

/// Feasible interval of one search variable; `active == false` means the
/// variable is window-excluded and fixed (quiet aggressor).
struct Axis {
    double lo = 0.0;
    double hi = 0.0;
    bool active = true;
};

double clampTo(double t, const Axis& ax) {
    return std::min(std::max(t, ax.lo), ax.hi);
}

double objective(const ClusterMacromodel& model,
                 const std::vector<double>& aggTimes, double glitchTime,
                 NoiseResult* out) {
    NoiseResult r = model.analyzeAt(aggTimes, glitchTime);
    const double value = std::abs(r.metrics.peak);
    if (out != nullptr) *out = std::move(r);
    return value;
}

}  // namespace

InitialTimes peakAlignedInit(const ClusterMacromodel& model) {
    const ClusterSpec& spec = model.spec();
    const double tCenter = 0.35 * spec.tstop;
    InitialTimes init;
    for (std::size_t a = 0; a < spec.aggressors.size(); ++a) {
        const auto& m = model.aggressorModels()[a];
        // Injected noise peaks roughly when the aggressor ramp ends.
        init.agg.push_back(tCenter - m.delay - m.slew);
    }
    // Propagated glitch peaks about half a width after its onset.
    init.glitch = tCenter - 0.5 * spec.victim.glitchWidth;
    return init;
}

AlignmentResult findWorstAlignment(const ClusterMacromodel& model,
                                   const AlignmentOptions& opt) {
    const ClusterSpec& spec = model.spec();
    const bool hasGlitch = spec.victim.glitchHeight > 0.0;
    const double tMax = 0.8 * spec.tstop;

    // ---- feasible interval per search variable ---------------------------
    // Aggressor windows constrain the OUTPUT transition [t + delay,
    // t + delay + slew]; it overlaps window w iff the INPUT switch time t
    // lies in [w.earliest - delay - slew, w.latest - delay]. The glitch
    // window constrains the triangle occupancy [g, g + glitchWidth], so the
    // onset interval is [w.earliest - glitchWidth, w.latest]. Everything is
    // additionally clamped to [0, 0.8 tstop]: before t = 0 the stimulus is
    // truncated and the objective misleading.
    std::vector<Axis> aggAxis(spec.aggressors.size());
    SNA_REQUIRE(opt.aggressorWindows.empty() ||
                    opt.aggressorWindows.size() == spec.aggressors.size(),
                "need one aggressor window per aggressor (or none)");
    for (std::size_t a = 0; a < spec.aggressors.size(); ++a) {
        Axis ax{0.0, tMax, true};
        if (!opt.aggressorWindows.empty()) {
            const TimingWindow& w = opt.aggressorWindows[a];
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
        SNA_REQUIRE(glitchAxis.lo <= glitchAxis.hi,
                    "glitch window leaves no feasible onset; drop the "
                    "glitch candidate instead");
    }

    InitialTimes times = peakAlignedInit(model);
    for (std::size_t a = 0; a < times.agg.size(); ++a) {
        times.agg[a] =
            aggAxis[a].active ? clampTo(times.agg[a], aggAxis[a]) : kQuiet;
    }
    if (hasGlitch) times.glitch = clampTo(times.glitch, glitchAxis);

    AlignmentResult best;
    best.aggressorSwitchTimes = times.agg;
    best.glitchTime = times.glitch;
    double bestVal =
        objective(model, times.agg, times.glitch, &best.worst);
    best.evaluations = 1;

    // The spec's own alignment is a free candidate — never return worse
    // than what the caller would get without the search. Clamped into the
    // feasible intervals, and preferred on ties so a flat landscape keeps
    // the caller's alignment.
    {
        std::vector<double> specTimes;
        for (std::size_t a = 0; a < spec.aggressors.size(); ++a) {
            specTimes.push_back(aggAxis[a].active
                                    ? clampTo(spec.aggressors[a].switchTime,
                                              aggAxis[a])
                                    : kQuiet);
        }
        const double specGlitch =
            hasGlitch ? clampTo(spec.victim.glitchTime, glitchAxis)
                      : times.glitch;
        NoiseResult r;
        const double val = objective(model, specTimes, specGlitch, &r);
        ++best.evaluations;
        if (val >= bestVal) {
            bestVal = val;
            best.aggressorSwitchTimes = std::move(specTimes);
            best.glitchTime = specGlitch;
            best.worst = std::move(r);
        }
    }

    // Coordinate refinement over the ACTIVE axes only: window-excluded
    // aggressors stay quiet, and with glitchHeight == 0 there is no glitch
    // axis to probe at all (the dead axis is skipped, not searched).
    const std::size_t vars = times.agg.size() + (hasGlitch ? 1 : 0);
    double window = opt.window;
    for (int round = 0; round < opt.rounds; ++round) {
        for (std::size_t v = 0; v < vars; ++v) {
            const bool isGlitch = hasGlitch && v == times.agg.size();
            const Axis& ax = isGlitch ? glitchAxis : aggAxis[v];
            if (!ax.active) continue;
            const double center = isGlitch
                                      ? best.glitchTime
                                      : best.aggressorSwitchTimes[v];
            double lastT = -1.0;  // no probe yet (feasible times are >= 0)
            for (int k = 0; k < opt.coarsePoints; ++k) {
                const double t = clampTo(
                    center - 0.5 * window +
                        window * k / std::max(1, opt.coarsePoints - 1),
                    ax);
                if (t == lastT) continue;  // clamp collapsed the candidate
                lastT = t;
                auto aggTimes = best.aggressorSwitchTimes;
                double glitchTime = best.glitchTime;
                if (isGlitch) {
                    glitchTime = t;
                } else {
                    aggTimes[v] = t;
                }
                NoiseResult r;
                const double val =
                    objective(model, aggTimes, glitchTime, &r);
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
    log::debug() << "alignment search: " << best.evaluations
                 << " evaluations, worst peak " << best.worst.metrics.peak;
    return best;
}

}  // namespace sna::core
