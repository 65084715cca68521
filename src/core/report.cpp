#include "core/report.hpp"

#include <algorithm>
#include <cmath>

#include "util/error.hpp"

namespace sna::core {

std::vector<double> NrcOptions::grid() const {
    SNA_REQUIRE(widthMin > 0.0 && widthLimit > widthMin,
                "NRC width grid needs 0 < widthMin < widthLimit");
    SNA_REQUIRE(growth > 1.0, "NRC width grid growth must be > 1");
    std::vector<double> grid;
    for (double p = widthMin; p < widthLimit; p *= growth) {
        grid.push_back(p);
    }
    return grid;
}

double nrcLimitFor(const ClusterSpec& spec, const wave::GlitchMetrics& m,
                   charlib::CharCache* cache, const NrcOptions& nrcOpt) {
    const cell::CellLibrary& lib = cell::sharedLibrary(*spec.technology);
    charlib::NrcSpec nrc;
    nrc.cell = &lib.cell(spec.victim.receiverCell);
    nrc.input = nrc.cell->inputNames().front();
    // Quiet receiver input level = the victim's held level.
    nrc.quietLevel = spec.victim.outputLevel;
    if (nrcOpt.interp == NrcOptions::Interp::kExact) {
        // Validation reference: bisect the exact measured width. Uncached
        // by design: keys would embed the bitwise width, so a shared cache
        // would accumulate one near-unhittable entry per glitch.
        return charlib::nrcFailingHeight(nrc,
                                         std::max(m.width, nrcOpt.widthMin));
    }
    // Default: read the curve on the canonical width grid and evaluate the
    // measured width by interpolation — the grid is what makes the heights
    // cacheable across every cluster of a run. Half-octave spacing with
    // log-width interpolation keeps the deviation from an exact-width probe
    // within ~0.15% — the bisection's own resolution.
    const std::vector<double> grid = nrcOpt.grid();
    SNA_REQUIRE(grid.size() >= 2, "NRC width grid needs >= 2 points");
    const double w = std::max(m.width, grid.front());
    if (w > grid.back()) {
        // Wider than the canonical grid (only reachable when tstop is raised
        // above its default): clamping would read the limit of a narrower
        // glitch, which is optimistic. Probe the actual width instead.
        return charlib::nrcFailingHeight(nrc, w);
    }
    // Each width bisects independently, so only the two grid widths that
    // bracket w are characterized (once per run through the cache), and
    // the interpolated value is bitwise the full curve's.
    const auto height = [&](double width) {
        return cache != nullptr ? cache->nrcHeight(nrc, width)
                                : charlib::nrcFailingHeight(nrc, width);
    };
    std::size_t i = 0;
    while (i + 2 < grid.size() && grid[i + 1] <= w) ++i;
    const double y0 = height(grid[i]);
    // On a node the upper width would enter with weight 0 (y0 + 0 * d is
    // y0 for finite d), so it is not read.
    if (w <= grid[i]) return y0;
    const double y1 = height(grid[i + 1]);
    const double t = nrcOpt.interp == NrcOptions::Interp::kLogWidth
                         ? (std::log(w) - std::log(grid[i])) /
                               (std::log(grid[i + 1]) - std::log(grid[i]))
                         : (w - grid[i]) / (grid[i + 1] - grid[i]);
    return y0 + t * (y1 - y0);
}

ClusterReport analyzeCluster(const ClusterSpec& spec,
                             const ReportOptions& opt) {
    const ClusterMacromodel model(spec, opt.macromodel);

    ClusterReport report;
    if (opt.searchAlignment) {
        auto align = findWorstAlignment(model, opt.alignment);
        report.worst = std::move(align.worst);
        report.aggressorSwitchTimes = std::move(align.aggressorSwitchTimes);
        report.glitchTime = align.glitchTime;
    } else {
        report.worst = model.analyze();
        for (const auto& agg : spec.aggressors) {
            report.aggressorSwitchTimes.push_back(agg.switchTime);
        }
        report.glitchTime = spec.victim.glitchTime;
    }

    report.nrcLimit = nrcLimitFor(spec, report.worst.metrics,
                                  opt.macromodel.cache, opt.nrc);
    const double height = std::abs(report.worst.metrics.peak);
    report.fails = height >= report.nrcLimit;
    report.margin = report.nrcLimit - height;
    report.glitchInHeight = spec.victim.glitchHeight;
    report.glitchInWidth = spec.victim.glitchHeight > 0.0
                               ? spec.victim.glitchWidth
                               : 0.0;
    return report;
}

}  // namespace sna::core
