// Cluster-level noise verdicts: worst-case analysis + NRC comparison.
//
// The second step of SNA per the paper's introduction: the combined noise
// at the victim receiver input is checked against the receiver's dynamic
// noise margin — the Noise Rejection Curve. A glitch whose (width, height)
// lands above the curve is flagged as a functional failure.
#pragma once

#include "core/alignment.hpp"

namespace sna::core {

struct ClusterReport {
    NoiseResult worst;                        ///< macromodel, worst alignment
    std::vector<double> aggressorSwitchTimes;
    double glitchTime = 0.0;
    double nrcLimit = 0.0;   ///< failing height at the glitch's width, V
    bool fails = false;      ///< |peak| >= nrcLimit
    double margin = 0.0;     ///< nrcLimit - |peak| (negative = failure)
    /// Echo of the propagated glitch injected at the victim driver input
    /// for this run (0 when the cluster was analyzed without one).
    double glitchInHeight = 0.0;  ///< V
    double glitchInWidth = 0.0;   ///< s (triangle base width)
};

/// The canonical NRC probe grid and its evaluation mode. The NRC is a
/// property of the receiver cell, not of one glitch: probing canonical
/// widths makes each height cacheable across every cluster of a run, and
/// the measured width is then evaluated by interpolation between the two
/// grid widths that bracket it.
struct NrcOptions {
    /// First probed width, s.
    double widthMin = 20e-12;
    /// Grid stops at the last point below this, s.
    double widthLimit = 2.561e-9;
    /// Ratio between consecutive probe widths (default: half-octave).
    double growth = 1.4142135623730951;  // sqrt(2)
    enum class Interp {
        kLogWidth,     ///< linear in log(width) — default, matches the
                       ///< half-octave grid's ~0.15% deviation bound
        kLinearWidth,  ///< linear in width
        kExact,        ///< bisect the exact measured width (uncached: keys
                       ///< would embed the bitwise width) — the validation
                       ///< reference the grid modes are measured against
    };
    Interp interp = Interp::kLogWidth;

    /// The probe grid implied by the knobs.
    std::vector<double> grid() const;
};

struct ReportOptions {
    ClusterMacromodel::Options macromodel;
    bool searchAlignment = true;
    AlignmentOptions alignment;
    NrcOptions nrc;
};

/// The complete per-cluster flow: characterize, find the worst alignment,
/// and check the victim receiver's NRC.
ClusterReport analyzeCluster(const ClusterSpec& spec,
                             const ReportOptions& opt = {});

/// NRC check only (reusable by the design flow): failing height of the
/// receiver at the measured width. Reads at most the two canonical grid
/// widths that bracket it; with a cache, each (receiver cell, level, width)
/// is characterized at most once per run.
double nrcLimitFor(const ClusterSpec& spec, const wave::GlitchMetrics& m,
                   charlib::CharCache* cache = nullptr,
                   const NrcOptions& nrcOpt = {});

}  // namespace sna::core
