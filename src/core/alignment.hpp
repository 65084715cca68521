// Worst-case noise alignment search.
//
// The total glitch depends on when each aggressor switches and when the
// propagated glitch arrives. The paper's worst case "occurs when all the
// noise glitch peaks are aligned"; this module provides that heuristic as a
// starting point plus a coordinate-refinement search on the macromodel
// (cheap — each probe is a ~10-node transient).
#pragma once

#include "core/macromodel.hpp"
#include "core/timing_windows.hpp"

namespace sna::core {

struct AlignmentOptions {
    double window = 0.8e-9;   ///< search window around the initial times, s
    int coarsePoints = 7;     ///< grid points per variable per round
    int rounds = 3;           ///< shrink-and-refine rounds

    /// Timing-window constraints (FRAME-style temporal correlation), all in
    /// absolute simulation time. When `aggressorWindows` is non-empty it
    /// must hold one window per spec aggressor: the allowed interval of
    /// that aggressor's OUTPUT transition (already intersected with the
    /// victim's sensitivity interval by the caller). The search maps it to
    /// input switch times through the aggressor's characterized delay and
    /// slew; an empty window — or one whose feasible input interval is
    /// empty — excludes the aggressor: it is held quiet (switch time +inf,
    /// reported as such in aggressorSwitchTimes) and its search axis is
    /// skipped. The unbounded defaults reproduce the unconstrained search.
    std::vector<TimingWindow> aggressorWindows;

    /// Allowed occupancy window of the injected victim-input glitch (its
    /// triangle spans [glitchTime, glitchTime + glitchWidth]). Callers must
    /// drop the glitch candidate entirely instead of passing a window with
    /// no feasible onset.
    TimingWindow glitchWindow;
};

struct AlignmentResult {
    /// Worst-case input switch times; +inf marks a window-excluded
    /// aggressor that was held quiet.
    std::vector<double> aggressorSwitchTimes;
    double glitchTime = 0.0;
    NoiseResult worst;
    int evaluations = 0;
};

/// Coordinate-descent worst-|peak| search starting from peak-aligned
/// initial times. All probed times are clamped to [0, 0.8 tstop] (and to
/// the feasible window intervals when given): a candidate before t = 0
/// would truncate the stimulus and score a misleading objective. The
/// spec's own alignment is always evaluated and wins ties, so the search
/// never returns worse than the caller's fixed alignment.
AlignmentResult findWorstAlignment(const ClusterMacromodel& model,
                                   const AlignmentOptions& opt = {});

/// The search's starting point: every contributor's estimated peak lands
/// at one common instant, 0.35 tstop (far enough from t = 0 for settling).
/// Injected noise peaks roughly when an aggressor ramp ends; the
/// propagated glitch peaks about half a width after its onset.
struct InitialTimes {
    std::vector<double> agg;  ///< per spec aggressor, input switch time
    double glitch = 0.0;      ///< victim-input glitch onset
};
InitialTimes peakAlignedInit(const ClusterMacromodel& model);

}  // namespace sna::core
