// Incremental design re-analysis: the ECO-loop fast path.
//
// Production noise signoff is thousands of near-identical runs against a
// mostly-unchanged design: a buffer is resized, one net is re-routed and
// re-extracted, and everything else is exactly the run before. A full
// analyzeDesign re-solves all N nets anyway. This module adds the delta
// path: the caller describes what changed (DesignDelta), the engine marks
// the affected cone on the retained level graph — the changed nets and
// instances themselves, the coupling neighbors that see them as aggressors
// or share re-extracted parasitics, and everything downstream of any
// re-solved net (its surviving glitch and propagated window may move) —
// patches the retained DesignIndex in place, re-runs the task-graph
// scheduler restricted to the dirty task ids, and splices the retained
// NetNoiseReports for every clean net.
//
// Contract: analyzeDesignIncremental returns reports bit-identical to a
// cold analyzeDesign over the same (mutated) design at any thread count.
// Whenever the snapshot cannot guarantee that — no prior run, different
// Design object, changed analysis options, or a connectivity change — it
// falls back to a full run (and captures a fresh snapshot), never to a
// wrong answer.
#pragma once

#include <cstddef>
#include <memory>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "core/design_index.hpp"
#include "core/propagate.hpp"
#include "core/sna.hpp"
#include "core/timing_windows.hpp"

namespace sna::core {

/// What an ECO changed since the snapshot's run. Names the engine does not
/// recognize mark nothing dirty; with DesignNoiseOptions::lint enabled they
/// are reported as SNA-L501/L502 (errors) before the run — in strict mode a
/// typo'd delta throws instead of silently splicing stale results.
struct DesignDelta {
    /// SPEF net sections whose parasitics were re-extracted (the SpefFile
    /// passed to analyzeDesignIncremental carries the new values). Also
    /// list here the nets of any removed instance.
    std::vector<std::string> nets;
    /// Instances whose cell binding changed in place (Design::replaceCell).
    /// Every net on the instance's pins is re-solved.
    std::vector<std::string> instances;
    /// Set when the netlist structure changed — instances added or removed,
    /// pins moved between nets. Forces a full index rebuild and re-run
    /// (still capturing a fresh snapshot for the next iteration).
    bool connectivityChanged = false;
};

/// Retained state of one analyzeDesign run, the input and output of every
/// incremental iteration. Populate it by running analyzeDesign with
/// DesignNoiseOptions::snapshot pointing here; analyzeDesignIncremental
/// both consumes and refreshes it, so an ECO loop keeps passing the same
/// object. Owns the DesignIndex; the Design and SpefFile stay caller-owned
/// and must outlive the snapshot.
struct AnalysisSnapshot {
    bool valid = false;
    const Design* design = nullptr;  ///< identity check only, not owned
    std::size_t instanceCount = 0;
    /// Scalar analysis options of the captured run; an option change
    /// invalidates the splice (clean nets would carry stale verdicts).
    std::string fingerprint;
    std::unique_ptr<DesignIndex> index;
    std::unordered_map<std::string, NetNoiseReport> victimReports;
    std::unordered_map<std::string, NetNoiseReport> quietReports;
    std::unordered_map<std::string, SurvivingSet> surviving;
    std::unordered_map<std::string, TimingWindow> netWindows;
    /// Waiver-applied diagnostics of the captured run's lint pass; empty
    /// when DesignNoiseOptions::lint was off.
    std::vector<lint::Diagnostic> lint;
};

/// Observability counters for one incremental call.
struct IncrementalStats {
    std::size_t totalTasks = 0;  ///< graph nets (wavefront) or victims (flat)
    std::size_t dirtyTasks = 0;  ///< re-solved this call
    std::size_t seedNets = 0;    ///< delta nets/pins + window/coupling diffs
    std::size_t coupledNeighbors = 0;  ///< added around the seeds
    std::size_t reusedVictimReports = 0;
    std::size_t solvedVictimReports = 0;
    /// True when the call could not splice (invalid snapshot, option or
    /// connectivity change) and ran the full pipeline instead.
    bool indexRebuilt = false;
    util::SchedulerStats scheduler;  ///< the restricted (dirty-task) run
};

/// The dirty cone of `seeds` on the index: seeds, plus every coupling
/// neighbor of a seed (a changed net re-ranks and re-loads the clusters it
/// couples into; a changed driver cell changes its net's aggressor model),
/// plus — when `downstreamClosure` (propagated wavefront) — everything
/// reachable over the scheduled fanout edges (a re-solved net's surviving
/// glitch and window feed its fanout). Coupling dirtiness does NOT spread
/// transitively: a victim reads its aggressors' parasitics, drivers, and
/// windows, never their reports, so only value-changed seeds contaminate
/// their neighbors. Exposed for testing.
std::unordered_set<std::string> expandDirtyCone(
    const DesignIndex& index, const std::unordered_set<std::string>& seeds,
    bool downstreamClosure, std::size_t* coupledNeighbors = nullptr);

/// Re-analyze after `delta`, reusing everything `snapshot` retained: the
/// index is patched (parasitics re-read from `spef` for the changed
/// sections), timing windows are re-propagated and diffed, the dirty cone
/// is re-solved on the task-graph scheduler restricted to its task ids, and
/// every clean net's report is spliced from the snapshot. The snapshot is
/// refreshed in place for the next iteration. Reports are bit-identical to
/// a cold analyzeDesign over the same state at any thread count; when the
/// snapshot cannot be reused the call degrades to exactly that full run.
std::vector<NetNoiseReport> analyzeDesignIncremental(
    const Design& design, const parser::SpefFile& spef,
    const DesignDelta& delta, AnalysisSnapshot& snapshot,
    const DesignNoiseOptions& opt = {}, IncrementalStats* stats = nullptr);

/// Resilient variant of analyzeDesignIncremental: the dirty-cone run
/// inherits DesignNoiseOptions::{cancel, deadline, onNetFailure} and a
/// cancelled/timed-out run returns the partial AnalysisOutcome instead of
/// throwing. Because the retained index is patched in place before the
/// solve, an incomplete or faulted run invalidates the snapshot
/// (`snapshot.valid == false`) — the next iteration falls back to a full
/// run rather than splicing reports that no longer match the index.
AnalysisOutcome analyzeDesignIncrementalOutcome(
    const Design& design, const parser::SpefFile& spef,
    const DesignDelta& delta, AnalysisSnapshot& snapshot,
    const DesignNoiseOptions& opt = {}, IncrementalStats* stats = nullptr);

}  // namespace sna::core
