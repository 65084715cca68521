// The per-net engine behind analyzeDesign: one task per net, every task
// dispatched through util::runTaskGraph.
//
// A propagated run schedules the index's level graph; the flat sweep
// schedules an edgeless graph over the victims (every victim a root, SPEF
// order). Either way each per-net output is slot-addressed — victim reports
// by victim slot, surviving fronts and quiet reports by task id — and a task
// reads nothing but its scheduled fanins' slots, so completion order cannot
// change a single bit.
//
// Internal to core: sna.cpp drives it, and the test-support reference sweep
// reuses analyzeVictim. Not part of the public API.
#pragma once

#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/design_index.hpp"
#include "core/propagate.hpp"
#include "core/sna.hpp"

namespace sna::core {

/// One victim cluster selected for analysis.
struct VictimWork {
    const std::string* net = nullptr;
    const Instance* driver = nullptr;
    const Instance* firstLoad = nullptr;  ///< receiver the NRC check uses
    /// (driver cell, aggressor net), strongest-coupled first.
    std::vector<std::pair<std::string, std::string>> ranked;
};

/// Full per-net analysis: the local-only verdict (exactly what the flat
/// propagate=false sweep computes), plus — when upstream glitches reach the
/// driver — one combined run per incoming candidate (the Pareto front is
/// incomparable until solved); the worst margin governs the report.
/// `outSurviving`, when set, collects every run's output glitch: a
/// non-governing candidate can still leave the wider (or taller) glitch on
/// the net, and downstream stages must see it. `aggWindows` /
/// `incomingWindows`, when given, constrain the alignment search to the
/// timing-window overlaps (one entry per ranked aggressor / per incoming
/// candidate).
NetNoiseReport analyzeVictim(
    const cell::CellLibrary& lib, const std::string& netName,
    const Instance& driver, const Instance& firstLoad,
    const std::vector<std::pair<std::string, std::string>>& rankedAggressors,
    const ic::RcNetwork& rc, double tstop, const ReportOptions& ropt,
    const std::vector<IncomingGlitch>& incoming = {},
    SurvivingSet* outSurviving = nullptr,
    const std::vector<TimingWindow>* aggWindows = nullptr,
    const std::vector<TimingWindow>* incomingWindows = nullptr);

/// Per-task resilience state (DesignNoiseOptions::onNetFailure).
enum class TaskState : char { ok, failed, quarantined, degraded };

/// Everything one run's tasks read and write. The inputs are read-only
/// while tasks run. Each output slot is written only by its own task and
/// read only by tasks downstream of it over scheduled fanin edges, after
/// their dependency count reached zero — so no completion order can race.
struct Wavefront {
    // ---- inputs
    const cell::CellLibrary* lib = nullptr;
    const parser::SpefFile* spef = nullptr;
    const DesignIndex* index = nullptr;
    const DesignNoiseOptions* opt = nullptr;
    charlib::CharCache* cache = nullptr;
    ReportOptions ropt;  ///< opt->report with the run's cache filled in
    const std::vector<VictimWork>* work = nullptr;
    /// The scheduled graph: DesignIndex::taskGraph() when propagating, an
    /// edgeless graph over the victims otherwise.
    const NetTaskGraph* graph = nullptr;
    /// Task id -> victim slot in `work`, or -1 for a pass-through net.
    std::vector<int> slotOf;
    /// Propagated switching windows; null unless propagating with windows.
    const std::unordered_map<std::string, TimingWindow>* windows = nullptr;

    // ---- slot-addressed outputs
    std::vector<NetNoiseReport> reports;  ///< per victim slot
    /// Per victim slot: holds a final value (solved, stubbed, or spliced).
    std::vector<char> victimDone;
    /// Per task: the net's surviving front. Empty when flat.
    std::vector<SurvivingSet> surviving;
    /// Per task: the propagated-only report of a quiet net. Empty when flat.
    std::vector<std::optional<NetNoiseReport>> quietReports;
    std::vector<TaskState> taskState;  ///< per task
    /// Per task: ran to a decision (solved, stubbed, quarantined, or
    /// spliced). A zero after the run means cancellation skipped it.
    std::vector<char> taskDone;

    bool propagating() const { return opt->propagate; }
};

/// Runs task `id` under the run's failure policy. failFast adds nothing but
/// the `core.solve_net@<net>` injection site: exceptions reach the
/// scheduler unchanged. quarantineCone stubs the failing net and suppresses
/// its scheduled fanout cone; degradeToPassthrough bridges the failing net
/// with its unattenuated incoming glitches and marks the cone `degraded`.
/// In the flat sweep there is no cone: both reduce to "stub and go on".
void runWavefrontTask(Wavefront& wf, int id);

}  // namespace sna::core
