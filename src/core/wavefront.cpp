#include "core/wavefront.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/cancel.hpp"
#include "util/error.hpp"
#include "util/fault_injection.hpp"

namespace sna::core {

namespace {

/// Records one cluster run's output glitch in the net's surviving front.
void recordRun(SurvivingSet* out, const ClusterReport& run) {
    if (out == nullptr) return;
    SurvivingGlitch sg;
    sg.height = std::abs(run.worst.metrics.peak);
    sg.width = run.worst.metrics.width;
    mergeSurviving(*out, sg);
}

/// Worst-of-both-holding-levels cluster run for one victim net, with an
/// optional propagated glitch injected at the driver input. Both levels'
/// output glitches join `outSurviving` — the non-governing level can leave
/// the wider (incomparable) glitch on the net.
///
/// `aggWindows` / `glitchWindow`, when given, apply the timing-window
/// constraints: an aggressor with an empty window is held quiet (switch
/// time +inf — it still loads the victim but never switches), the
/// alignment search only probes inside the feasible intervals, and in
/// fixed-alignment mode (searchAlignment == false) the glitch onset is
/// clamped into its feasible interval.
ClusterReport runClusterBothLevels(
    const cell::CellLibrary& lib, const Instance& driver,
    const Instance& firstLoad,
    const std::vector<std::pair<std::string, std::string>>& rankedAggressors,
    const ic::RcNetwork& rc, double tstop, const ReportOptions& ropt,
    const IncomingGlitch* incoming, SurvivingSet* outSurviving,
    const std::vector<TimingWindow>* aggWindows = nullptr,
    const TimingWindow* glitchWindow = nullptr) {
    ClusterReport worst;
    bool first = true;
    for (const bool level : {false, true}) {
        ClusterSpec spec;
        spec.technology = &lib.technology();
        spec.customNet = &rc;
        spec.tstop = tstop;
        spec.victim.driverCell = driver.cellName;
        spec.victim.outputLevel = level;
        spec.victim.glitchInput =
            lib.cell(driver.cellName).inputNames().front();
        spec.victim.receiverCell = firstLoad.cellName;
        if (incoming != nullptr) {
            spec.victim.glitchInput = incoming->inputPin;
            spec.victim.glitchHeight = incoming->height;
            // Stored as 50% width; the triangle injection takes the base.
            spec.victim.glitchWidth = 2.0 * incoming->width;
            // A broad, near-DC glitch can outlast the simulation window:
            // the alignment search probes onsets up to 0.8 * tstop, so the
            // triangle only fits for any probe when tstop >= 5x its base.
            // Extend the window rather than clamp the glitch (clamping
            // would analyze a narrower, weaker glitch — optimistic).
            spec.tstop = std::max(spec.tstop, 6.0 * spec.victim.glitchWidth);
        }
        for (const auto& [drvCell, agg] : rankedAggressors) {
            AggressorSpec as;
            as.driverCell = drvCell;
            // The damaging direction: aggressors switch away from the
            // victim's held level.
            as.outputRising = !level;
            spec.aggressors.push_back(as);
        }
        const ReportOptions* use = &ropt;
        ReportOptions constrained;
        if (aggWindows != nullptr || glitchWindow != nullptr) {
            constrained = ropt;
            if (aggWindows != nullptr) {
                constrained.alignment.aggressorWindows = *aggWindows;
                for (std::size_t a = 0; a < spec.aggressors.size(); ++a) {
                    if ((*aggWindows)[a].empty()) {
                        spec.aggressors[a].switchTime =
                            std::numeric_limits<double>::infinity();
                    }
                }
            }
            if (incoming != nullptr && glitchWindow != nullptr) {
                constrained.alignment.glitchWindow = *glitchWindow;
                if (glitchWindow->bounded()) {
                    const double lo = std::max(
                        0.0,
                        glitchWindow->earliest - spec.victim.glitchWidth);
                    const double hi = std::min(0.8 * spec.tstop,
                                               glitchWindow->latest);
                    if (lo <= hi) {
                        spec.victim.glitchTime = std::min(
                            std::max(spec.victim.glitchTime, lo), hi);
                    }
                }
            }
            use = &constrained;
        }
        auto cluster = analyzeCluster(spec, *use);
        recordRun(outSurviving, cluster);
        if (first || cluster.margin < worst.margin) {
            worst = std::move(cluster);
        }
        first = false;
    }
    return worst;
}

/// The report a net gets when its solve never produced one: enough to keep
/// the report list shape (one entry per victim, SPEF order) while making
/// the missing numbers impossible to mistake for a verdict.
NetNoiseReport failureStub(const std::string& net,
                           NetNoiseReport::Status status,
                           const char* what = nullptr) {
    NetNoiseReport r;
    r.net = net;
    r.status = status;
    if (what != nullptr) r.error = what;
    return r;
}

/// Sorts `v` and drops duplicates.
std::vector<std::string> sortedUnique(std::vector<std::string> v) {
    std::sort(v.begin(), v.end());
    v.erase(std::unique(v.begin(), v.end()), v.end());
    return v;
}

/// One victim cluster solve on the run's parasitics, cache and options.
NetNoiseReport solveVictim(
    const Wavefront& wf, const VictimWork& w,
    const std::vector<IncomingGlitch>& incoming, SurvivingSet* outSurviving,
    const std::vector<TimingWindow>* aggWindows = nullptr,
    const std::vector<TimingWindow>* incomingWindows = nullptr) {
    std::vector<std::string> clusterNets{*w.net};
    for (const auto& [drvCell, agg] : w.ranked) {
        clusterNets.push_back(agg);
    }
    const ic::RcNetwork rc = ic::rcFromSpef(*wf.spef, clusterNets);
    NetNoiseReport r = analyzeVictim(
        *wf.lib, *w.net, *w.driver, *w.firstLoad, w.ranked, rc,
        wf.opt->tstop, wf.ropt, incoming, outSurviving, aggWindows,
        incomingWindows);
    r.otherDrivers = wf.index->extraDriversOf(*w.net);
    return r;
}

/// The upstream glitches arriving at task `id`'s driver. Surviving fronts
/// are visible over scheduled fanin edges only: a cycle-broken fanin sits
/// at the same or a later level, so it never contributes (and its slot may
/// be in the middle of being written by another task).
std::vector<IncomingGlitch> incomingAt(const Wavefront& wf, int id) {
    const std::vector<int>& faninIds =
        wf.graph->faninIds[static_cast<std::size_t>(id)];
    return selectIncoming(
        *wf.index, wf.graph->nets[static_cast<std::size_t>(id)],
        [&](const std::string& from) -> const SurvivingSet* {
            const auto it = wf.graph->idOf.find(from);
            if (it == wf.graph->idOf.end() ||
                !std::binary_search(faninIds.begin(), faninIds.end(),
                                    it->second)) {
                return nullptr;
            }
            const SurvivingSet& s =
                wf.surviving[static_cast<std::size_t>(it->second)];
            return s.empty() ? nullptr : &s;
        });
}

/// What the timing windows allow at one net (windows mode only).
struct WindowScreen {
    TimingWindow sens;  ///< the net's own (sensitivity) window
    std::vector<char> dropped;  ///< per incoming: window-dropped
    std::vector<TimingWindow> incomingWindows;  ///< per incoming
    std::vector<TimingWindow> aggWindows;  ///< per ranked aggressor
    std::vector<std::string> excludedAggressors;
    /// False when every window involved is unbounded and nothing was
    /// dropped: the constrained run would equal the unconstrained one, so
    /// a single solve serves both margins.
    bool constraining = false;
};

WindowScreen screenWindows(const Wavefront& wf, const std::string& net,
                           int slot,
                           const std::vector<IncomingGlitch>& incoming) {
    const auto windowAt = [&](const std::string& n) {
        const auto it = wf.windows->find(n);
        return it != wf.windows->end() ? it->second
                                       : TimingWindow::unbounded();
    };
    WindowScreen ws;
    ws.sens = windowAt(net);
    for (const IncomingGlitch& in : incoming) {
        // The incoming glitch can only collide with this net where its
        // carrier's window overlaps the victim's sensitivity interval —
        // and, for victim clusters, only if that overlap leaves a feasible
        // onset inside the simulation horizon (mirrors
        // runClusterBothLevels).
        const TimingWindow ov = windowAt(in.fromNet).intersect(ws.sens);
        bool drop = ov.empty();
        if (!drop && slot >= 0 && ov.bounded()) {
            const double base = 2.0 * in.width;
            const double tstopRun = std::max(wf.opt->tstop, 6.0 * base);
            const double lo = std::max(0.0, ov.earliest - base);
            const double hi = std::min(0.8 * tstopRun, ov.latest);
            drop = lo > hi;
        }
        ws.dropped.push_back(drop ? 1 : 0);
        ws.incomingWindows.push_back(ov);
        if (drop || ov.bounded()) ws.constraining = true;
    }
    if (slot >= 0) {
        for (const auto& [drvCell, agg] :
             (*wf.work)[static_cast<std::size_t>(slot)].ranked) {
            const TimingWindow ov = windowAt(agg).intersect(ws.sens);
            ws.aggWindows.push_back(ov);
            if (ov.bounded() || ov.empty()) ws.constraining = true;
            if (ov.empty()) ws.excludedAggressors.push_back(agg);
        }
    }
    return ws;
}

/// Windows mode with at least one constraining window: the unconstrained
/// run first (the pessimistic verdict, reported for comparison), then the
/// window-constrained run that governs the verdict and feeds the surviving
/// front downstream.
NetNoiseReport solveWindowedVictim(const Wavefront& wf, const VictimWork& w,
                                   const std::vector<IncomingGlitch>& incoming,
                                   const WindowScreen& ws,
                                   SurvivingSet& produced) {
    NetNoiseReport unc = solveVictim(wf, w, incoming, nullptr);
    std::vector<IncomingGlitch> kept;
    std::vector<TimingWindow> keptWindows;
    std::vector<std::string> droppedFrom;
    for (std::size_t i = 0; i < incoming.size(); ++i) {
        if (ws.dropped[i] != 0) {
            droppedFrom.push_back(incoming[i].fromNet);
            continue;
        }
        kept.push_back(incoming[i]);
        keptWindows.push_back(ws.incomingWindows[i]);
    }
    NetNoiseReport win =
        solveVictim(wf, w, kept, &produced, &ws.aggWindows, &keptWindows);
    win.windows.constrained = true;
    win.windows.window = ws.sens;
    win.windows.unconstrainedMargin = unc.cluster.margin;
    win.windows.windowedMargin = win.cluster.margin;
    // Exclusions are recorded from two places: empty window overlaps
    // (decided by the screen), and aggressors the governing run's search
    // had to hold quiet because the overlap left no feasible INPUT switch
    // time once mapped through that run's delay/slew (+inf times).
    std::vector<std::string> excluded = ws.excludedAggressors;
    const auto& times = win.cluster.aggressorSwitchTimes;
    for (std::size_t a = 0; a < times.size() && a < w.ranked.size(); ++a) {
        if (std::isinf(times[a])) excluded.push_back(w.ranked[a].second);
    }
    win.windows.excludedAggressors = sortedUnique(std::move(excluded));
    win.windows.droppedIncoming = sortedUnique(std::move(droppedFrom));
    return win;
}

/// A victim net's task body: the plain solve, or — with windows — the
/// unconstrained/windowed pair. Every run's output (local and
/// per-candidate combined) joins `produced`: a non-governing candidate can
/// still leave the wider glitch.
NetNoiseReport solveVictimNet(const Wavefront& wf, int slot,
                              const std::vector<IncomingGlitch>& incoming,
                              const WindowScreen* ws, SurvivingSet& produced) {
    const VictimWork& w = (*wf.work)[static_cast<std::size_t>(slot)];
    if (ws == nullptr) return solveVictim(wf, w, incoming, &produced);
    if (ws->constraining) {
        return solveWindowedVictim(wf, w, incoming, *ws, produced);
    }
    // Every involved window is unbounded and nothing was dropped: the
    // constrained run would be the unconstrained run. Solve once, report
    // the margin as both.
    NetNoiseReport r = solveVictim(wf, w, incoming, &produced);
    r.windows.constrained = true;
    r.windows.window = ws->sens;
    r.windows.unconstrainedMargin = r.cluster.margin;
    r.windows.windowedMargin = r.cluster.margin;
    return r;
}

/// One candidate's transfer through a quiet net's driver.
struct Transfer {
    SurvivingGlitch sg;
    const IncomingGlitch* from = nullptr;
};

/// The worst (minimum) receiver-NRC margin over a transfer set, both
/// holding levels each, and the candidate that governs it.
struct Scan {
    ClusterReport cluster;
    const IncomingGlitch* governing = nullptr;
};

Scan nrcScan(const Wavefront& wf, const std::string& receiverCell,
             const std::vector<Transfer>& transfers) {
    Scan s;
    bool first = true;
    for (const Transfer& t : transfers) {
        for (const bool level : {false, true}) {
            ClusterSpec spec;
            spec.technology = &wf.lib->technology();
            spec.victim.receiverCell = receiverCell;
            spec.victim.outputLevel = level;
            wave::GlitchMetrics m;
            m.peak = t.sg.height;
            m.width = t.sg.width;
            const double limit = nrcLimitFor(spec, m, wf.cache, wf.ropt.nrc);
            const double margin = limit - t.sg.height;
            if (first || margin < s.cluster.margin) {
                s.cluster.worst.metrics = m;
                s.cluster.nrcLimit = limit;
                s.cluster.margin = margin;
                s.cluster.fails = t.sg.height >= limit;
                s.governing = t.from;
            }
            first = false;
        }
    }
    return s;
}

/// A quiet (non-victim) net's task body: carry every incoming candidate
/// through the driver's cached propagation table into `produced`, and —
/// when the net has a receiver — NRC-check what arrives there, so a
/// propagated-only failure on an uncoupled net is not silently missed.
std::optional<NetNoiseReport> solvePassThrough(
    const Wavefront& wf, const std::string& net,
    const std::vector<IncomingGlitch>& incoming, const WindowScreen* ws,
    SurvivingSet& produced) {
    const Instance* drv = wf.index->driverOf(net);
    // Pass-through items always have fanin edges, and fanin edges are only
    // built through a net's driver.
    SNA_REQUIRE(drv != nullptr, "pass-through net without a driver");
    // Every candidate's transfer survives unless dominated: incomparable
    // outputs stay side by side in the front. Window-dropped candidates
    // (their carrier's window misses this net's sensitivity interval)
    // neither survive nor reach the receiver; they are kept aside only for
    // the unconstrained comparison margin.
    std::vector<Transfer> transfers;
    std::vector<Transfer> allTransfers;  // windows mode only
    std::vector<std::string> droppedFrom;
    for (std::size_t i = 0; i < incoming.size(); ++i) {
        const IncomingGlitch& in = incoming[i];
        const bool drop = ws != nullptr && ws->dropped[i] != 0;
        // Every window-dropped candidate is recorded, whether or not its
        // transfer would have cleared the height filter — same accounting
        // as the victim branch.
        if (drop) droppedFrom.push_back(in.fromNet);
        Transfer t;
        t.sg = propagateThroughDriver(wf.lib->cell(drv->cellName),
                                      in.inputPin, in, wf.cache);
        t.from = &in;
        if (t.sg.height < wf.opt->propagateMinHeight || t.sg.width <= 0.0) {
            continue;
        }
        if (ws != nullptr) allTransfers.push_back(t);
        if (drop) continue;
        transfers.push_back(t);
        mergeSurviving(produced, t.sg);
    }
    const auto& loads = wf.index->loadsOf(net);
    if (loads.empty()) return std::nullopt;
    if (transfers.empty() && (ws == nullptr || allTransfers.empty())) {
        return std::nullopt;
    }
    const std::string& receiverCell = loads.front().first->cellName;
    NetNoiseReport pr;
    pr.net = net;
    if (!transfers.empty()) {
        Scan s = nrcScan(wf, receiverCell, transfers);
        pr.cluster = std::move(s.cluster);
        pr.propagated.present = true;
        pr.propagated.fromNet = s.governing->fromNet;
        pr.propagated.inputPin = s.governing->inputPin;
        pr.propagated.height = s.governing->height;
        pr.propagated.width = s.governing->width;
    }
    if (ws != nullptr) {
        // The unconstrained view over every transfer, dropped or not —
        // what the windows-less wavefront would have checked here. With
        // nothing dropped it is the scan already done.
        Scan unc;
        if (droppedFrom.empty()) {
            unc.cluster = pr.cluster;
        } else {
            unc = nrcScan(wf, receiverCell, allTransfers);
        }
        pr.windows.constrained = true;
        pr.windows.window = ws->sens;
        pr.windows.unconstrainedMargin = unc.cluster.margin;
        if (transfers.empty()) {
            // Every candidate was window-dropped: no noise reaches the
            // receiver in-window, so the governing margin is the full NRC
            // budget of the glitch the unconstrained view would have seen.
            pr.cluster.nrcLimit = unc.cluster.nrcLimit;
            pr.cluster.margin = unc.cluster.nrcLimit;
            pr.cluster.fails = false;
        }
        pr.windows.windowedMargin = pr.cluster.margin;
        pr.windows.droppedIncoming = sortedUnique(std::move(droppedFrom));
    }
    // No local (coupled) noise on a quiet net: the local-only margin is the
    // receiver's full NRC budget.
    pr.propagated.localPeak = 0.0;
    pr.propagated.localNrcLimit = pr.cluster.nrcLimit;
    pr.propagated.localMargin = pr.cluster.nrcLimit;
    pr.propagated.localFails = false;
    return pr;
}

/// Task `id`'s solve proper, without the failure policy.
void solveNet(Wavefront& wf, int id) {
    const std::size_t t = static_cast<std::size_t>(id);
    const int slot = wf.slotOf[t];
    if (!wf.propagating()) {
        // Flat sweep: an independent cluster solve, nothing propagates.
        wf.reports[static_cast<std::size_t>(slot)] = solveVictim(
            wf, (*wf.work)[static_cast<std::size_t>(slot)], {}, nullptr);
        return;
    }
    const std::string& net = wf.graph->nets[t];
    const std::vector<IncomingGlitch> incoming = incomingAt(wf, id);
    if (slot < 0 && (incoming.empty() || (wf.index->fanoutOf(net).empty() &&
                                          wf.index->loadsOf(net).empty()))) {
        // Quiet non-victim net, or a leaf with neither downstream nets nor
        // a receiver to check: nothing to do. (A loaded net with no fanout
        // still needs the NRC check.)
        return;
    }
    std::optional<WindowScreen> ws;
    if (wf.windows != nullptr) ws = screenWindows(wf, net, slot, incoming);
    const WindowScreen* screen = ws.has_value() ? &*ws : nullptr;

    SurvivingSet produced;
    if (slot >= 0) {
        wf.reports[static_cast<std::size_t>(slot)] =
            solveVictimNet(wf, slot, incoming, screen, produced);
    } else {
        wf.quietReports[t] =
            solvePassThrough(wf, net, incoming, screen, produced);
    }
    // Publish this net's surviving front into its slot. The height filter
    // runs here, so downstream tasks only ever see the final value once
    // their dependency count reaches zero.
    SurvivingSet kept;
    for (const SurvivingGlitch& sg : produced) {
        if (sg.height >= wf.opt->propagateMinHeight && sg.width > 0.0) {
            kept.push_back(sg);
        }
    }
    wf.surviving[t] = std::move(kept);
}

/// The conservative bridge across a failed stage: its incoming glitches
/// transfer downstream unattenuated.
SurvivingSet passThroughBridge(const Wavefront& wf, int id) {
    SurvivingSet pass;
    for (const IncomingGlitch& in : incomingAt(wf, id)) {
        SurvivingGlitch sg;
        sg.height = in.height;
        sg.width = in.width;
        if (sg.height >= wf.opt->propagateMinHeight && sg.width > 0.0) {
            mergeSurviving(pass, sg);
        }
    }
    return pass;
}

/// Records task `id`'s solve failure: a stub report, and — when
/// propagating — no quiet report and either an empty front (nothing leaves
/// a quarantined cone) or the pass-through bridge.
void recordFailure(Wavefront& wf, int id, const char* what) {
    const std::size_t t = static_cast<std::size_t>(id);
    const int slot = wf.slotOf[t];
    wf.taskState[t] = TaskState::failed;
    if (slot >= 0) {
        wf.reports[static_cast<std::size_t>(slot)] = failureStub(
            wf.graph->nets[t], NetNoiseReport::Status::failed, what);
    }
    if (!wf.propagating()) return;
    wf.quietReports[t].reset();
    wf.surviving[t] =
        wf.opt->onNetFailure == NetFailurePolicy::degradeToPassthrough
            ? passThroughBridge(wf, id)
            : SurvivingSet{};
}

}  // namespace

NetNoiseReport analyzeVictim(
    const cell::CellLibrary& lib, const std::string& netName,
    const Instance& driver, const Instance& firstLoad,
    const std::vector<std::pair<std::string, std::string>>& rankedAggressors,
    const ic::RcNetwork& rc, double tstop, const ReportOptions& ropt,
    const std::vector<IncomingGlitch>& incoming, SurvivingSet* outSurviving,
    const std::vector<TimingWindow>* aggWindows,
    const std::vector<TimingWindow>* incomingWindows) {
    NetNoiseReport report;
    report.net = netName;
    for (const auto& [drvCell, agg] : rankedAggressors) {
        report.aggressorNets.push_back(agg);
    }

    report.cluster = runClusterBothLevels(lib, driver, firstLoad,
                                          rankedAggressors, rc, tstop, ropt,
                                          nullptr, outSurviving, aggWindows);
    report.propagated.localPeak = std::abs(report.cluster.worst.metrics.peak);
    report.propagated.localNrcLimit = report.cluster.nrcLimit;
    report.propagated.localMargin = report.cluster.margin;
    report.propagated.localFails = report.cluster.fails;

    for (std::size_t i = 0; i < incoming.size(); ++i) {
        const IncomingGlitch& in = incoming[i];
        if (!report.propagated.present) {
            // Record the primary (tallest) injected candidate even when the
            // local-only run ends up governing: `present` reports that an
            // upstream glitch reached this driver, not which run won.
            report.propagated.present = true;
            report.propagated.fromNet = in.fromNet;
            report.propagated.inputPin = in.inputPin;
            report.propagated.height = in.height;
            report.propagated.width = in.width;
        }
        auto combined = runClusterBothLevels(
            lib, driver, firstLoad, rankedAggressors, rc, tstop, ropt, &in,
            outSurviving, aggWindows,
            incomingWindows != nullptr ? &(*incomingWindows)[i] : nullptr);
        // The worst margin over {local, each combined candidate} governs: a
        // destructively-aligned injection must not mask a local failure.
        if (combined.margin < report.cluster.margin) {
            report.cluster = std::move(combined);
            report.propagated.fromNet = in.fromNet;
            report.propagated.inputPin = in.inputPin;
            report.propagated.height = in.height;
            report.propagated.width = in.width;
        }
    }
    return report;
}

void runWavefrontTask(Wavefront& wf, int id) {
    const std::size_t t = static_cast<std::size_t>(id);
    const std::string& net = wf.graph->nets[t];
    const int slot = wf.slotOf[t];
    const NetFailurePolicy policy = wf.opt->onNetFailure;
    const auto markDone = [&] {
        if (slot >= 0) wf.victimDone[static_cast<std::size_t>(slot)] = 1;
        wf.taskDone[t] = 1;
    };
    if (policy == NetFailurePolicy::failFast) {
        SNA_FAULT_POINT("core.solve_net", net);
        solveNet(wf, id);
        markDone();
        return;
    }
    // Cone state over the scheduled fanin edges (none in the flat sweep).
    // Each fanin's state was committed before this task's dependency count
    // reached zero.
    bool upstreamFault = false;
    bool upstreamDegraded = false;
    for (const int f : wf.graph->faninIds[t]) {
        const TaskState s = wf.taskState[static_cast<std::size_t>(f)];
        if (s == TaskState::failed || s == TaskState::quarantined) {
            upstreamFault = true;
        } else if (s == TaskState::degraded) {
            upstreamDegraded = true;
        }
    }
    if (policy == NetFailurePolicy::quarantineCone && upstreamFault) {
        // Suppressed, not solved: empty surviving front (nothing
        // propagates out of the cone), stub report for victims.
        wf.taskState[t] = TaskState::quarantined;
        if (slot >= 0) {
            wf.reports[static_cast<std::size_t>(slot)] =
                failureStub(net, NetNoiseReport::Status::quarantined);
        }
        markDone();
        return;
    }
    try {
        SNA_FAULT_POINT("core.solve_net", net);
        solveNet(wf, id);
        if (upstreamFault || upstreamDegraded) {
            // degradeToPassthrough: solved across a bridged failure —
            // margins are real numbers but built on approximate inputs.
            wf.taskState[t] = TaskState::degraded;
            if (slot >= 0) {
                wf.reports[static_cast<std::size_t>(slot)].status =
                    NetNoiseReport::Status::degraded;
            }
            auto& quiet = wf.quietReports[t];
            if (quiet.has_value()) {
                quiet->status = NetNoiseReport::Status::degraded;
            }
        }
    } catch (const util::CancelledError&) {
        throw;  // cancellation is never a per-net failure
    } catch (const std::exception& e) {
        recordFailure(wf, id, e.what());
    }
    markDone();
}

}  // namespace sna::core
