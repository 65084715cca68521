#include "core/sna.hpp"

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <memory>
#include <sstream>
#include <unordered_map>
#include <unordered_set>

#include "core/design_index.hpp"
#include "core/incremental.hpp"
#include "core/propagate.hpp"
#include "core/wavefront.hpp"
#include "lint/lint.hpp"
#include "util/cancel.hpp"
#include "util/error.hpp"
#include "util/log.hpp"
#include "util/thread_pool.hpp"

namespace sna::core {

void Design::addInstance(Instance inst) {
    const cell::Cell& c = lib_->cell(inst.cellName);
    for (const auto& pin : c.pins()) {
        if (inst.pinToNet.find(pin.name) == inst.pinToNet.end()) {
            throw ModelError("instance '" + inst.name + "': pin '" +
                             pin.name + "' is not connected");
        }
    }
    instances_.push_back(std::move(inst));
}

void Design::replaceCell(const std::string& instName,
                         const std::string& cellName) {
    for (auto& inst : instances_) {
        if (inst.name != instName) continue;
        if (inst.cellName == cellName) return;
        const cell::Cell& oldCell = lib_->cell(inst.cellName);
        const cell::Cell& newCell = lib_->cell(cellName);
        // Same output pin and the same input pins in the same order: the
        // instance's pinToNet stays valid and so does every connectivity
        // edge a retained DesignIndex derived from the old binding.
        if (oldCell.outputName() != newCell.outputName() ||
            oldCell.inputNames() != newCell.inputNames()) {
            throw ModelError("replaceCell: '" + cellName +
                             "' is not pin-compatible with '" +
                             inst.cellName + "' on instance '" + instName +
                             "'");
        }
        inst.cellName = cellName;
        return;
    }
    throw ModelError("replaceCell: no instance named '" + instName + "'");
}

const Instance* Design::driverOf(const std::string& net) const {
    // Deterministic on multiply-driven nets: the lexicographically smallest
    // instance name wins, independent of insertion order (DesignIndex makes
    // the same choice, so the indexed and brute-force paths agree).
    const Instance* best = nullptr;
    for (const auto& inst : instances_) {
        const cell::Cell& c = lib_->cell(inst.cellName);
        const auto it = inst.pinToNet.find(c.outputName());
        if (it != inst.pinToNet.end() && it->second == net &&
            (best == nullptr || inst.name < best->name)) {
            best = &inst;
        }
    }
    return best;
}

std::vector<std::pair<const Instance*, std::string>> Design::loadsOf(
    const std::string& net) const {
    std::vector<std::pair<const Instance*, std::string>> out;
    for (const auto& inst : instances_) {
        const cell::Cell& c = lib_->cell(inst.cellName);
        for (const auto& in : c.inputNames()) {
            const auto it = inst.pinToNet.find(in);
            if (it != inst.pinToNet.end() && it->second == net) {
                out.push_back({&inst, in});
            }
        }
    }
    return out;
}

namespace {

/// Scalar analysis options that change per-net results, encoded bitwise. A
/// snapshot whose fingerprint differs cannot splice: a clean net's retained
/// report was computed under different knobs. Thread count and the lint
/// mode are deliberately absent — they never change a value. So are
/// cancel/deadline/onNetFailure: a snapshot is only ever captured from a
/// complete, fault-free run, and such runs are bit-identical across all
/// failure policies.
std::string fingerprintOf(const DesignNoiseOptions& opt) {
    std::ostringstream os;
    const auto put = [&os](double v) {
        std::uint64_t bits = 0;
        std::memcpy(&bits, &v, sizeof(bits));
        os << std::hex << bits << std::dec << '/';
    };
    put(opt.tstop);
    os << opt.maxAggressors << '/' << opt.propagate << '/';
    put(opt.propagateMinHeight);
    os << (opt.windows != nullptr) << '/' << opt.report.searchAlignment
       << '/' << opt.report.macromodel.usePrima << '/'
       << opt.report.macromodel.primaBlocks << '/'
       << opt.report.macromodel.loadCurveGrid << '/';
    put(opt.report.alignment.window);
    os << opt.report.alignment.coarsePoints << '/'
       << opt.report.alignment.rounds << '/';
    put(opt.report.nrc.widthMin);
    put(opt.report.nrc.widthLimit);
    put(opt.report.nrc.growth);
    os << static_cast<int>(opt.report.nrc.interp);
    return os.str();
}

/// What one analyzeWithIndex run observed about its own completion, for
/// the outcome-returning entry points. Always instantiated internally;
/// `clean()` additionally gates snapshot capture (a partial or faulted run
/// must never become splice input for a later incremental run).
struct RunOutcome {
    bool cancelled = false;
    util::CancelToken::Reason reason = util::CancelToken::Reason::none;
    std::vector<std::string> unsolved;
    std::vector<std::string> failed;
    std::vector<std::string> quarantined;
    std::vector<std::string> degraded;

    bool clean() const {
        return !cancelled && failed.empty() && quarantined.empty() &&
               degraded.empty();
    }
};

/// Splice inputs for one incremental run (analyzeWithIndex `inc` param):
/// the prior snapshot to retain clean results from, the dirty net set to
/// re-solve, and the counters to fill. All borrowed, never null.
struct IncrementalContext {
    const AnalysisSnapshot* prior = nullptr;
    const std::unordered_set<std::string>* dirty = nullptr;
    IncrementalStats* stats = nullptr;
};

/// Victim selection (serial, index lookups only): every SPEF net with
/// coupling, a driver and a load, its aggressors ranked by summed coupling
/// cap. SPEF order.
std::vector<VictimWork> selectVictims(const parser::SpefFile& spef,
                                      const DesignIndex& index,
                                      std::size_t maxAggressors) {
    std::vector<VictimWork> work;
    for (const auto& [netName, spefNet] : spef.nets()) {
        const auto& coupling = index.couplingOf(netName);
        if (coupling.empty()) continue;
        const Instance* driver = index.driverOf(netName);
        if (driver == nullptr) {
            log::warn() << "SPEF net '" << netName
                        << "' has coupling but no driver in the design";
            continue;
        }
        const auto& loads = index.loadsOf(netName);
        if (loads.empty()) continue;

        // Keep the strongest-coupled aggressors that are SPEF nets with
        // drivers; ties break on the net name for determinism.
        std::vector<std::pair<double, std::string>> ranked;
        for (const auto& [agg, cc] : coupling) {
            if (spef.nets().find(agg) == spef.nets().end()) continue;
            if (index.driverOf(agg) == nullptr) continue;
            ranked.push_back({cc, agg});
        }
        std::sort(ranked.begin(), ranked.end(), [](const auto& a,
                                                   const auto& b) {
            return a.first != b.first ? a.first > b.first
                                      : a.second < b.second;
        });
        if (ranked.size() > maxAggressors) ranked.resize(maxAggressors);
        if (ranked.empty()) continue;

        VictimWork w;
        w.net = &netName;
        w.driver = driver;
        w.firstLoad = loads.front().first;
        for (const auto& [cc, agg] : ranked) {
            w.ranked.push_back({index.driverOf(agg)->cellName, agg});
        }
        work.push_back(std::move(w));
    }
    return work;
}

/// The flat sweep's task graph: one task per victim, in SPEF order, and no
/// edges. Every victim is a root, so the serial FIFO-Kahn path solves them
/// in SPEF order — and building it never levelizes the design.
NetTaskGraph edgelessGraph(const std::vector<VictimWork>& work) {
    NetTaskGraph g;
    const std::size_t n = work.size();
    g.nets.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
        g.nets.push_back(*work[i].net);
        g.idOf.emplace(*work[i].net, static_cast<int>(i));
    }
    g.faninIds.resize(n);
    g.graph.fanout.resize(n);
    g.graph.faninCount.assign(n, 0);
    return g;
}

/// Incremental splice: every clean net's slots — surviving front, quiet
/// report, victim report — are pre-filled from the snapshot before any
/// task runs, so a dirty task reads its clean fanins' slots exactly as a
/// full run would after solving them. Returns the dirty-task mask.
std::vector<char> spliceClean(Wavefront& wf, const IncrementalContext& inc) {
    const std::size_t numTasks = wf.graph->nets.size();
    std::vector<char> dirtyMask(numTasks, 1);
    for (std::size_t id = 0; id < numTasks; ++id) {
        const std::string& net = wf.graph->nets[id];
        const int slot = wf.slotOf[id];
        if (inc.dirty->count(net) == 0) {
            if (wf.propagating()) {
                if (const auto it = inc.prior->surviving.find(net);
                    it != inc.prior->surviving.end()) {
                    wf.surviving[id] = it->second;
                }
                if (const auto it = inc.prior->quietReports.find(net);
                    it != inc.prior->quietReports.end()) {
                    wf.quietReports[id] = it->second;
                }
            }
            const auto it = inc.prior->victimReports.find(net);
            if (slot < 0 || it != inc.prior->victimReports.end()) {
                dirtyMask[id] = 0;
                wf.taskDone[id] = 1;
                if (slot >= 0) {
                    wf.reports[static_cast<std::size_t>(slot)] = it->second;
                    wf.victimDone[static_cast<std::size_t>(slot)] = 1;
                    ++inc.stats->reusedVictimReports;
                }
                continue;
            }
            // The caller's cone marking re-solves any victim the snapshot
            // never recorded; this branch is unreachable, but a wrong mask
            // must degrade to extra work, never to an empty report slot.
        }
        if (slot >= 0) ++inc.stats->solvedVictimReports;
    }
    return dirtyMask;
}

/// Resilience accounting of a finished run: cancellation (any task left
/// undecided) and the per-policy failure marks, published through `out`.
/// Only victim nets are reported as unsolved: the invariant callers rely
/// on is reports + unsolvedNets == the victim set, and pass-through
/// propagation tasks never produce a report in the first place.
RunOutcome tallyRun(const Wavefront& wf, const util::CancelToken* cancel) {
    RunOutcome run;
    for (std::size_t id = 0; id < wf.taskDone.size(); ++id) {
        const std::string& net = wf.graph->nets[id];
        if (!wf.taskDone[id]) {
            run.cancelled = true;
            if (wf.slotOf[id] >= 0) run.unsolved.push_back(net);
            continue;
        }
        switch (wf.taskState[id]) {
            case TaskState::failed: run.failed.push_back(net); break;
            case TaskState::quarantined: run.quarantined.push_back(net); break;
            case TaskState::degraded: run.degraded.push_back(net); break;
            case TaskState::ok: break;
        }
    }
    if (run.cancelled && cancel != nullptr) run.reason = cancel->reason();
    return run;
}

/// Refresh the retained per-net maps from a clean run's slots (on an
/// incremental run the clean entries were pre-filled, so the rebuilt maps
/// are complete either way). A flat run holds only victim reports.
void captureSnapshot(const Wavefront& wf,
                     const std::unordered_map<std::string, TimingWindow>&
                         netWindows,
                     AnalysisSnapshot& capture) {
    capture.victimReports.clear();
    capture.quietReports.clear();
    capture.surviving.clear();
    for (std::size_t i = 0; i < wf.work->size(); ++i) {
        capture.victimReports.emplace(*(*wf.work)[i].net, wf.reports[i]);
    }
    for (std::size_t id = 0; id < wf.surviving.size(); ++id) {
        const std::string& net = wf.graph->nets[id];
        if (!wf.surviving[id].empty()) {
            capture.surviving.emplace(net, wf.surviving[id]);
        }
        if (wf.quietReports[id].has_value()) {
            capture.quietReports.emplace(net, *wf.quietReports[id]);
        }
    }
    capture.netWindows = netWindows;
}

/// The victim reports in SPEF order, followed by the propagated-only
/// entries for quiet nets in level-then-name (== task id) order. On a
/// cancelled run the unfinished victim slots are dropped first: every
/// report returned is complete and bitwise-identical to the same net's
/// report in an uncancelled run.
std::vector<NetNoiseReport> collectReports(Wavefront& wf, bool cancelled) {
    std::vector<NetNoiseReport> reports;
    if (cancelled) {
        for (std::size_t i = 0; i < wf.reports.size(); ++i) {
            if (wf.victimDone[i]) reports.push_back(std::move(wf.reports[i]));
        }
    } else {
        reports = std::move(wf.reports);
    }
    for (auto& pr : wf.quietReports) {
        if (pr.has_value()) reports.push_back(std::move(*pr));
    }
    return reports;
}

/// The engine shared by analyzeDesign (inc == nullptr: every net solves)
/// and analyzeDesignIncremental (inc != nullptr: clean nets splice their
/// retained slot values and only the dirty tasks are scheduled). Every
/// per-net solve runs as a runTaskGraph task (core/wavefront.hpp). When
/// `capture` is non-null the per-net result maps are (re)filled from a
/// clean run's slots; the caller owns the snapshot's identity fields and
/// index. `windowsPre`, when given, is the already-propagated window map
/// (the incremental caller computes it early to diff against the
/// snapshot).
std::vector<NetNoiseReport> analyzeWithIndex(
    const Design& design, const parser::SpefFile& spef,
    const DesignNoiseOptions& opt, const DesignIndex& index,
    const std::unordered_map<std::string, TimingWindow>* windowsPre,
    const IncrementalContext* inc, AnalysisSnapshot* capture,
    RunOutcome* out) {
    const std::vector<VictimWork> work =
        selectVictims(spef, index, opt.maxAggressors);

    // Run-local cancellation: the caller's token (if any) chains under a
    // token that also carries the run's deadline, so both compose. With
    // neither set `cancel` stays null and every solve path is exactly the
    // historical zero-overhead one.
    util::CancelToken runToken(opt.cancel);
    const util::CancelToken* cancel = nullptr;
    if (opt.cancel != nullptr || opt.deadline > 0.0) {
        runToken.setDeadlineAfter(opt.deadline);
        cancel = &runToken;
    }

    charlib::CharCache runCache;
    Wavefront wf;
    wf.lib = &design.library();
    wf.spef = &spef;
    wf.index = &index;
    wf.opt = &opt;
    wf.cache = opt.cache ? opt.cache : &runCache;
    wf.ropt = opt.report;
    if (wf.ropt.macromodel.cache == nullptr) {
        wf.ropt.macromodel.cache = wf.cache;
    }
    wf.work = &work;

    // The flat sweep schedules an edgeless graph and never levelizes; it
    // ignores timing windows. A propagated run schedules the level graph,
    // with the windows propagated once over all of it before any cluster
    // solves: a victim's aggressors can live on ANY level, so their
    // windows must be known up front, not wavefront-ordered.
    NetTaskGraph flatGraph;
    std::unordered_map<std::string, TimingWindow> netWindows;
    if (opt.propagate) {
        if (opt.windows != nullptr) {
            netWindows = windowsPre != nullptr
                             ? *windowsPre
                             : propagateWindows(index, wf.cache);
            wf.windows = &netWindows;
        }
        wf.graph = &index.taskGraph();
    } else {
        flatGraph = edgelessGraph(work);
        wf.graph = &flatGraph;
    }

    // Slots: victim reports by SPEF position, everything else by task id.
    const std::size_t numTasks = wf.graph->nets.size();
    wf.slotOf.assign(numTasks, -1);
    for (std::size_t i = 0; i < work.size(); ++i) {
        const auto it = wf.graph->idOf.find(*work[i].net);
        SNA_REQUIRE(it != wf.graph->idOf.end(),
                    "victim net missing from the task graph");
        wf.slotOf[static_cast<std::size_t>(it->second)] = static_cast<int>(i);
    }
    wf.reports.resize(work.size());
    wf.victimDone.assign(work.size(), 0);
    wf.taskState.assign(numTasks, TaskState::ok);
    wf.taskDone.assign(numTasks, 0);
    if (opt.propagate) {
        wf.surviving.resize(numTasks);
        wf.quietReports.resize(numTasks);
    }

    // One pool per call; threads == 0 means "use the machine".
    const int threads = util::resolveThreadCount(opt.threads);
    std::unique_ptr<util::ThreadPool> pool;
    if (threads > 1) pool = std::make_unique<util::ThreadPool>(threads);

    // Incremental runs schedule only the dirty tasks. Edges from a clean
    // fanin vanish (its slot is already filled); edges among dirty tasks
    // keep their dependency order.
    util::RestrictedTaskGraph dirty;
    if (inc != nullptr) {
        dirty = util::restrictTaskGraph(wf.graph->graph, spliceClean(wf, *inc));
    }
    util::SchedulerStats stats = util::runTaskGraph(
        inc != nullptr ? dirty.graph : wf.graph->graph,
        [&](int s) {
            runWavefrontTask(
                wf, inc != nullptr ? dirty.fullId[static_cast<std::size_t>(s)]
                                   : s);
        },
        pool.get(), cancel);

    RunOutcome run = tallyRun(wf, cancel);
    stats.failedTasks = run.failed.size();
    stats.quarantinedTasks = run.quarantined.size();
    stats.degradedTasks = run.degraded.size();
    if (inc != nullptr) {
        inc->stats->totalTasks = numTasks;
        inc->stats->dirtyTasks = dirty.fullId.size();
        inc->stats->scheduler = stats;
    }
    if (opt.schedulerStats != nullptr) *opt.schedulerStats = std::move(stats);
    // A cancelled run has unfilled slots and a faulted run has stub
    // reports — neither may become splice input for a later incremental
    // iteration.
    if (capture != nullptr && run.clean()) {
        captureSnapshot(wf, netWindows, *capture);
    }
    std::vector<NetNoiseReport> reports = collectReports(wf, run.cancelled);
    if (out != nullptr) *out = std::move(run);
    return reports;
}


/// The shared lint gate: run the checker, apply waivers, publish the report
/// through `opt.lintOut` (and `snapshotLint` when given), and throw
/// lint::LintError in strict mode on surviving errors. The checker only
/// reads the index (and characterizes window-hull Thevenins through the
/// shared cache — values the analysis would compute identically anyway), so
/// warn mode cannot perturb a single analysis bit.
void runLintGate(lint::LintReport& report, const DesignNoiseOptions& opt,
                 std::vector<lint::Diagnostic>* snapshotLint) {
    if (opt.lintWaivers != nullptr) {
        lint::applyWaivers(report, *opt.lintWaivers);
    }
    if (snapshotLint != nullptr) *snapshotLint = report.diagnostics;
    if (opt.lintOut != nullptr) *opt.lintOut = report;
    if (opt.lint == lint::Mode::strict && report.hasErrors()) {
        throw lint::LintError(report);
    }
}

/// Translate a run's observed completion into the public outcome type.
void fillOutcome(AnalysisOutcome& outcome, RunOutcome& run) {
    if (run.cancelled) {
        outcome.reason =
            run.reason == util::CancelToken::Reason::deadline
                ? TerminationReason::deadlineExpired
                : TerminationReason::cancelled;
    }
    outcome.unsolvedNets = std::move(run.unsolved);
    const auto sorted = [](std::vector<std::string>& v) {
        std::sort(v.begin(), v.end());
        v.erase(std::unique(v.begin(), v.end()), v.end());
        return std::move(v);
    };
    outcome.failedNets = sorted(run.failed);
    outcome.quarantinedNets = sorted(run.quarantined);
    outcome.degradedNets = sorted(run.degraded);
}

/// Post-run lint findings for the report gate (SNA-L7xx, resilience):
/// emitted after the solve, so they can never gate a strict run — they
/// exist to make a partial signoff impossible to mistake for a clean one
/// in lint-consuming tooling.
void appendResilienceLint(lint::LintReport& lr,
                          const AnalysisOutcome& outcome) {
    const auto add = [&lr](const char* rule, lint::Severity sev,
                           const std::string& net, const char* message) {
        lint::Diagnostic d;
        d.rule = rule;
        d.severity = sev;
        d.object = net;
        d.message = message;
        lr.diagnostics.push_back(std::move(d));
    };
    for (const std::string& net : outcome.failedNets) {
        add("SNA-L701", lint::Severity::warning, net,
            "net solve failed; margins unavailable (see the report's "
            "captured error)");
    }
    for (const std::string& net : outcome.quarantinedNets) {
        add("SNA-L702", lint::Severity::warning, net,
            "net quarantined downstream of a failed solve; never analyzed");
    }
    for (const std::string& net : outcome.degradedNets) {
        add("SNA-L703", lint::Severity::info, net,
            "net solved across a pass-through bridge; margins approximate");
    }
}

}  // namespace

AnalysisOutcome analyzeDesignOutcome(const Design& design,
                                     const parser::SpefFile& spef,
                                     const DesignNoiseOptions& opt) {
    auto index = std::make_unique<DesignIndex>(
        design, spef, opt.propagate ? opt.windows : nullptr);
    if (opt.lint != lint::Mode::off) {
        lint::LintOptions lo;
        lo.nrc = opt.report.nrc;
        lo.cache = opt.cache;
        lo.loadCurveGrid = opt.report.macromodel.loadCurveGrid;
        lint::LintReport lr = lint::lintDesign(*index, spef, lo);
        runLintGate(lr, opt,
                    opt.snapshot != nullptr ? &opt.snapshot->lint : nullptr);
    }
    RunOutcome run;
    AnalysisOutcome outcome;
    outcome.reports = analyzeWithIndex(design, spef, opt, *index, nullptr,
                                       nullptr, opt.snapshot, &run);
    if (opt.snapshot != nullptr) {
        if (run.clean()) {
            opt.snapshot->design = &design;
            opt.snapshot->instanceCount = design.instances().size();
            opt.snapshot->fingerprint = fingerprintOf(opt);
            opt.snapshot->index = std::move(index);
            opt.snapshot->valid = true;
        } else {
            // Partial or faulted run: nothing was captured (the per-net
            // maps were left untouched) and the snapshot must not splice.
            opt.snapshot->valid = false;
        }
    }
    fillOutcome(outcome, run);
    if (opt.lint != lint::Mode::off && opt.lintOut != nullptr) {
        appendResilienceLint(*opt.lintOut, outcome);
    }
    return outcome;
}

std::vector<NetNoiseReport> analyzeDesign(const Design& design,
                                          const parser::SpefFile& spef,
                                          const DesignNoiseOptions& opt) {
    AnalysisOutcome outcome = analyzeDesignOutcome(design, spef, opt);
    if (!outcome.complete()) {
        throw util::CancelledError(
            outcome.reason == TerminationReason::deadlineExpired
                ? "analysis deadline expired"
                : "analysis cancelled");
    }
    return std::move(outcome.reports);
}

AnalysisOutcome analyzeDesignIncrementalOutcome(
    const Design& design, const parser::SpefFile& spef,
    const DesignDelta& delta, AnalysisSnapshot& snapshot,
    const DesignNoiseOptions& opt, IncrementalStats* statsOut) {
    IncrementalStats localStats;
    IncrementalStats& st = statsOut != nullptr ? *statsOut : localStats;
    st = IncrementalStats{};

    // Delta validity (SNA-L501/L502) gates the run before the snapshot is
    // touched: a typo'd delta marks nothing dirty and would otherwise
    // silently splice stale results for the net the user meant.
    lint::LintReport deltaReport;
    if (opt.lint != lint::Mode::off) {
        deltaReport = lint::lintDelta(design, spef, delta);
        runLintGate(deltaReport, opt, nullptr);
    }

    const std::string fp = fingerprintOf(opt);
    const bool reusable =
        snapshot.valid && snapshot.index != nullptr &&
        snapshot.design == &design && snapshot.fingerprint == fp &&
        snapshot.instanceCount == design.instances().size() &&
        !delta.connectivityChanged;
    if (!reusable) {
        // No splice possible — first run, different design/options, or a
        // connectivity change (which may have reallocated the instance
        // storage the retained index points into). Run the full pipeline
        // and capture a fresh snapshot so the NEXT iteration can go
        // incremental.
        st.indexRebuilt = true;
        DesignNoiseOptions full = opt;
        full.snapshot = &snapshot;
        AnalysisOutcome outcome = analyzeDesignOutcome(design, spef, full);
        if (opt.lint != lint::Mode::off && opt.lintOut != nullptr) {
            // The full re-lint overwrote lintOut; the delta findings (all
            // waived here, or strict would have thrown above) still belong
            // in front of it.
            opt.lintOut->diagnostics.insert(opt.lintOut->diagnostics.begin(),
                                            deltaReport.diagnostics.begin(),
                                            deltaReport.diagnostics.end());
        }
        // A partial or faulted full run captured no snapshot
        // (snapshot.index may even be null); the task counters then only
        // know what was actually produced.
        if (snapshot.valid && snapshot.index != nullptr) {
            st.totalTasks = opt.propagate
                                ? snapshot.index->taskGraph().nets.size()
                                : snapshot.victimReports.size();
            st.solvedVictimReports = snapshot.victimReports.size();
        } else {
            st.totalTasks = outcome.reports.size() + outcome.unsolvedNets.size();
            st.solvedVictimReports = outcome.reports.size();
        }
        st.dirtyTasks = st.totalTasks;
        return outcome;
    }

    DesignIndex& index = *snapshot.index;
    index.setTimingWindows(opt.propagate ? opt.windows : nullptr);

    DesignNoiseOptions run = opt;
    run.snapshot = nullptr;  // snapshot refresh is explicit below
    charlib::CharCache iterationCache;
    if (run.cache == nullptr) run.cache = &iterationCache;

    // ---- seeds: what the delta touched directly -------------------------
    std::unordered_set<std::string> seeds(delta.nets.begin(),
                                          delta.nets.end());
    for (const std::string& instName : delta.instances) {
        // A rebound instance changes its output net's driver model and its
        // input nets' receiver — every net on its pins re-solves.
        for (const Instance& inst : design.instances()) {
            if (inst.name != instName) continue;
            for (const auto& [pin, net] : inst.pinToNet) seeds.insert(net);
        }
    }
    // Re-read the changed SPEF sections in place; owners whose summed
    // coupling moved are value-changed seeds too (their victims re-rank).
    for (const std::string& net : index.patchParasitics(spef, delta.nets)) {
        seeds.insert(net);
    }
    // Windows: re-propagate over the patched design (cheap — every
    // characterization is a warm cache hit) and seed every net whose
    // window moved: its own sensitivity interval changed, and so did the
    // aggressor window its coupled victims see.
    std::unordered_map<std::string, TimingWindow> newWindows;
    const std::unordered_map<std::string, TimingWindow>* windowsPre =
        nullptr;
    if (run.propagate && run.windows != nullptr) {
        newWindows = propagateWindows(index, run.cache);
        for (const auto& [net, window] : newWindows) {
            const auto it = snapshot.netWindows.find(net);
            if (it == snapshot.netWindows.end() || it->second != window) {
                seeds.insert(net);
            }
        }
        for (const auto& [net, window] : snapshot.netWindows) {
            if (newWindows.find(net) == newWindows.end()) seeds.insert(net);
        }
        windowsPre = &newWindows;
    }

    std::unordered_set<std::string> dirty =
        expandDirtyCone(index, seeds, run.propagate, &st.coupledNeighbors);

    // Safety net: a victim candidate the snapshot never recorded must be
    // solved (with its cone), not spliced-as-absent. Unreachable without a
    // connectivity change, but a wrong dirty set must degrade to extra
    // work, never to a missing report.
    std::unordered_set<std::string> unrecorded;
    for (const auto& [netName, spefNet] : spef.nets()) {
        if (dirty.count(netName) != 0) continue;
        if (snapshot.victimReports.count(netName) != 0) continue;
        if (index.couplingOf(netName).empty()) continue;
        if (index.driverOf(netName) == nullptr) continue;
        if (index.loadsOf(netName).empty()) continue;
        unrecorded.insert(netName);
    }
    if (!unrecorded.empty()) {
        seeds.insert(unrecorded.begin(), unrecorded.end());
        dirty = expandDirtyCone(index, seeds, run.propagate,
                                &st.coupledNeighbors);
    }
    st.seedNets = seeds.size();

    IncrementalContext ctx;
    ctx.prior = &snapshot;
    ctx.dirty = &dirty;
    ctx.stats = &st;
    RunOutcome ro;
    AnalysisOutcome outcome;
    outcome.reports = analyzeWithIndex(design, spef, run, index, windowsPre,
                                       &ctx, &snapshot, &ro);
    // The index was patched in place above; an incomplete or faulted run
    // therefore poisons the snapshot — its retained reports no longer match
    // the index state, so the next iteration must fall back to a full run.
    snapshot.valid = ro.clean();
    fillOutcome(outcome, ro);
    if (opt.lint != lint::Mode::off && opt.lintOut != nullptr) {
        appendResilienceLint(*opt.lintOut, outcome);
    }
    return outcome;
}

std::vector<NetNoiseReport> analyzeDesignIncremental(
    const Design& design, const parser::SpefFile& spef,
    const DesignDelta& delta, AnalysisSnapshot& snapshot,
    const DesignNoiseOptions& opt, IncrementalStats* statsOut) {
    AnalysisOutcome outcome = analyzeDesignIncrementalOutcome(
        design, spef, delta, snapshot, opt, statsOut);
    if (!outcome.complete()) {
        throw util::CancelledError(
            outcome.reason == TerminationReason::deadlineExpired
                ? "analysis deadline expired"
                : "analysis cancelled");
    }
    return std::move(outcome.reports);
}

}  // namespace sna::core
