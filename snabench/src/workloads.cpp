#include "workloads.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <memory>
#include <stdexcept>
#include <sys/resource.h>

#include "celllib/library.hpp"
#include "charlib/char_cache.hpp"
#include "core/alignment.hpp"
#include "core/baselines.hpp"
#include "core/design_index.hpp"
#include "core/frontend.hpp"
#include "core/incremental.hpp"
#include "generator.hpp"
#include "lint/lint.hpp"
#include "parser/sdc_parser.hpp"
#include "parser/spef_parser.hpp"
#include "parser/verilog_parser.hpp"
#include "tech/tech.hpp"

namespace snabench {

using namespace sna;

void Outcome::fail(const std::string& what) {
    correct = false;
    notes.push_back("CHECK FAILED: " + what);
}

namespace {

// ---- sizing ---------------------------------------------------------------
// A cold sign-off of the block takes a few seconds at the default options,
// so a run holds several. The ECO block is larger but analyzed without the
// alignment search. sweep_scale's design is large enough that parsing,
// indexing and lint are real work, and small enough that every Thevenin
// model fits the cache: near the table bound, overflow misses would swing
// the sweep time with small changes of the netlist.
const DesignShape kBlockShape{2, 8};
const DesignShape kEcoShape{6, 16};
const DesignShape kSweepShape{20, 85};
// The small blocks keep one netlist and take their parasitics, windows and
// ECO values from --seed: between netlists this small, the cost of a cold
// sign-off varied by 30%, between extractions of one netlist by 6%. The
// ECO targets stay with the netlist too: a turnaround is proportional to
// the cone it re-solves, and the median turnaround moved 30% between the
// target draws of two seeds.
// sweep_scale draws its netlist from --seed too; its ~1700 victims average
// the differences out.
constexpr std::uint64_t kBlockNetlist = 7;
constexpr std::uint64_t kEcoNetlist = 11;
constexpr int kWorkers = 2;
// Set-up repeats per run, spread through the timed window; setup_s is
// their median. The counts keep each workload's set-ups between 0.1 s and
// 3 s of the window.
constexpr int kSetupRepsBlock = 15;
constexpr int kSetupRepsCluster = 201;
// cluster_golden times every cluster in at least this many whole passes and
// takes its fastest. On a shared 4-vCPU VM host speed swung by +-30% over
// seconds to tens of seconds; in the same runs of nine seeds, the fastest of
// three passes more than halved the quartile spread of the median and tail
// cluster times against every time of two passes.
constexpr int kClusterPasses = 3;
constexpr int kSetupRepsSweep = 9;
constexpr int kSetupRepsEco = 5;

// ---- helpers --------------------------------------------------------------

double median(std::vector<double> v) {
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double mean(const std::vector<double>& v) {
    double s = 0.0;
    for (const double x : v) s += x;
    return v.empty() ? 0.0 : s / static_cast<double>(v.size());
}

/// The highest percentile with at least ten samples beyond it, with the
/// percentile it stands for.
std::pair<double, double> tail(std::vector<double> v) {
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    if (n <= 10) return {v.back(), 100.0};
    return {v[n - 11], 100.0 * static_cast<double>(n - 10) /
                           static_cast<double>(n)};
}

double peakRssMb() {
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

/// Fill the end-to-end metrics shared by every workload from the timed
/// operations and the victim reports each solved. Rates and latencies
/// are medians over the operations, so a burst of host load that slows a
/// few of them does not move the figure.
void reportOps(Outcome& out, const std::string& opName,
               const std::vector<double>& setups,
               const std::vector<double>& ops,
               const std::vector<double>& reportsPerOp) {
    std::vector<double> rates;
    for (std::size_t i = 0; i < ops.size(); ++i) {
        rates.push_back(reportsPerOp[i] / ops[i]);
    }
    const auto [tailValue, pct] = tail(ops);
    out.endToEnd["setup_s"] = median(setups);
    out.endToEnd["peak_rss_mb"] = peakRssMb();
    out.endToEnd["victims_per_s"] = median(rates);
    out.endToEnd["op_p50_s"] = median(ops);
    out.endToEnd["op_tail_s"] = tailValue;
    out.opMeanSeconds = mean(ops);
    char buf[384];
    std::snprintf(buf, sizeof buf,
                  "op = %s; %zu ops in %.2f s; op_tail_s is p%.1f of %zu "
                  "samples; setup_s is the median of %zu set-ups",
                  opName.c_str(), ops.size(), out.opMeanSeconds * ops.size(),
                  pct, ops.size(), setups.size());
    out.notes.push_back(buf);
}

/// Reports of victims (nets with aggressors); with propagation on, quiet
/// nets also get a report carrying only their propagated noise.
double victimReports(const std::vector<core::NetNoiseReport>& reports) {
    double n = 0.0;
    for (const auto& r : reports) {
        if (!r.aggressorNets.empty()) n += 1.0;
    }
    return n;
}

bool sameBits(double a, double b) { return std::memcmp(&a, &b, sizeof a) == 0; }

bool sameBits(const std::vector<double>& a, const std::vector<double>& b) {
    if (a.size() != b.size()) return false;
    for (std::size_t i = 0; i < a.size(); ++i) {
        if (!sameBits(a[i], b[i])) return false;
    }
    return true;
}

bool sameBits(const wave::GlitchMetrics& a, const wave::GlitchMetrics& b) {
    return sameBits(a.peak, b.peak) && sameBits(a.peakTime, b.peakTime) &&
           sameBits(a.area, b.area) && sameBits(a.width, b.width) &&
           sameBits(a.baseline, b.baseline);
}

/// Every verdict field of two reports is bitwise equal (wall-clock runtime
/// and the recorded waveform samples are not verdicts).
bool sameReport(const core::NetNoiseReport& a, const core::NetNoiseReport& b) {
    const auto& ca = a.cluster;
    const auto& cb = b.cluster;
    const auto& pa = a.propagated;
    const auto& pb = b.propagated;
    const auto& wa = a.windows;
    const auto& wb = b.windows;
    return a.net == b.net && a.aggressorNets == b.aggressorNets &&
           a.status == b.status && a.error == b.error &&
           a.otherDrivers == b.otherDrivers &&
           sameBits(ca.worst.metrics, cb.worst.metrics) &&
           ca.worst.engineNodes == cb.worst.engineNodes &&
           sameBits(ca.aggressorSwitchTimes, cb.aggressorSwitchTimes) &&
           sameBits(ca.glitchTime, cb.glitchTime) &&
           sameBits(ca.nrcLimit, cb.nrcLimit) && ca.fails == cb.fails &&
           sameBits(ca.margin, cb.margin) &&
           sameBits(ca.glitchInHeight, cb.glitchInHeight) &&
           sameBits(ca.glitchInWidth, cb.glitchInWidth) &&
           pa.present == pb.present && pa.fromNet == pb.fromNet &&
           pa.inputPin == pb.inputPin && sameBits(pa.height, pb.height) &&
           sameBits(pa.width, pb.width) &&
           sameBits(pa.localPeak, pb.localPeak) &&
           sameBits(pa.localNrcLimit, pb.localNrcLimit) &&
           sameBits(pa.localMargin, pb.localMargin) &&
           pa.localFails == pb.localFails &&
           wa.constrained == wb.constrained &&
           sameBits(wa.window.earliest, wb.window.earliest) &&
           sameBits(wa.window.latest, wb.window.latest) &&
           sameBits(wa.unconstrainedMargin, wb.unconstrainedMargin) &&
           sameBits(wa.windowedMargin, wb.windowedMargin) &&
           wa.excludedAggressors == wb.excludedAggressors &&
           wa.droppedIncoming == wb.droppedIncoming;
}

bool sameReports(const std::vector<core::NetNoiseReport>& a,
                 const std::vector<core::NetNoiseReport>& b) {
    if (a.size() != b.size()) return false;
    for (std::size_t i = 0; i < a.size(); ++i) {
        if (!sameReport(a[i], b[i])) return false;
    }
    return true;
}

/// Victim reports (those with aggressors) and the unsolved nets must tile
/// the victim set exactly, and every report must be `ok`. Returns the
/// number of victims not covered by an `ok` report.
long checkTiling(const core::AnalysisOutcome& outcome,
                 const std::vector<std::string>& victims, Outcome& out,
                 const std::string& what) {
    std::vector<std::string> seen = outcome.unsolvedNets;
    long bad = static_cast<long>(outcome.unsolvedNets.size());
    for (const auto& r : outcome.reports) {
        if (r.status != core::NetNoiseReport::Status::ok) ++bad;
        if (!r.aggressorNets.empty()) seen.push_back(r.net);
    }
    std::sort(seen.begin(), seen.end());
    if (seen != victims) {
        out.fail(what + ": reports and unsolved nets do not tile the " +
                 std::to_string(victims.size()) + " victims");
        bad = std::max<long>(bad, 1);
    } else if (bad > 0) {
        out.fail(what + ": " + std::to_string(bad) +
                 " victims without an ok report");
    }
    return bad;
}

/// Verdict numbers of a report set (deterministic for a seed).
void reportVerdicts(const std::vector<core::NetNoiseReport>& reports,
                    Outcome& out) {
    double failing = 0.0, worst = 0.0, recovered = 0.0;
    bool first = true;
    for (const auto& r : reports) {
        if (r.cluster.fails) failing += 1.0;
        if (first || r.cluster.margin < worst) worst = r.cluster.margin;
        first = false;
        if (r.windows.constrained) {
            recovered += r.windows.windowedMargin - r.windows.unconstrainedMargin;
        }
    }
    out.perLayer["report.failing_nets"] = failing;
    out.perLayer["report.worst_margin_v"] = worst;
    out.perLayer["report.window_recovery_v"] = recovered;
}

void cacheCounters(const charlib::CharCache::Stats& s, Outcome& out) {
    const double hits = static_cast<double>(s.loadCurveHits + s.theveninHits +
                                            s.nrcHits + s.propagationHits);
    const double runs = static_cast<double>(s.totalRuns());
    const double disk = static_cast<double>(s.totalDiskHits());
    out.perLayer["charlib.runs.load_curve"] = static_cast<double>(s.loadCurveRuns);
    out.perLayer["charlib.runs.thevenin"] = static_cast<double>(s.theveninRuns);
    out.perLayer["charlib.runs.nrc"] = static_cast<double>(s.nrcRuns);
    out.perLayer["charlib.runs.propagation"] = static_cast<double>(s.propagationRuns);
    out.perLayer["charlib.hits"] = hits;
    out.perLayer["charlib.disk_hits"] = disk;
    out.perLayer["charlib.hit_ratio"] =
        hits + disk + runs > 0.0 ? (hits + disk) / (hits + disk + runs) : 0.0;
    out.perLayer["charlib.overflow"] = static_cast<double>(s.totalOverflow());
}

charlib::CharCache::Stats minus(charlib::CharCache::Stats a,
                                const charlib::CharCache::Stats& b) {
    using S = charlib::CharCache::Stats;
    for (const auto field :
         {&S::loadCurveRuns, &S::loadCurveHits, &S::theveninRuns,
          &S::theveninHits, &S::nrcRuns, &S::nrcHits, &S::propagationRuns,
          &S::propagationHits, &S::loadCurveDiskHits, &S::theveninDiskHits,
          &S::nrcDiskHits, &S::propagationDiskHits, &S::loadCurveOverflow,
          &S::theveninOverflow, &S::nrcOverflow, &S::propagationOverflow}) {
        a.*field -= b.*field;
    }
    return a;
}

void schedulerCounters(const util::SchedulerStats& s, double wall,
                       Outcome& out) {
    const double busy = mean(s.busyFraction);
    out.perLayer["sched.tasks"] = static_cast<double>(s.tasksExecuted);
    out.perLayer["sched.steals"] = static_cast<double>(s.steals);
    out.perLayer["sched.max_ready"] = static_cast<double>(s.maxReadyDepth);
    out.perLayer["sched.busy_frac"] = busy;
    out.perLayer["sched.idle_s"] = s.workers * wall * (1.0 - busy);
}

/// Per-layer times from the traced pass: mean self seconds per call.
void layerTimes(const Tracer& tracer, Outcome& out) {
    if (!tracer.enabled()) return;
    static const std::pair<const char*, const char*> kSpans[] = {
        {"parser.spef", "parser.spef_s"},
        {"parser.verilog", "parser.verilog_s"},
        {"parser.sdc", "parser.sdc_s"},
        {"frontend.build", "frontend.build_s"},
        {"index.build", "index.build_s"},
        {"index.levelize", "index.levelize_s"},
        {"lint.design", "lint.design_s"},
        {"charlib.load", "charlib.load_s"},
        {"macromodel.build", "macromodel.build_s"},
        {"alignment.search", "alignment.search_s"},
        {"spice.golden", "spice.golden_s"},
        {"baselines.superposition", "baselines.superposition_s"},
        {"baselines.thevenin", "baselines.thevenin_s"},
        {"solve", "solve.s"},
    };
    const auto totals = tracer.totals();
    for (const auto& [span, metric] : kSpans) {
        const auto it = totals.find(span);
        if (it != totals.end() && it->second.calls > 0) {
            out.perLayer[metric] = it->second.self / it->second.calls;
        }
    }
    out.perLayer["trace.uncovered_s"] = tracer.uncovered();
}

// ---- the front-end set-up shared by the design workloads ------------------

/// One parsed, built, indexed and linted design. Heap-held: the index keeps
/// pointers to the design and the windows.
struct Block {
    parser::SpefFile spef;
    core::TimingWindows windows;
    std::unique_ptr<core::Design> design;
    std::unique_ptr<core::DesignIndex> index;
    lint::LintReport lint;
};

std::unique_ptr<Block> setUpBlock(const std::string& verilog,
                                  const std::string& spefText,
                                  const std::string& sdcText, Tracer& tr) {
    auto b = std::make_unique<Block>();
    const auto& lib = cell::sharedLibrary(tech::tech130());
    parser::VerilogModule module;
    {
        Span s(tr, "parser.verilog");
        module = parser::parseVerilog(verilog);
    }
    {
        Span s(tr, "parser.spef");
        b->spef = parser::parseSpef(spefText);
    }
    {
        Span s(tr, "parser.sdc");
        b->windows = parser::parseSdc(sdcText).toInputWindows();
    }
    {
        Span s(tr, "frontend.build");
        b->design = std::make_unique<core::Design>(core::buildDesign(module, lib));
    }
    {
        Span s(tr, "index.build");
        b->index = std::make_unique<core::DesignIndex>(*b->design, b->spef,
                                                       &b->windows);
    }
    {
        Span s(tr, "index.levelize");
        b->index->levels();
    }
    {
        Span s(tr, "lint.design");
        lint::LintOptions lo;
        lo.windows = &b->windows;
        b->lint = lint::lintDesign(*b->index, b->spef, lo);
    }
    return b;
}

void indexCounters(const Block& b, Outcome& out) {
    out.perLayer["index.levels"] =
        static_cast<double>(b.index->levels().levels.size());
    out.perLayer["index.tasks"] =
        static_cast<double>(b.index->taskGraph().nets.size());
    out.perLayer["lint.errors"] = static_cast<double>(b.lint.errors());
    out.perLayer["lint.warnings"] = static_cast<double>(b.lint.warnings());
}

/// The input texts of one generated design.
struct Texts {
    std::string verilog, spef, sdc;
    explicit Texts(const GeneratedDesign& gd)
        : verilog(gd.verilog()), spef(gd.spef()), sdc(gd.sdc()) {}
};

/// One timed set-up of `texts`; appends its wall time to `times`.
std::unique_ptr<Block> timedSetUp(const Texts& texts, Tracer& tr,
                                  std::vector<double>& times) {
    tr.nextRun();
    const double t0 = nowSeconds();
    Span s(tr, "setup", true);
    auto b = setUpBlock(texts.verilog, texts.spef, texts.sdc, tr);
    times.push_back(nowSeconds() - t0);
    return b;
}

bool timeLeft(double start, const Config& cfg) {
    return nowSeconds() - start < cfg.seconds;
}

/// Share of the timed window that has passed, at most 1.
double windowShare(double start, const Config& cfg) {
    return std::min(1.0, (nowSeconds() - start) / cfg.seconds);
}

/// Set-ups spread through the timed window, so their samples see the same
/// host load as the operations: called between operations, it runs the
/// idempotent `once` (which appends one sample to `times`) until the
/// samples keep pace with `reps` over the `share` of the window passed.
/// After the last operation, `share` 1 completes the count.
template <typename F>
void setUpsDue(const std::vector<double>& times, int reps, double share,
               F&& once) {
    while (static_cast<double>(times.size()) < share * reps) once();
}

// ---- signoff_cold ---------------------------------------------------------

Outcome signoffCold(const Config& cfg, Tracer& tr) {
    Outcome out;
    const auto gd = generateDesign(kBlockNetlist,
                                   streamSeed(cfg.seed, "signoff_cold"),
                                   kBlockShape);
    const auto victims = gd.victims();
    const Texts texts(gd);
    std::vector<double> setups;
    auto block = timedSetUp(texts, tr, setups);
    indexCounters(*block, out);

    core::DesignNoiseOptions opt;
    opt.threads = kWorkers;
    opt.propagate = true;
    opt.windows = &block->windows;

    std::vector<double> ops;
    std::vector<double> reports;
    std::vector<core::NetNoiseReport> reference;
    const double start = nowSeconds();
    while (timeLeft(start, cfg)) {
        tr.nextRun();
        charlib::CharCache cache;  // cold: every sign-off characterizes anew
        util::SchedulerStats sched;
        opt.cache = &cache;
        opt.schedulerStats = &sched;
        core::AnalysisOutcome outcome;
        {
            Span op(tr, "op", true);
            Span s(tr, "solve");
            const double t0 = nowSeconds();
            outcome = core::analyzeDesignOutcome(*block->design, block->spef, opt);
            ops.push_back(nowSeconds() - t0);
        }
        reports.push_back(victimReports(outcome.reports));
        out.attempted += static_cast<long>(victims.size());
        out.failed += checkTiling(outcome, victims, out, "signoff_cold");
        if (reference.empty()) {
            reference = outcome.reports;
            cacheCounters(cache.stats(), out);
            schedulerCounters(sched, ops.back(), out);
            reportVerdicts(reference, out);
        } else if (!sameReports(reference, outcome.reports)) {
            out.fail("signoff_cold: a repeated cold sign-off changed a report");
        }
        setUpsDue(setups, kSetupRepsBlock, windowShare(start, cfg),
                  [&] { timedSetUp(texts, tr, setups); });
    }
    setUpsDue(setups, kSetupRepsBlock, 1.0,
              [&] { timedSetUp(texts, tr, setups); });
    reportOps(out, "one cold sign-off of the block", setups, ops, reports);

    if (tr.enabled()) {
        // Outside the timed loop: the 2-worker reports equal a serial run.
        charlib::CharCache cache;
        core::DesignNoiseOptions serial = opt;
        serial.threads = 1;
        serial.cache = &cache;
        serial.schedulerStats = nullptr;
        if (!sameReports(reference,
                         core::analyzeDesign(*block->design, block->spef, serial))) {
            out.fail("signoff_cold: 2-worker reports differ from a serial run");
        }
    }
    layerTimes(tr, out);
    return out;
}

// ---- eco_warm -------------------------------------------------------------

struct EcoOp {
    bool resize = false;
    int target = 0;         ///< instance (resize) or net (re-extraction)
    std::string cell;       ///< cell after this op (resize)
    std::vector<double> ff; ///< listed coupling caps after this op
};

/// The ECO cycle: changes alternating a driver resize and a re-extraction
/// of a coupled net (its listed coupling caps scaled by 1.25), then the
/// same changes reverted in reverse order, so the design ends each cycle
/// where it started. Targets are drawn per level, one resize and one
/// re-extraction from every logic level: how far a change reaches
/// downstream depends mostly on its level, so every seed gets the same mix
/// of small and large cones.
std::vector<EcoOp> ecoCycle(const GeneratedDesign& gd, std::uint64_t seed) {
    Rng rng(seed);
    int deepest = 0;
    for (const auto& n : gd.nets) deepest = std::max(deepest, n.level);
    auto pick = [&](const std::vector<int>& pool) {
        return pool.empty() ? -1 : pool[rng.below(pool.size())];
    };
    std::vector<EcoOp> apply, revert;
    for (int level = deepest; level >= 1; --level) {
        std::vector<int> resizable, reextract;
        for (const int inst : gd.resizableInstances()) {
            const auto& net = gd.instances[inst].pins.at("y");
            for (const auto& n : gd.nets) {
                if (n.name == net && n.level == level) resizable.push_back(inst);
            }
        }
        for (std::size_t n = 0; n < gd.nets.size(); ++n) {
            if (gd.nets[n].level != level) continue;
            for (const auto& c : gd.couplings) {
                if (c.a == static_cast<int>(n)) {
                    reextract.push_back(static_cast<int>(n));
                    break;
                }
            }
        }
        EcoOp resize, unresize, extract, unextract;
        resize.resize = unresize.resize = true;
        resize.target = unresize.target = pick(resizable);
        extract.target = unextract.target = pick(reextract);
        if (resize.target < 0 || extract.target < 0) {
            throw std::runtime_error("ECO level " + std::to_string(level) +
                                     " has no resize or re-extraction target");
        }
        unresize.cell = gd.instances[resize.target].cell;
        resize.cell = nextDrive(unresize.cell);
        for (const auto& c : gd.couplings) {
            if (c.a == extract.target) {
                unextract.ff.push_back(c.ff);
                extract.ff.push_back(c.ff * 1.25);
            }
        }
        apply.push_back(resize);
        apply.push_back(extract);
        revert.push_back(unresize);
        revert.push_back(unextract);
    }
    apply.insert(apply.end(), revert.rbegin(), revert.rend());
    return apply;
}

/// The SPEF text after re-extraction `op` (rendered before the timed part
/// of the iteration: it stands for the extractor's output).
std::string reextractedSpef(GeneratedDesign gd, const EcoOp& op) {
    std::size_t k = 0;
    for (auto& c : gd.couplings) {
        if (c.a == op.target) c.ff = op.ff[k++];
    }
    return gd.spef();
}

/// Apply one ECO to the generator model and the live Design; returns the
/// delta naming what changed.
core::DesignDelta applyEco(const EcoOp& op, GeneratedDesign& gd,
                           core::Design& design) {
    core::DesignDelta delta;
    if (op.resize) {
        auto& inst = gd.instances[op.target];
        inst.cell = op.cell;
        design.replaceCell(inst.name, op.cell);
        delta.instances.push_back(inst.name);
    } else {
        std::size_t k = 0;
        for (auto& c : gd.couplings) {
            if (c.a == op.target) c.ff = op.ff[k++];
        }
        delta.nets.push_back(gd.nets[op.target].name);
    }
    return delta;
}

Outcome ecoWarm(const Config& cfg, Tracer& tr) {
    Outcome out;
    const std::uint64_t seed = streamSeed(cfg.seed, "eco_warm");
    auto gd = generateDesign(kEcoNetlist, seed, kEcoShape);
    const auto cycle = ecoCycle(gd, streamSeed(kEcoNetlist, "eco_warm.ops"));
    const std::string cachePath = cfg.scratch + "/eco_warm.snacache";

    core::DesignNoiseOptions opt;
    opt.threads = kWorkers;
    opt.propagate = true;
    // Without the search each re-solved victim is one probe per level, so
    // the incremental machinery, not the solver, sets the turnaround.
    opt.report.searchAlignment = false;

    // Before timing: an earlier session over the same ECO cycle writes the
    // snacache this session opens with.
    {
        Tracer off(false);
        auto b = setUpBlock(gd.verilog(), gd.spef(), gd.sdc(), off);
        charlib::CharCache cache;
        core::AnalysisSnapshot snap;
        core::DesignNoiseOptions o = opt;
        o.cache = &cache;
        o.windows = &b->windows;
        o.snapshot = &snap;
        core::analyzeDesign(*b->design, b->spef, o);
        o.snapshot = nullptr;
        auto model = gd;
        auto spef = std::make_unique<parser::SpefFile>(b->spef);
        for (const auto& op : cycle) {
            const auto delta = applyEco(op, model, *b->design);
            if (!op.resize) {
                spef = std::make_unique<parser::SpefFile>(
                    parser::parseSpef(model.spef()));
            }
            core::analyzeDesignIncremental(*b->design, *spef, delta, snap, o);
        }
        if (!cache.save(cachePath).ok) {
            out.fail("eco_warm: could not write the snacache");
            return out;
        }
    }
    // The snacache and its lock sidecar go when the workload ends.
    struct RemoveOnExit {
        std::string path;
        ~RemoveOnExit() {
            std::remove(path.c_str());
            std::remove((path + ".lock").c_str());
        }
    } removeCache{cachePath};

    // Set-up: front end, snacache load and the snapshot-capturing full run.
    // Everything is served from the snacache: a failed or partial load, or
    // any characterization run, would leave the session silently cold.
    struct Session {
        std::unique_ptr<Block> block;
        std::unique_ptr<charlib::CharCache> cache;
        std::unique_ptr<core::AnalysisSnapshot> snap;
    };
    const Texts texts(gd);
    std::vector<double> setups;
    auto openSession = [&] {
        Session ses;
        ses.cache = std::make_unique<charlib::CharCache>();
        ses.snap = std::make_unique<core::AnalysisSnapshot>();
        charlib::CharCache::PersistResult loaded;
        tr.nextRun();
        const double t0 = nowSeconds();
        {
            Span s(tr, "setup", true);
            ses.block = setUpBlock(texts.verilog, texts.spef, texts.sdc, tr);
            {
                Span l(tr, "charlib.load");
                loaded = ses.cache->load(cachePath);
            }
            core::DesignNoiseOptions o = opt;
            o.cache = ses.cache.get();
            o.windows = &ses.block->windows;
            o.snapshot = ses.snap.get();
            Span l(tr, "solve.snapshot");
            core::analyzeDesign(*ses.block->design, ses.block->spef, o);
        }
        setups.push_back(nowSeconds() - t0);
        if (!loaded.ok || loaded.corrupt > 0) {
            out.fail("eco_warm: snacache load incomplete: " + loaded.error);
        }
        if (ses.cache->stats().totalRuns() != 0) {
            out.fail("eco_warm: set-up characterized despite the snacache");
        }
        return ses;
    };
    Session session = openSession();
    auto& block = session.block;
    auto& cache = session.cache;
    auto& snap = session.snap;
    indexCounters(*block, out);

    opt.cache = cache.get();
    opt.windows = &block->windows;
    auto spef = std::make_unique<parser::SpefFile>(block->spef);
    std::vector<double> ops, reports;
    std::vector<core::NetNoiseReport> last;
    // Counters cover the first cycle, the same ECOs on every run of a seed.
    core::IncrementalStats firstCycle;
    charlib::CharCache::Stats cacheAfterCycle;
    double dirty = 0, total = 0, busy = 0, schedWall = 0;
    std::size_t maxReady = 0, steals = 0, schedTasks = 0, fallbacks = 0;
    std::size_t i = 0;
    const double start = nowSeconds();
    // Whole cycles until the time is up, then the applying half of one
    // more, so the run ends on a mutated design.
    const std::size_t half = cycle.size() / 2;
    for (; i < cycle.size() || timeLeft(start, cfg) ||
           i % cycle.size() != half;
         ++i) {
        tr.nextRun();
        const EcoOp& op = cycle[i % cycle.size()];
        const std::string text =
            op.resize ? std::string() : reextractedSpef(gd, op);
        core::IncrementalStats stats;
        out.attempted += 1;
        try {
            Span o(tr, "op", true);
            const double t0 = nowSeconds();
            const auto delta = applyEco(op, gd, *block->design);
            if (!op.resize) {
                Span s(tr, "parser.spef");
                spef = std::make_unique<parser::SpefFile>(parser::parseSpef(text));
            }
            {
                Span s(tr, "solve");
                last = core::analyzeDesignIncremental(*block->design, *spef,
                                                      delta, *snap, opt, &stats);
            }
            ops.push_back(nowSeconds() - t0);
            reports.push_back(static_cast<double>(stats.solvedVictimReports));
        } catch (const std::exception& e) {
            out.failed += 1;
            out.fail(std::string("eco_warm: ECO iteration threw: ") + e.what());
            continue;
        }
        if (stats.indexRebuilt) {
            out.failed += 1;
            fallbacks += 1;
        }
        if (i < cycle.size()) {
            firstCycle.dirtyTasks += stats.dirtyTasks;
            firstCycle.seedNets += stats.seedNets;
            firstCycle.coupledNeighbors += stats.coupledNeighbors;
            firstCycle.solvedVictimReports += stats.solvedVictimReports;
            firstCycle.reusedVictimReports += stats.reusedVictimReports;
            dirty += static_cast<double>(stats.dirtyTasks);
            total += static_cast<double>(stats.totalTasks);
            schedTasks += stats.scheduler.tasksExecuted;
            steals += stats.scheduler.steals;
            maxReady = std::max(maxReady, stats.scheduler.maxReadyDepth);
            busy += mean(stats.scheduler.busyFraction) * ops.back();
            schedWall += ops.back();
            if (i + 1 == cycle.size()) cacheAfterCycle = cache->stats();
        }
        setUpsDue(setups, kSetupRepsEco, windowShare(start, cfg),
                  openSession);
    }
    setUpsDue(setups, kSetupRepsEco, 1.0, openSession);
    reportOps(out, "one ECO turnaround (mutation, SPEF re-parse, incremental "
                   "re-analysis)",
              setups, ops, reports);
    if (fallbacks > 0) {
        out.fail("eco_warm: " + std::to_string(fallbacks) +
                 " ECO iterations fell back to a full rebuild");
    }
    if (cache->stats().totalRuns() != 0) {
        out.fail("eco_warm: the ECO loop characterized despite the snacache");
    }

    // Outside timing: the final incremental reports equal a cold full run.
    {
        charlib::CharCache coldCache;
        core::DesignNoiseOptions o = opt;
        o.cache = &coldCache;
        if (!sameReports(last, core::analyzeDesign(*block->design, *spef, o))) {
            out.fail("eco_warm: incremental reports differ from a cold full run");
        }
    }
    const double n = static_cast<double>(cycle.size());
    out.perLayer["eco.dirty_tasks"] = static_cast<double>(firstCycle.dirtyTasks) / n;
    out.perLayer["eco.dirty_ratio"] = total > 0 ? dirty / total : 0.0;
    out.perLayer["eco.seed_nets"] = static_cast<double>(firstCycle.seedNets) / n;
    out.perLayer["eco.coupled_neighbors"] =
        static_cast<double>(firstCycle.coupledNeighbors) / n;
    out.perLayer["eco.solved_reports"] =
        static_cast<double>(firstCycle.solvedVictimReports) / n;
    out.perLayer["eco.reused_reports"] =
        static_cast<double>(firstCycle.reusedVictimReports) / n;
    out.perLayer["eco.full_fallbacks"] = static_cast<double>(fallbacks);
    out.perLayer["sched.tasks"] = static_cast<double>(schedTasks) / n;
    out.perLayer["sched.steals"] = static_cast<double>(steals) / n;
    out.perLayer["sched.max_ready"] = static_cast<double>(maxReady);
    out.perLayer["sched.busy_frac"] = schedWall > 0 ? busy / schedWall : 0.0;
    out.perLayer["sched.idle_s"] =
        kWorkers * schedWall / n * (1.0 - out.perLayer["sched.busy_frac"]);
    cacheCounters(cacheAfterCycle, out);
    reportVerdicts(last, out);
    layerTimes(tr, out);
    return out;
}

// ---- cluster_golden -------------------------------------------------------

/// Golden |peak| below this is a noise-free corner, excluded from the error
/// means (the bench_accuracy_sweep rule).
constexpr double kMinGoldenPeak = 0.03;

/// One baseline run; a throw is that baseline's failure on this cluster,
/// not the cluster's (the macromodel and the golden run still stand).
template <typename F>
bool runBaseline(Tracer& tr, const char* span, const char* what,
                 const core::ClusterSpec& spec, std::vector<std::string>* notes,
                 core::NoiseResult& result, F&& run) {
    try {
        Span s(tr, span);
        result = run();
        return true;
    } catch (const std::exception& e) {
        char buf[160];
        std::snprintf(buf, sizeof buf, "%s threw on %s %s, %zu aggressors: ",
                      what, spec.technology->name.c_str(),
                      spec.victim.driverCell.c_str(), spec.aggressors.size());
        if (notes != nullptr) notes->push_back(buf + std::string(e.what()));
        return false;
    }
}

Outcome clusterGolden(const Config& cfg, Tracer& tr) {
    Outcome out;
    const auto specs = generateClusters(streamSeed(cfg.seed, "cluster_golden"));

    // Set-up: the cell libraries of both technologies and every cluster's
    // interconnect.
    std::vector<double> setups;
    auto setUpOnce = [&] {
        tr.nextRun();
        const double t0 = nowSeconds();
        {
            Span s(tr, "setup", true);
            for (const auto* t : tech::allTechnologies()) {
                Span l(tr, "celllib.build");
                const cell::CellLibrary lib(*t);
            }
            for (const auto& spec : specs) {
                Span l(tr, "interconnect.build");
                core::clusterNet(spec);
            }
        }
        setups.push_back(nowSeconds() - t0);
    };
    setUpOnce();

    // Accuracy sums over the first pass; relative errors vs golden. The
    // macromodel error is also summed over the clusters where linear
    // superposition ran, so the paper's shape check compares like sets.
    struct ErrorSum {
        double sum = 0.0;
        int count = 0;
        double pct() const { return count > 0 ? 100.0 * sum / count : 0.0; }
    } macroErr, macroPaired, superErr, theveninErr;
    double under = 0, probes = 0, macroNodes = 0, goldenNodes = 0;
    double baselineFailures = 0;
    int superExcluded = 0;
    // Each cluster is one operation: its time is the fastest of its passes,
    // and it failed when any of its passes threw, so `attempted` and
    // `failed` do not depend on how many passes fit in the window.
    std::vector<double> fastest(specs.size(),
                                std::numeric_limits<double>::infinity());
    std::vector<bool> clusterFailed(specs.size(), false);
    const double start = nowSeconds();
    // Whole passes over the cluster set only, so every run times the same
    // mix of clusters, however fast the host is. Set-ups keep pace with the
    // slower of the window and the minimum passes.
    const double minOps = static_cast<double>(kClusterPasses * specs.size());
    double opsDone = 0;
    int passes = 0;
    for (; passes < kClusterPasses || timeLeft(start, cfg); ++passes) {
        const bool firstPass = passes == 0;
        for (std::size_t c = 0; c < specs.size(); ++c) {
            const auto& spec = specs[c];
            tr.nextRun();
            core::AlignmentResult worst;
            core::NoiseResult golden, superposition, thevenin;
            bool haveSuper = false, haveThevenin = false;
            try {
                Span o(tr, "op", true);
                const double t0 = nowSeconds();
                std::unique_ptr<core::ClusterMacromodel> model;
                {
                    Span s(tr, "macromodel.build");
                    model = std::make_unique<core::ClusterMacromodel>(spec);
                }
                {
                    Span s(tr, "alignment.search");
                    worst = core::findWorstAlignment(*model);
                }
                core::ClusterSpec at = spec;
                for (std::size_t a = 0; a < at.aggressors.size(); ++a) {
                    at.aggressors[a].switchTime = worst.aggressorSwitchTimes[a];
                }
                at.victim.glitchTime = worst.glitchTime;
                {
                    Span s(tr, "spice.golden");
                    golden = core::simulateGolden(at);
                }
                auto* notes = firstPass ? &out.notes : nullptr;
                haveSuper = runBaseline(
                    tr, "baselines.superposition", "linear superposition",
                    spec, notes, superposition, [&] {
                        return core::analyzeLinearSuperposition(
                            *model, worst.aggressorSwitchTimes);
                    });
                haveThevenin = runBaseline(
                    tr, "baselines.thevenin", "iterative Thevenin", spec, notes,
                    thevenin, [&] {
                        return core::analyzeIterativeThevenin(
                            *model, worst.aggressorSwitchTimes,
                            worst.glitchTime);
                    });
                fastest[c] = std::min(fastest[c], nowSeconds() - t0);
            } catch (const std::exception& e) {
                if (!clusterFailed[c]) {
                    out.fail(std::string("cluster_golden: cluster solve threw: ") +
                             e.what());
                }
                clusterFailed[c] = true;
                continue;
            }
            // A baseline that throws fails the cluster's solve.
            if (!haveSuper || !haveThevenin) clusterFailed[c] = true;
            opsDone += 1;
            setUpsDue(setups, kSetupRepsCluster,
                      std::min(windowShare(start, cfg), opsDone / minOps),
                      setUpOnce);
            if (!firstPass) continue;
            baselineFailures += (haveSuper ? 0 : 1) + (haveThevenin ? 0 : 1);
            probes += worst.evaluations;
            macroNodes += static_cast<double>(worst.worst.engineNodes);
            goldenNodes += static_cast<double>(golden.engineNodes);
            const double g = golden.metrics.peak;
            if (!std::isfinite(g) || !std::isfinite(worst.worst.metrics.peak)) {
                out.fail("cluster_golden: non-finite peak");
                continue;
            }
            if (std::abs(g) < kMinGoldenPeak) continue;
            const double e = (worst.worst.metrics.peak - g) / g;
            macroErr.sum += std::abs(e);
            macroErr.count += 1;
            under = std::max(under, -e);
            if (haveSuper) {
                superErr.sum += std::abs((superposition.metrics.peak - g) / g);
                superErr.count += 1;
                macroPaired.sum += std::abs(e);
                macroPaired.count += 1;
            } else {
                superExcluded += 1;
            }
            if (haveThevenin) {
                theveninErr.sum += std::abs((thevenin.metrics.peak - g) / g);
                theveninErr.count += 1;
            }
        }
    }
    setUpsDue(setups, kSetupRepsCluster, 1.0, setUpOnce);
    std::vector<double> ops;
    for (std::size_t c = 0; c < specs.size(); ++c) {
        if (std::isfinite(fastest[c])) ops.push_back(fastest[c]);
        out.failed += clusterFailed[c] ? 1 : 0;
    }
    out.attempted = static_cast<long>(specs.size());
    reportOps(out, "one cluster (uncached macromodel build, worst-alignment "
                   "search, golden transient, both baselines), timed as the "
                   "fastest of " + std::to_string(passes) + " passes",
              setups, ops, std::vector<double>(ops.size(), 1.0));

    const double n = static_cast<double>(specs.size());
    out.perLayer["macro_err_pct"] = macroErr.pct();
    out.perLayer["macro_under_pct"] = 100.0 * under;
    out.perLayer["baselines.superposition_err_pct"] = superErr.pct();
    out.perLayer["baselines.thevenin_err_pct"] = theveninErr.pct();
    out.perLayer["baselines.failed"] = baselineFailures;
    out.perLayer["alignment.probes"] = probes;
    out.perLayer["macromodel.engine_nodes"] = macroNodes / n;
    out.perLayer["spice.golden_nodes"] = goldenNodes / n;
    char buf[300];
    std::snprintf(buf, sizeof buf,
                  "accuracy over %d of %zu clusters with golden |peak| >= "
                  "%.0f mV (superposition %d, iterative Thevenin %d); shape "
                  "check: superposition %.2f%% vs macromodel %.2f%% over the "
                  "same %d clusters (%d excluded: superposition threw)",
                  macroErr.count, specs.size(), kMinGoldenPeak * 1e3,
                  superErr.count, theveninErr.count, superErr.pct(),
                  macroPaired.pct(), superErr.count, superExcluded);
    out.notes.push_back(buf);
    if (!(superErr.pct() > macroPaired.pct())) {
        out.fail("cluster_golden: linear superposition is not less accurate "
                 "than the macromodel");
    }
    layerTimes(tr, out);
    if (tr.enabled()) {
        const auto totals = tr.totals();
        const auto it = totals.find("alignment.search");
        if (it != totals.end() && probes > 0) {
            out.perLayer["alignment.probe_s"] =
                it->second.self / it->second.calls / (probes / n);
        }
    }
    return out;
}

// ---- sweep_scale ----------------------------------------------------------

Outcome sweepScale(const Config& cfg, Tracer& tr) {
    Outcome out;
    const std::uint64_t seed = streamSeed(cfg.seed, "sweep_scale");
    const auto gd = generateDesign(seed, seed, kSweepShape);
    const auto victims = gd.victims();
    const Texts texts(gd);
    std::vector<double> setups;
    auto block = timedSetUp(texts, tr, setups);
    indexCounters(*block, out);
    if (block->lint.errors() != 0 || block->lint.warnings() != 0) {
        out.fail("sweep_scale: lint reports " + block->lint.summary());
    }

    charlib::CharCache cache;
    lint::LintReport lintOut;
    core::DesignNoiseOptions opt;
    opt.threads = kWorkers;
    opt.report.searchAlignment = false;
    opt.lint = lint::Mode::warn;
    opt.lintOut = &lintOut;
    opt.cache = &cache;
    // The first sweep fills the cache; the timed sweeps run its hit path.
    const auto reference = core::analyzeDesign(*block->design, block->spef, opt);

    std::vector<double> ops;
    std::vector<double> reports;
    bool counted = false;
    const double start = nowSeconds();
    while (timeLeft(start, cfg)) {
        tr.nextRun();
        const auto before = cache.stats();
        core::AnalysisOutcome outcome;
        {
            Span op(tr, "op", true);
            Span s(tr, "solve");
            const double t0 = nowSeconds();
            outcome = core::analyzeDesignOutcome(*block->design, block->spef, opt);
            ops.push_back(nowSeconds() - t0);
        }
        reports.push_back(victimReports(outcome.reports));
        out.attempted += static_cast<long>(victims.size());
        out.failed += checkTiling(outcome, victims, out, "sweep_scale");
        if (lintOut.errors() != 0 || lintOut.warnings() != 0) {
            out.fail("sweep_scale: warn-mode lint reports " + lintOut.summary());
        }
        if (!sameReports(reference, outcome.reports)) {
            out.fail("sweep_scale: a warm sweep changed a report");
        }
        if (!counted) {
            cacheCounters(minus(cache.stats(), before), out);
            counted = true;
        }
        setUpsDue(setups, kSetupRepsSweep, windowShare(start, cfg),
                  [&] { timedSetUp(texts, tr, setups); });
    }
    setUpsDue(setups, kSetupRepsSweep, 1.0,
              [&] { timedSetUp(texts, tr, setups); });
    reportOps(out, "one flat sweep of the design (alignment search off)",
              setups, ops, reports);
    reportVerdicts(reference, out);

    if (tr.enabled()) {
        charlib::CharCache serialCache;
        core::DesignNoiseOptions serial = opt;
        serial.threads = 1;
        serial.cache = &serialCache;
        if (!sameReports(reference,
                         core::analyzeDesign(*block->design, block->spef, serial))) {
            out.fail("sweep_scale: 2-worker reports differ from a serial run");
        }
    }
    layerTimes(tr, out);
    return out;
}

}  // namespace

const std::vector<WorkloadInfo>& workloads() {
    // Each `why` (at most 200 characters) names the run's configuration and
    // seed use, the layers it stresses and bypasses; every workload emits
    // every end-to-end metric.
    static const std::vector<WorkloadInfo> list = {
        {"signoff_cold",
         "Fresh-block sign-off: default options, SDC windows, cold cache, 2 "
         "workers; seed draws parasitics/SDC. Stresses solver, search, cold "
         "charlib, scheduler; bypasses snacache, ECO",
         signoffCold},
        {"eco_warm",
         "ECO loop, 2 workers, search off: resizes and re-extracted nets on a "
         "snacache-warm cache; seed draws ECO values. Stresses incremental, "
         "index patch, SPEF parse; bypasses search",
         ecoWarm},
        {"cluster_golden",
         "Paper experiment, serial: 72 seeded clusters, uncached macromodel, "
         "worst alignment, golden, both baselines. Stresses spice, macromodel, "
         "search; bypasses scheduler, index, cache",
         clusterGolden},
        {"sweep_scale",
         "Pipeline overhead: ~1700 victims, flat sweep, search off, lint warn, "
         "warm cache, 2 workers; seed draws netlist. Stresses parser, index, "
         "lint, cache hits; bypasses search, wavefront",
         sweepScale},
    };
    return list;
}

const std::vector<MetricInfo>& endToEndMetrics() {
    static const std::vector<MetricInfo> list = {
        {"setup_s", "s", "lower"},
        {"peak_rss_mb", "MB", "lower"},
        {"victims_per_s", "1/s", "higher"},
        {"op_p50_s", "s", "lower"},
        {"op_tail_s", "s", "lower"},
    };
    return list;
}

const std::vector<MetricInfo>& perLayerMetrics() {
    static const std::vector<MetricInfo> list = {
        {"parser.spef_s", "s", "lower"},
        {"parser.verilog_s", "s", "lower"},
        {"parser.sdc_s", "s", "lower"},
        {"frontend.build_s", "s", "lower"},
        {"index.build_s", "s", "lower"},
        {"index.levelize_s", "s", "lower"},
        {"index.levels", "count", "lower"},
        {"index.tasks", "count", "lower"},
        {"lint.design_s", "s", "lower"},
        {"lint.errors", "count", "lower"},
        {"lint.warnings", "count", "lower"},
        {"charlib.runs.load_curve", "count", "lower"},
        {"charlib.runs.thevenin", "count", "lower"},
        {"charlib.runs.nrc", "count", "lower"},
        {"charlib.runs.propagation", "count", "lower"},
        {"charlib.hits", "count", "higher"},
        {"charlib.hit_ratio", "ratio", "higher"},
        {"charlib.disk_hits", "count", "higher"},
        {"charlib.overflow", "count", "lower"},
        {"charlib.load_s", "s", "lower"},
        {"macromodel.build_s", "s", "lower"},
        {"macromodel.engine_nodes", "count", "lower"},
        {"alignment.search_s", "s", "lower"},
        {"alignment.probes", "count", "lower"},
        {"alignment.probe_s", "s", "lower"},
        {"spice.golden_s", "s", "lower"},
        {"spice.golden_nodes", "count", "lower"},
        {"baselines.superposition_s", "s", "lower"},
        {"baselines.thevenin_s", "s", "lower"},
        {"baselines.superposition_err_pct", "%", "higher"},
        {"baselines.thevenin_err_pct", "%", "higher"},
        {"baselines.failed", "count", "lower"},
        {"macro_err_pct", "%", "lower"},
        {"macro_under_pct", "%", "lower"},
        {"sched.tasks", "count", "lower"},
        {"sched.steals", "count", "lower"},
        {"sched.max_ready", "count", "higher"},
        {"sched.busy_frac", "ratio", "higher"},
        {"sched.idle_s", "s", "lower"},
        {"eco.dirty_tasks", "count", "lower"},
        {"eco.dirty_ratio", "ratio", "lower"},
        {"eco.seed_nets", "count", "lower"},
        {"eco.coupled_neighbors", "count", "lower"},
        {"eco.solved_reports", "count", "lower"},
        {"eco.reused_reports", "count", "higher"},
        {"eco.full_fallbacks", "count", "lower"},
        {"solve.s", "s", "lower"},
        {"report.failing_nets", "count", "lower"},
        {"report.worst_margin_v", "V", "higher"},
        {"report.window_recovery_v", "V", "higher"},
        {"trace.uncovered_s", "s", "lower"},
        {"trace.overhead_pct", "%", "lower"},
    };
    return list;
}

}  // namespace snabench
