#include "lint/lint.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <set>
#include <sstream>
#include <unordered_set>
#include <utility>

#include "charlib/char_cache.hpp"
#include "charlib/characterize.hpp"
#include "core/incremental.hpp"
#include "core/propagate.hpp"
#include "core/sna.hpp"
#include "util/error.hpp"

namespace sna::lint {

namespace {

void add(LintReport& r, const char* rule, Severity sev, std::string object,
         std::string message) {
    Diagnostic d;
    d.rule = rule;
    d.severity = sev;
    d.object = std::move(object);
    d.message = std::move(message);
    r.diagnostics.push_back(std::move(d));
}

std::string ps(double seconds) {
    std::ostringstream os;
    os << seconds * 1e12 << " ps";
    return os.str();
}

std::string windowStr(const core::TimingWindow& w) {
    const auto bound = [](double v) -> std::string {
        if (std::isnan(v)) return "nan";
        if (std::isinf(v)) return v > 0 ? "+inf" : "-inf";
        std::ostringstream os;
        os << v * 1e12;
        return os.str();
    };
    return "[" + bound(w.earliest) + ", " + bound(w.latest) + "] ps";
}

std::string joinNames(const std::vector<std::string>& names) {
    std::string out;
    for (const std::string& n : names) {
        if (!out.empty()) out += ", ";
        out += "'" + n + "'";
    }
    return out;
}

/// Everything one pass over the instance list yields: the name sets the
/// connectivity and window rules test membership against, the sorted
/// worklists of the graph and library stages, and the SNA-L104 findings
/// themselves (an unbound pin is discovered exactly where it is scanned).
struct DesignSets {
    std::unordered_set<std::string> instanceNames;
    std::unordered_set<std::string> pinNets;  ///< every net bound to a pin
    std::set<std::string> outputNets;         ///< sorted, SNA-L202 worklist
    std::set<std::string> cellNames;          ///< sorted, SNA-L401 worklist
    std::vector<Diagnostic> l104;             ///< pins bound to no net
};

DesignSets scanInstances(const core::Design& design) {
    DesignSets s;
    const cell::CellLibrary& lib = design.library();
    for (const core::Instance& inst : design.instances()) {
        s.instanceNames.insert(inst.name);
        s.cellNames.insert(inst.cellName);
        for (const auto& [pin, net] : inst.pinToNet) {
            if (net.empty()) {
                Diagnostic d;
                d.rule = "SNA-L104";
                d.severity = Severity::error;
                d.object = inst.name + ":" + pin;
                d.message =
                    "pin is bound to no net (empty net name); the instance "
                    "can neither drive nor load anything through it";
                s.l104.push_back(std::move(d));
                continue;
            }
            s.pinNets.insert(net);
        }
        const cell::Cell& c = lib.cell(inst.cellName);
        const auto out = inst.pinToNet.find(c.outputName());
        if (out != inst.pinToNet.end() && !out->second.empty()) {
            s.outputNets.insert(out->second);
        }
    }
    return s;
}

// ------------------------------------------------------ connectivity (L1xx)

void lintConnectivity(const core::DesignIndex& index,
                      const parser::SpefFile& spef, const DesignSets& s,
                      LintReport& r) {
    for (const auto& [net, spefNet] : spef.nets()) {
        const core::Instance* drv = index.driverOf(net);
        const auto& loads = index.loadsOf(net);
        if (drv == nullptr && !loads.empty()) {
            add(r, "SNA-L101", Severity::error, net,
                "SPEF net has " + std::to_string(loads.size()) +
                    " receiver pin(s) but no driver in the design; its "
                    "noise verdict would be silently skipped");
        } else if (drv != nullptr && loads.empty()) {
            add(r, "SNA-L102", Severity::warning, net,
                "SPEF net is driven by '" + drv->name +
                    "' but no design pin receives it; noise on it is "
                    "checked against no receiver");
        }
    }
    // A coupling cap names two "net:node" (or bare-net) endpoints; an
    // endpoint whose owner is neither a SPEF net section nor a design
    // instance/net injects charge into — or couples noise from — something
    // that does not exist. One finding per unknown owner, first section
    // recorded, sorted by owner name.
    std::map<std::string, std::string> unknownOwners;
    for (const auto& [net, spefNet] : spef.nets()) {
        for (const parser::SpefCap& cap : spefNet.caps) {
            if (cap.node2.empty()) continue;  // grounded cap
            for (const std::string* node : {&cap.node1, &cap.node2}) {
                const std::string owner = node->substr(0, node->find(':'));
                if (spef.nets().count(owner) != 0 ||
                    s.instanceNames.count(owner) != 0 ||
                    s.pinNets.count(owner) != 0) {
                    continue;
                }
                unknownOwners.emplace(owner, net);
            }
        }
    }
    for (const auto& [owner, section] : unknownOwners) {
        add(r, "SNA-L103", Severity::error, owner,
            "coupling cap in SPEF section '" + section +
                "' references '" + owner +
                "', which is neither a SPEF net nor a design "
                "instance/net; its aggressor contribution is dangling");
    }
    for (const Diagnostic& d : s.l104) r.diagnostics.push_back(d);
}

// ------------------------------------------------------- graph health (L2xx)

void lintGraph(const core::DesignIndex& index, const DesignSets& s,
               LintReport& r) {
    for (const auto& [from, to] : index.levels().brokenEdges) {
        add(r, "SNA-L201", Severity::warning, from + "->" + to,
            "combinational cycle: levelization discarded the edge '" + from +
                "' -> '" + to +
                "'; noise propagated across it is not analyzed");
    }
    for (const std::string& net : s.outputNets) {
        const std::vector<std::string>& extra = index.extraDriversOf(net);
        if (extra.empty()) continue;
        add(r, "SNA-L202", Severity::warning, net,
            "net is driven by " + std::to_string(extra.size() + 1) +
                " instances; '" + index.driverOf(net)->name +
                "' (lexicographically smallest) is analyzed, " +
                joinNames(extra) + " are ignored");
    }
}

// ------------------------------------------------------------ windows (L3xx)

void lintWindows(const core::DesignIndex& index, const parser::SpefFile& spef,
                 const DesignSets& s, const LintOptions& opt, LintReport& r) {
    const core::TimingWindows* windows =
        opt.windows != nullptr ? opt.windows : index.timingWindows();
    if (windows == nullptr || windows->empty()) return;
    bool anyInvalid = false;
    for (const auto& [net, w] : windows->all()) {
        if (std::isnan(w.earliest) || std::isnan(w.latest)) {
            add(r, "SNA-L301", Severity::error, net,
                "timing window " + windowStr(w) +
                    " has a NaN bound; every overlap test against it is "
                    "false and the net silently drops out of the "
                    "worst-case combination");
            anyInvalid = true;
        } else if (w.empty()) {
            add(r, "SNA-L301", Severity::error, net,
                "timing window " + windowStr(w) +
                    " is inverted (earliest > latest): it contains no "
                    "instant, so the net can never collide with anything");
            anyInvalid = true;
        }
        if (spef.nets().count(net) == 0 && s.pinNets.count(net) == 0) {
            add(r, "SNA-L302", Severity::warning, net,
                "timing window names a net that exists neither in the "
                "design nor in the SPEF; the constraint binds nothing "
                "(typo, or stale windows file)");
        }
    }
    // SNA-L303: an explicit window tighter than what its fanin can actually
    // produce excludes real transitions from the noise search — optimistic,
    // but only provably so where the propagated hull bound is finite, and
    // deliberately advisory (info): disjoint artificial windows are a
    // legitimate what-if input. Skipped entirely when any window is
    // invalid — propagating NaN/empty windows would poison the hulls.
    if (anyInvalid) return;
    charlib::CharCache localCache;
    charlib::CharCache* cache =
        opt.cache != nullptr ? opt.cache : &localCache;
    const auto propagated = core::propagateWindows(index, cache, windows);
    const cell::CellLibrary& lib = index.design().library();
    for (const auto& [net, w] : windows->all()) {
        const std::vector<core::FaninEdge>& fanin = index.faninOf(net);
        if (fanin.empty()) continue;
        bool any = false;
        core::TimingWindow hull;
        for (const core::FaninEdge& edge : fanin) {
            const auto it = propagated.find(edge.fromNet);
            const core::TimingWindow up = it != propagated.end()
                                              ? it->second
                                              : core::TimingWindow::unbounded();
            const core::TimingWindow shifted =
                core::propagateWindowThroughDriver(
                    lib.cell(edge.inst->cellName), edge.pin, up, cache);
            hull = any ? hull.unite(shifted) : shifted;
            any = true;
        }
        const bool clipsEarly =
            std::isfinite(hull.earliest) && w.earliest > hull.earliest;
        const bool clipsLate =
            std::isfinite(hull.latest) && w.latest < hull.latest;
        if (clipsEarly || clipsLate) {
            add(r, "SNA-L303", Severity::info, net,
                "explicit window " + windowStr(w) +
                    " is narrower than the propagated fanin hull " +
                    windowStr(hull) +
                    "; transitions the fanin can produce are excluded "
                    "from the noise search");
        }
    }
}

// ------------------------------------------------------------ library (L4xx)

void lintLibrary(const core::DesignIndex& index, const DesignSets& s,
                 const LintOptions& opt, LintReport& r) {
    const cell::CellLibrary& lib = index.design().library();
    for (const std::string& cellName : s.cellNames) {
        const cell::Cell& c = lib.cell(cellName);
        for (const std::string& pin : c.inputNames()) {
            std::string why;
            for (const bool level : {false, true}) {
                try {
                    (void)c.holdingVector(level, pin);
                } catch (const ModelError& e) {
                    why = e.what();
                    break;
                }
            }
            if (!why.empty()) {
                add(r, "SNA-L401", Severity::error, cellName + ":" + pin,
                    "pin cannot be characterized (" + why +
                        "); any cluster that sensitizes it throws "
                        "mid-solve");
            }
        }
    }
    std::vector<double> grid;
    try {
        grid = opt.nrc.grid();
    } catch (const Error& e) {
        add(r, "SNA-L403", Severity::error, "nrc-width-grid",
            std::string("NRC width grid options are invalid (") + e.what() +
                "); every receiver check would throw");
        return;
    }
    const std::vector<double> widths = charlib::canonicalPropagationWidths();
    if (grid.size() < 2) {
        add(r, "SNA-L403", Severity::error, "nrc-width-grid",
            "NRC width grid has fewer than two points; the rejection "
            "curve cannot be interpolated");
        return;
    }
    const bool uncoveredLow = grid.front() > widths.front() * (1 + 1e-9);
    const bool uncoveredHigh = grid.back() < widths.back() * (1 - 1e-9);
    if (uncoveredLow || uncoveredHigh) {
        add(r, "SNA-L403", Severity::warning, "nrc-width-grid",
            "NRC probe grid [" + ps(grid.front()) + ", " + ps(grid.back()) +
                "] does not cover the canonical propagation widths [" +
                ps(widths.front()) + ", " + ps(widths.back()) +
                "]; glitches below the grid are clamped to it and wider "
                "ones fall back to uncached exact probes");
    }
}

// --------------------------------------------- deep characterization (L402)

void lintCharacterization(const core::DesignIndex& index,
                          const parser::SpefFile& spef,
                          const LintOptions& opt, LintReport& r) {
    charlib::CharCache localCache;
    charlib::CharCache* cache =
        opt.cache != nullptr ? opt.cache : &localCache;
    const cell::CellLibrary& lib = index.design().library();
    // Victim selection mirrors analyzeDesign: SPEF nets with coupling, a
    // design driver, and at least one load. Drivers contribute their load
    // curve, the first load its NRC — the same (cell, pin, level) keys the
    // analysis characterizes, so a shared cache computes each model once.
    std::set<std::pair<std::string, std::string>> driverPins;
    std::set<std::string> receiverCells;
    for (const auto& [net, spefNet] : spef.nets()) {
        if (index.couplingOf(net).empty()) continue;
        const core::Instance* drv = index.driverOf(net);
        if (drv == nullptr) continue;
        const auto& loads = index.loadsOf(net);
        if (loads.empty()) continue;
        const cell::Cell& dc = lib.cell(drv->cellName);
        if (!dc.inputNames().empty()) {
            driverPins.emplace(drv->cellName, dc.inputNames().front());
        }
        receiverCells.insert(loads.front().first->cellName);
    }
    for (const auto& [cellName, input] : driverPins) {
        for (const bool level : {false, true}) {
            charlib::LoadCurveSpec lc;
            lc.cell = &lib.cell(cellName);
            lc.input = input;
            lc.outputLevel = level;
            lc.nVin = lc.nVout = opt.loadCurveGrid;
            std::optional<Diagnostic> d;
            try {
                d = checkLoadCurveMonotone(*cache->loadCurve(lc),
                                           cellName + ":" + input);
            } catch (const Error&) {
                continue;  // uncharacterizable pins are SNA-L401's finding
            }
            if (d) {
                r.diagnostics.push_back(std::move(*d));
                break;  // one finding per (cell, pin)
            }
        }
    }
    std::vector<double> grid;
    try {
        grid = opt.nrc.grid();
    } catch (const Error&) {
        return;  // already reported as SNA-L403
    }
    if (grid.size() < 2) return;
    for (const std::string& cellName : receiverCells) {
        const cell::Cell& c = lib.cell(cellName);
        if (c.inputNames().empty()) continue;
        for (const bool quiet : {false, true}) {
            charlib::NrcSpec ns;
            ns.cell = &c;
            ns.input = c.inputNames().front();
            ns.quietLevel = quiet;
            ns.widths = grid;
            std::optional<Diagnostic> d;
            try {
                d = checkNrcMonotone(cache->nrc(ns), cellName);
            } catch (const Error&) {
                continue;  // quiet level not sensitizable on this pin
            }
            if (d) {
                r.diagnostics.push_back(std::move(*d));
                break;  // one finding per cell
            }
        }
    }
}

}  // namespace

LintReport lintDesign(const core::DesignIndex& index,
                      const parser::SpefFile& spef, const LintOptions& opt) {
    LintReport r;
    const DesignSets s = scanInstances(index.design());
    if (opt.connectivity) lintConnectivity(index, spef, s, r);
    if (opt.graph) lintGraph(index, s, r);
    if (opt.windowRules) lintWindows(index, spef, s, opt, r);
    if (opt.library) lintLibrary(index, s, opt, r);
    if (opt.characterization) lintCharacterization(index, spef, opt, r);
    return r;
}

LintReport lintDelta(const core::Design& design, const parser::SpefFile& spef,
                     const core::DesignDelta& delta) {
    LintReport r;
    std::unordered_set<std::string> instanceNames;
    std::unordered_set<std::string> designNets;
    for (const core::Instance& inst : design.instances()) {
        instanceNames.insert(inst.name);
        for (const auto& [pin, net] : inst.pinToNet) {
            if (!net.empty()) designNets.insert(net);
        }
    }
    const std::set<std::string> nets(delta.nets.begin(), delta.nets.end());
    for (const std::string& net : nets) {
        if (designNets.count(net) != 0 || spef.nets().count(net) != 0) {
            continue;
        }
        add(r, "SNA-L501", Severity::error, net,
            "delta names a net that exists neither in the design nor in "
            "the SPEF; it marks nothing dirty, so the incremental run "
            "would silently splice stale results");
    }
    const std::set<std::string> insts(delta.instances.begin(),
                                      delta.instances.end());
    for (const std::string& inst : insts) {
        if (instanceNames.count(inst) != 0) continue;
        add(r, "SNA-L502", Severity::error, inst,
            "delta names an instance that does not exist in the design; "
            "it marks nothing dirty, so the incremental run would "
            "silently splice stale results");
    }
    return r;
}

std::vector<parser::Waiver> applyWaivers(
    LintReport& report, const std::vector<parser::Waiver>& waivers) {
    std::vector<bool> used(waivers.size(), false);
    for (Diagnostic& d : report.diagnostics) {
        for (std::size_t i = 0; i < waivers.size(); ++i) {
            const parser::Waiver& w = waivers[i];
            if (w.rule != d.rule) continue;
            if (w.object != "*" && w.object != d.object) continue;
            d.waived = true;
            used[i] = true;  // keep scanning: every matching waiver is used
        }
    }
    std::vector<parser::Waiver> unused;
    for (std::size_t i = 0; i < waivers.size(); ++i) {
        if (!used[i]) unused.push_back(waivers[i]);
    }
    return unused;
}

std::optional<Diagnostic> checkLoadCurveMonotone(const la::Grid2d& curve,
                                                 const std::string& label) {
    double lo = std::numeric_limits<double>::infinity();
    double hi = -std::numeric_limits<double>::infinity();
    for (std::size_t ix = 0; ix < curve.xs().size(); ++ix) {
        for (std::size_t iy = 0; iy < curve.ys().size(); ++iy) {
            lo = std::min(lo, curve.at(ix, iy));
            hi = std::max(hi, curve.at(ix, iy));
        }
    }
    // Output conductance of a static CMOS stage is positive, so I_sink must
    // be non-decreasing in v_out at every fixed v_in; allow solver noise.
    const double tol = 1e-6 * (hi - lo) + 1e-18;
    for (std::size_t ix = 0; ix < curve.xs().size(); ++ix) {
        for (std::size_t iy = 0; iy + 1 < curve.ys().size(); ++iy) {
            const double a = curve.at(ix, iy);
            const double b = curve.at(ix, iy + 1);
            if (b < a - tol) {
                Diagnostic d;
                d.rule = "SNA-L402";
                d.severity = Severity::warning;
                d.object = label;
                std::ostringstream os;
                os << "load curve is not monotone in v_out: at v_in = "
                   << curve.xs()[ix] << " V the sunk current drops from "
                   << a << " A (v_out = " << curve.ys()[iy] << " V) to " << b
                   << " A (v_out = " << curve.ys()[iy + 1]
                   << " V); holding resistance and the macromodel solve "
                      "are untrustworthy";
                d.message = os.str();
                return d;
            }
        }
    }
    return std::nullopt;
}

std::optional<Diagnostic> checkNrcMonotone(const la::Grid1d& nrc,
                                           const std::string& label) {
    double peak = 0.0;
    for (const double y : nrc.ys()) peak = std::max(peak, std::abs(y));
    // The failing height is non-increasing in width (a wider glitch is at
    // least as damaging); allow the bisection's own resolution.
    const double tol = 1e-3 * peak + 1e-12;
    for (std::size_t i = 0; i + 1 < nrc.ys().size(); ++i) {
        if (nrc.ys()[i + 1] > nrc.ys()[i] + tol) {
            Diagnostic d;
            d.rule = "SNA-L402";
            d.severity = Severity::warning;
            d.object = label;
            std::ostringstream os;
            os << "noise rejection curve is not monotone: the failing "
                  "height rises from "
               << nrc.ys()[i] << " V at " << ps(nrc.xs()[i]) << " to "
               << nrc.ys()[i + 1] << " V at " << ps(nrc.xs()[i + 1])
               << "; wider glitches must be at least as damaging, so the "
                  "characterization is broken";
            d.message = os.str();
            return d;
        }
    }
    return std::nullopt;
}

}  // namespace sna::lint
