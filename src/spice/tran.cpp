#include "spice/tran.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "util/cancel.hpp"
#include "util/error.hpp"
#include "util/log.hpp"

namespace sna::spice {

bool TranResult::has(const std::string& node) const {
    return waves_.find(node) != waves_.end();
}

const wave::Waveform& TranResult::waveform(const std::string& node) const {
    const auto it = waves_.find(node);
    SNA_REQUIRE(it != waves_.end(), "no waveform recorded for node '" + node +
                                        "'");
    return it->second;
}

namespace {

// Breakpoints: every PWL corner of every independent source in (0, tstop).
std::vector<double> collectBreakpoints(const Circuit& circuit, double tstop) {
    std::vector<double> bps;
    for (const auto& dev : circuit.devices()) {
        std::vector<double> devBps;
        if (const auto* vs = dynamic_cast<const VSource*>(dev.get())) {
            devBps = vs->spec().breakpoints();
        } else if (const auto* is = dynamic_cast<const ISource*>(dev.get())) {
            devBps = is->spec().breakpoints();
        }
        for (double t : devBps) {
            if (t > 1e-21 && t < tstop) bps.push_back(t);
        }
    }
    bps.push_back(tstop);
    std::sort(bps.begin(), bps.end());
    // Merge breakpoints closer than a femtosecond.
    std::vector<double> merged;
    for (double t : bps) {
        if (merged.empty() || t - merged.back() > 1e-15) merged.push_back(t);
    }
    return merged;
}

}  // namespace

TransientEngine::TransientEngine(const Circuit& circuit) : map_(circuit) {}

TranResult TransientEngine::run(const TranOptions& options) {
    SNA_REQUIRE(options.tstop > 0.0, "transient needs a positive tstop");
    const Circuit& circuit = map_.circuit();
    const double tstop = options.tstop;
    const double dtInit =
        (options.dtInit > 0.0) ? options.dtInit : tstop / 5000.0;
    const double dtMax = (options.dtMax > 0.0) ? options.dtMax : tstop / 50.0;
    const double dtMin = options.dtMin;

    // --- recorded nodes ----------------------------------------------------
    std::vector<NodeId> probed;
    if (options.probes.empty()) {
        for (NodeId id = 1; id < static_cast<NodeId>(circuit.nodeCount());
             ++id) {
            probed.push_back(id);
        }
    } else {
        for (const std::string& name : options.probes) {
            const auto id = circuit.findNode(name);
            SNA_REQUIRE(id.has_value() && *id != kGround,
                        "transient probe '" + name +
                            "' is not a non-ground node of the circuit");
            if (std::find(probed.begin(), probed.end(), *id) == probed.end()) {
                probed.push_back(*id);
            }
        }
    }
    SNA_REQUIRE(!options.stopWhen || !options.probes.empty(),
                "a transient stop predicate needs a named first probe");

    // --- initial condition -------------------------------------------------
    // A reused engine starts exactly where a fresh map would.
    map_.reset();
    const std::size_t n = map_.unknowns();
    x_.assign(n, 0.0);
    robustDcSolve(map_, x_, options.dc);
    map_.setGmin(1e-12);
    map_.updateFixed(0.0, 1.0);
    map_.commitFixed();

    statePrev_.assign(map_.stateSlots(), 0.0);
    stateNext_.assign(map_.stateSlots(), 0.0);
    {
        EvalContext ctx(map_, x_, nullptr, 0.0, 0.0,
                        Integration::BackwardEuler, /*transient=*/false, 1.0,
                        &statePrev_, &stateNext_);
        for (const auto& dev : circuit.devices()) {
            if (dev->stateCount() > 0) dev->updateState(ctx);
        }
        statePrev_ = stateNext_;
    }

    // --- recording ---------------------------------------------------------
    std::vector<std::vector<wave::Sample>> record(probed.size());
    // Records one sample per probe; returns whether stopWhen fired on it.
    auto recordProbes = [&](double t) {
        for (std::size_t k = 0; k < probed.size(); ++k) {
            record[k].push_back({t, map_.voltage(probed[k], x_)});
        }
        return options.stopWhen &&
               options.stopWhen(t, record.front().back().v);
    };
    bool stopped = recordProbes(0.0);

    // --- main loop ----------------------------------------------------------
    const std::vector<double> breakpoints = collectBreakpoints(circuit, tstop);
    std::size_t nextBp = 0;

    double t = 0.0;
    double dt = dtInit;
    double dtPrevAccepted = 0.0;
    // Per-step vectors, sized once: assignments between them below never
    // allocate. xOlder_ is the solution one accepted point earlier.
    xPred_.assign(n, 0.0);
    xNew_.assign(n, 0.0);
    xOlder_.assign(n, 0.0);
    bool haveHistory = false;    // xOlder_ valid (for the predictor)
    bool forceBe = true;         // BE on the first step and after breakpoints

    TranStats stats;
    while (!stopped && t < tstop - 1e-18) {
        // Cooperative cancellation: one thread-local read per accepted or
        // rejected step when no deadline is armed. Unwinds with
        // CancelledError so a deadline can interrupt a solve mid-transient
        // instead of waiting out the full timestep budget.
        util::pollCancellation();
        if (stats.accepted + stats.rejected > options.maxSteps) {
            throw ConvergenceError("transient exceeded the step budget");
        }
        // Land exactly on the next breakpoint.
        while (nextBp < breakpoints.size() && breakpoints[nextBp] <= t + 1e-18) {
            ++nextBp;
        }
        bool hitsBp = false;
        if (nextBp < breakpoints.size() && t + dt >= breakpoints[nextBp] - 1e-15) {
            dt = breakpoints[nextBp] - t;
            hitsBp = true;
        }
        const Integration method =
            forceBe ? Integration::BackwardEuler : Integration::Trapezoidal;

        // Predictor as the Newton initial guess (and the LTE reference).
        const bool canPredict = haveHistory && dtPrevAccepted > 0.0;
        if (canPredict) {
            const double a = dt / dtPrevAccepted;
            for (std::size_t i = 0; i < n; ++i) {
                xPred_[i] = x_[i] + a * (x_[i] - xOlder_[i]);
            }
            xNew_ = xPred_;
        } else {
            xNew_ = x_;
        }

        bool converged = false;
        try {
            const NewtonStats ns =
                solveNewton(map_, xNew_, t + dt, dt, method,
                            /*transient=*/true, 1.0, &x_, &statePrev_,
                            options.newton);
            stats.newtonIterations += ns.iterations;
            converged = ns.converged;
        } catch (const ConvergenceError&) {
            converged = false;
        }

        if (!converged) {
            ++stats.rejected;
            dt *= 0.25;
            if (dt < dtMin) {
                throw ConvergenceError("transient Newton failed at t = " +
                                       std::to_string(t));
            }
            continue;
        }

        // LTE control: compare the corrector against the linear predictor.
        if (canPredict && method == Integration::Trapezoidal) {
            double eps = 0.0;
            for (std::size_t i = 0; i < n; ++i) {
                const double scale =
                    options.reltol *
                        std::max(std::abs(xNew_[i]), std::abs(x_[i])) +
                    options.abstol;
                eps = std::max(eps, std::abs(xNew_[i] - xPred_[i]) / scale);
            }
            if (eps > 1.0 && dt > dtMin * 4.0 && !hitsBp) {
                ++stats.rejected;
                dt *= std::max(0.2, 0.9 * std::pow(eps, -1.0 / 3.0));
                continue;
            }
            // Accepted: grow the step for next time.
            const double grow =
                (eps > 0.0) ? 0.9 * std::pow(eps, -1.0 / 3.0) : 2.0;
            dtPrevAccepted = dt;
            dt = std::clamp(dt * std::clamp(grow, 0.3, 2.0), dtMin, dtMax);
        } else {
            dtPrevAccepted = dt;
            dt = std::clamp(dt * 2.0, dtMin, dtMax);
        }

        // Commit the step.
        {
            EvalContext ctx(map_, xNew_, &x_, t + dtPrevAccepted,
                            dtPrevAccepted, method, /*transient=*/true, 1.0,
                            &statePrev_, &stateNext_);
            for (const auto& dev : circuit.devices()) {
                if (dev->stateCount() > 0) dev->updateState(ctx);
            }
            statePrev_ = stateNext_;
        }
        map_.commitFixed();
        // Rotate: xOlder_ <- x_, x_ <- xNew_ (xNew_ is rewritten next step).
        xOlder_.swap(x_);
        x_.swap(xNew_);
        haveHistory = true;
        t += dtPrevAccepted;
        ++stats.accepted;
        stopped = recordProbes(t);

        if (hitsBp) {
            // Slope discontinuity: restart integration gently.
            forceBe = true;
            haveHistory = false;
            dt = std::min(dt, dtInit);
        } else {
            forceBe = false;
        }
    }

    // --- package ------------------------------------------------------------
    TranResult result;
    result.stats_ = stats;
    result.stopped_ = stopped;
    for (std::size_t k = 0; k < probed.size(); ++k) {
        result.waves_.emplace(circuit.nodeName(probed[k]),
                              wave::Waveform(std::move(record[k])));
    }
    log::debug() << "transient: " << stats.accepted << " steps, "
                 << stats.rejected << " rejected, " << stats.newtonIterations
                 << " newton iterations";
    return result;
}

TranResult simulateTransient(const Circuit& circuit,
                             const TranOptions& options) {
    return TransientEngine(circuit).run(options);
}

}  // namespace sna::spice
