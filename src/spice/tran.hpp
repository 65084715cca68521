// Adaptive transient analysis.
//
// Trapezoidal integration with backward-Euler restarts at waveform
// breakpoints (source slope discontinuities), local-truncation-error step
// control via a linear predictor, and the robust DC ladder for the initial
// condition. This engine plays the role of ELDO™ in the paper's experiments:
// the golden transistor-level reference every macromodel is judged against.
#pragma once

#include <functional>
#include <string>
#include <unordered_map>
#include <vector>

#include "spice/dc.hpp"
#include "waveform/waveform.hpp"

namespace sna::spice {

struct TranOptions {
    double tstop = 0.0;      ///< required, seconds
    double dtInit = 0.0;     ///< 0 -> tstop / 5000 (also the post-breakpoint dt)
    double dtMin = 1e-18;
    double dtMax = 0.0;      ///< 0 -> tstop / 50
    double reltol = 2e-3;    ///< LTE relative tolerance
    double abstol = 2e-5;    ///< LTE absolute floor, volts
    std::size_t maxSteps = 2'000'000;
    NewtonOptions newton;
    DcOptions dc;
    /// Nodes to record, by name; empty records every node. Callers name the
    /// nodes they read so a run stores only those waveforms. A name that is
    /// not a non-ground node of the circuit throws LogicError.
    std::vector<std::string> probes;
    /// Early stop, off when empty: called with (t, v) on every recorded
    /// sample of probes[0] (which must be named), the DC point at t = 0
    /// included; the run ends after the first sample for which it returns
    /// true. Step control, breakpoints and tstop are unchanged, so the
    /// recorded waveforms are a bitwise prefix of the full run's.
    std::function<bool(double t, double v)> stopWhen;
};

struct TranStats {
    std::size_t accepted = 0;
    std::size_t rejected = 0;
    long newtonIterations = 0;
};

class TranResult {
public:
    bool has(const std::string& node) const;
    const wave::Waveform& waveform(const std::string& node) const;
    const TranStats& stats() const { return stats_; }
    /// Whether TranOptions::stopWhen returned true, ending the run at that
    /// sample (which may be the one at tstop).
    bool stopped() const { return stopped_; }

private:
    friend class TransientEngine;
    std::unordered_map<std::string, wave::Waveform> waves_;
    TranStats stats_;
    bool stopped_ = false;
};

/// The transient loop over one circuit, keeping its MNA map and per-step
/// vectors across runs. A caller that only re-arms source specs between
/// runs (the alignment search's probes) reuses one engine; every run starts
/// from the reset state of a fresh map, so it is bitwise the result of
/// simulateTransient on the same circuit. The circuit must outlive the
/// engine and keep its devices. Not thread-safe: one engine per thread.
class TransientEngine {
public:
    explicit TransientEngine(const Circuit& circuit);

    TranResult run(const TranOptions& options);

private:
    MnaMap map_;
    la::Vector x_, xPred_, xNew_, xOlder_;
    std::vector<double> statePrev_, stateNext_;
};

/// Run a transient from a DC initial condition to options.tstop, recording
/// the probed node voltages (every node by default) as piecewise-linear
/// waveforms.
TranResult simulateTransient(const Circuit& circuit,
                             const TranOptions& options);

}  // namespace sna::spice
