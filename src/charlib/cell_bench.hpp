// The bench every cell characterization runs on (internal to charlib and
// its test oracles): one instance of the cell, the supply, the side inputs
// held at a logic vector, a re-armable source on the sensitive input, and a
// load capacitor or a voltage clamp on the output.
//
// A characterization builds its bench once and re-arms the input (or
// clamp) source spec per probe. Transients run on one reused
// spice::TransientEngine, whose every run starts from the reset state of a
// fresh map, so each probe is bitwise the run of a freshly built circuit.
// Not thread-safe: one bench per characterization call.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <string>

#include "celllib/cell.hpp"
#include "charlib/characterize.hpp"
#include "spice/tran.hpp"

namespace sna::charlib {

class CellBench {
public:
    /// Output termination: a grounded load capacitor "cload" of `value`
    /// farads, or a grounded DC clamp source "v_out" at `value` volts.
    enum class Output { kLoad, kClamp };

    /// Every input pin is driven by a grounded DC source "v_<pin>" at its
    /// level in `vector` (true = vdd), in declaration order; the output
    /// node is "out".
    CellBench(const cell::Cell& cell, const std::string& input,
              const std::map<std::string, bool>& vector, Output output,
              double value);
    CellBench(const CellBench&) = delete;
    CellBench& operator=(const CellBench&) = delete;

    const spice::Circuit& circuit() const { return circuit_; }
    double vdd() const { return vdd_; }
    /// Source on the sensitive input pin; re-arm its spec between runs.
    spice::VSource& input() { return *input_; }
    /// The output clamp (kClamp benches only).
    spice::VSource& clamp();

    /// Transient to `tstop` recording only "out", ending early at the first
    /// sample for which `stopWhen` (if given) returns true.
    spice::TranResult transient(
        double tstop, std::function<bool(double t, double v)> stopWhen = {});

private:
    spice::Circuit circuit_;
    double vdd_;
    spice::VSource* input_ = nullptr;
    spice::VSource* clamp_ = nullptr;
    std::unique_ptr<spice::TransientEngine> engine_;  // built on first run
};

/// When the Thevenin bench's input ramp starts, s.
inline constexpr double kTheveninInputStart = 50e-12;

/// The tail of characterizeThevenin: fit the saturated-ramp model to the
/// first 2%, 20% and 80% output crossings at t >= kTheveninInputStart of
/// the recorded ramp response `out`, given the DC effective resistance.
TheveninModel fitThevenin(const TheveninSpec& spec, const wave::Waveform& out,
                          double rth);

}  // namespace sna::charlib
