// Characterization oracles: NRC, Thevenin and propagation as they ran
// before the shared cell bench, each probe on a freshly built circuit and
// every transient run to its full tstop. The production characterizations
// reuse one bench and stop NRC and Thevenin transients once the answer is
// decided; they must match these bitwise. The Thevenin oracle shares the
// crossing-time fit (charlib::fitThevenin) with production but feeds it
// the fixed 100-step ramp-RC crossing bisection, which production leaves
// at its fixed point. Test-only (sna_testsupport).
#pragma once

#include "charlib/characterize.hpp"

namespace sna::testsupport {

la::Grid1d referenceNrc(const charlib::NrcSpec& spec);
/// charlib::rampRcCrossing with all 100 bisection steps always taken.
double referenceRampRcCrossing(double frac, double tau, double rc);
charlib::TheveninModel referenceThevenin(const charlib::TheveninSpec& spec);
charlib::PropagationTable referencePropagation(
    const charlib::PropagationSpec& spec);

}  // namespace sna::testsupport
