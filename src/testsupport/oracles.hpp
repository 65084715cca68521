// Validation oracles: slow, obviously-correct reimplementations that the
// bit-identity tests and the design-scale bench compare the engine against.
// Built as the separate `sna_testsupport` library, linked only into tests
// and benches — never part of the shipped `sna_core`.
#pragma once

#include <vector>

#include "core/alignment.hpp"
#include "core/sna.hpp"

namespace sna::core {

/// The pre-index brute-force sweep (linear instance scans per query, all-net
/// cap scans per aggressor, full re-characterization per cluster, serial).
/// Kept as the validation and benchmarking baseline: its reports must match
/// analyzeDesign exactly with `opt.propagate == false`. `opt.threads`,
/// `opt.cache`, and `opt.propagate` are ignored.
std::vector<NetNoiseReport> analyzeDesignReference(
    const Design& design, const parser::SpefFile& spef,
    const DesignNoiseOptions& opt = {});

/// Exhaustive grid over the alignment search's window (validation / small
/// cases only: cost is pointsPerAxis^(aggressors + 1) transients), centred
/// on peakAlignedInit.
AlignmentResult bruteForceWorstAlignment(const ClusterMacromodel& model,
                                         double window, int pointsPerAxis);

}  // namespace sna::core
