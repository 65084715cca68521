#include "charlib/cell_bench.hpp"
#include "util/error.hpp"
#include "waveform/metrics.hpp"
#include "waveform/sources.hpp"

namespace sna::charlib {

std::vector<double> canonicalPropagationHeights(double vdd) {
    return {0.1 * vdd, 0.25 * vdd, 0.4 * vdd, 0.55 * vdd,
            0.7 * vdd, 0.85 * vdd, 1.0 * vdd};
}

std::vector<double> canonicalPropagationWidths() {
    return {60e-12, 120e-12, 240e-12, 480e-12, 960e-12};
}

PropagationTable characterizePropagation(const PropagationSpec& spec) {
    SNA_REQUIRE(spec.cell != nullptr, "propagation spec needs a cell");
    SNA_REQUIRE(spec.heights.size() >= 2 && spec.widths.size() >= 2,
                "propagation table needs >= 2x2 grid");
    const cell::Cell& cellRef = *spec.cell;
    const auto holding = cellRef.holdingVector(spec.outputLevel, spec.input);
    CellBench bench(cellRef, spec.input, holding,
                    CellBench::Output::kLoad, spec.loadCap);
    const double vdd = bench.vdd();
    const double inBaseline = holding.at(spec.input) ? vdd : 0.0;
    const double outBaseline = spec.outputLevel ? vdd : 0.0;
    // Glitch direction: toward the opposite input rail.
    const double dir = (inBaseline < 0.5 * vdd) ? +1.0 : -1.0;

    // Every (height, width) re-arms the input glitch and runs to the end:
    // the area needs the whole output waveform.
    std::vector<double> zPeak, zArea;
    zPeak.reserve(spec.heights.size() * spec.widths.size());
    zArea.reserve(zPeak.capacity());
    for (const double h : spec.heights) {
        for (const double w : spec.widths) {
            const double t0 = 50e-12;
            const double tStop = t0 + w + std::max(2e-9, 6 * w);
            bench.input().setSpec(spice::SourceSpec::pwl(
                wave::triangleGlitch(inBaseline, dir * h, t0, w, tStop)));
            const auto m = wave::measureGlitch(
                bench.transient(tStop).waveform("out"), outBaseline);
            zPeak.push_back(m.peak);
            zArea.push_back(m.area);
        }
    }
    PropagationTable table;
    table.peak = la::Grid2d(spec.heights, spec.widths, std::move(zPeak));
    table.area = la::Grid2d(spec.heights, spec.widths, std::move(zArea));
    table.outputBaseline = outBaseline;
    return table;
}

}  // namespace sna::charlib
