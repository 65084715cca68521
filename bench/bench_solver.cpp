// Solver microbenches: the layers under every noise-cluster solve.
//
// google-benchmark timings, smallest unit first:
//  * MNA assemble + in-place LU of one Newton iteration, on an RC/inverter
//    circuit of macromodel size (~10 unknowns) and larger;
//  * one macromodel transient on a freshly built Fig. 1 circuit
//    (ClusterMacromodel::analyzeAt);
//  * one alignment probe: the same transient on the search's reused engine
//    (MacromodelEngine::run), i.e. the marginal cost of a probe;
//  * one full worst-alignment search (findWorstAlignment);
//  * one characterization of each kind the design flow caches: NRC of the
//    receiver cell (bisected transients), Thevenin fit of an aggressor
//    driver (one ramp transient + one DC clamp), propagation table on the
//    canonical grid (one transient per entry) and load curve (DC sweep).
//
//   ./build/bench_solver [--benchmark_filter=REGEX]
#include <benchmark/benchmark.h>

#include "bench_common.hpp"
#include "celllib/library.hpp"
#include "charlib/characterize.hpp"
#include "spice/mna.hpp"
#include "waveform/sources.hpp"

namespace {

using namespace bench;

spice::MosModel mos(spice::MosType type, double vt0, double kp) {
    spice::MosModel m;
    m.type = type;
    m.vt0 = vt0;
    m.kp = kp;
    return m;
}

// Inverter driving an RC ladder with a coupled aggressor ladder: about 2 *
// segments + 1 unknowns, every device kind of a cluster (MOSFET, R, C).
spice::Circuit clusterLikeCircuit(int segments) {
    spice::Circuit c;
    const auto vdd = c.node("vdd");
    const auto in = c.node("in");
    const auto agg = c.node("agg");
    c.addVSource("vsupply", vdd, spice::kGround, spice::SourceSpec::dc(1.2));
    c.addVSource("vin", in, spice::kGround, spice::SourceSpec::dc(0.0));
    c.addVSource("vagg", agg, spice::kGround,
                 spice::SourceSpec::pwl(
                     wave::saturatedRamp(0, 1.2, 1e-10, 5e-11, 2e-9)));
    auto vic = c.node("v0");
    c.addMosfet("mp", vic, in, vdd, vdd,
                mos(spice::MosType::Pmos, 0.4, 80e-6), 2e-6, 0.13e-6);
    c.addMosfet("mn", vic, in, spice::kGround, spice::kGround,
                mos(spice::MosType::Nmos, 0.4, 200e-6), 1e-6, 0.13e-6);
    auto ag = agg;
    for (int k = 1; k <= segments; ++k) {
        const auto v = c.node("v" + std::to_string(k));
        const auto a = c.node("a" + std::to_string(k));
        c.addResistor("rv" + std::to_string(k), vic, v, 40.0);
        c.addResistor("ra" + std::to_string(k), ag, a, 40.0);
        c.addCapacitor("cv" + std::to_string(k), v, spice::kGround, 4e-15);
        c.addCapacitor("ca" + std::to_string(k), a, spice::kGround, 4e-15);
        c.addCapacitor("cc" + std::to_string(k), v, a, 3e-15);
        vic = v;
        ag = a;
    }
    return c;
}

void BM_MnaAssembleLu(benchmark::State& state) {
    const spice::Circuit c =
        clusterLikeCircuit(static_cast<int>(state.range(0)));
    spice::MnaMap map(c);
    const la::Vector xPrev(map.unknowns(), 0.6);
    const la::Vector x(map.unknowns(), 0.6);
    const std::vector<double> statePrev(map.stateSlots(), 0.0);
    map.updateFixed(2e-10, 1.0);
    const spice::EvalContext ctx(map, x, &xPrev, 2e-10, 1e-12,
                                 spice::Integration::Trapezoidal, true, 1.0,
                                 &statePrev, nullptr);
    for (auto _ : state) {
        benchmark::DoNotOptimize(map.solveLinearized(ctx).data());
    }
    state.counters["unknowns"] = static_cast<double>(map.unknowns());
}

const core::ClusterMacromodel& paperModel() {
    static const core::ClusterMacromodel model(paperCluster(2));
    return model;
}

void BM_MacromodelTransient(benchmark::State& state) {
    const auto& model = paperModel();
    const std::vector<double> aggTimes{0.4e-9, 0.5e-9};
    for (auto _ : state) {
        const auto r = model.analyzeAt(aggTimes, 0.4e-9);
        benchmark::DoNotOptimize(r.metrics.peak);
    }
}

void BM_AlignmentProbe(benchmark::State& state) {
    const auto& model = paperModel();
    core::MacromodelEngine engine(model);
    const std::vector<double> aggTimes{0.4e-9, 0.5e-9};
    for (auto _ : state) {
        const auto r = engine.run(aggTimes, 0.4e-9);
        benchmark::DoNotOptimize(r.metrics.peak);
    }
}

void BM_FindWorstAlignment(benchmark::State& state) {
    const auto& model = paperModel();
    int probes = 0;
    for (auto _ : state) {
        const auto r = core::findWorstAlignment(model);
        probes = r.evaluations;
        benchmark::DoNotOptimize(r.worst.metrics.peak);
    }
    state.counters["probes"] = probes;
}

void BM_NrcCharacterization(benchmark::State& state) {
    const cell::CellLibrary& lib = cell::sharedLibrary(tech::tech130());
    charlib::NrcSpec spec;
    spec.cell = &lib.cell("INV_X2");
    spec.input = spec.cell->inputNames().front();
    spec.widths = {50e-12, 100e-12, 200e-12, 400e-12};
    for (auto _ : state) {
        const auto curve = charlib::characterizeNrc(spec);
        benchmark::DoNotOptimize(curve(100e-12));
    }
}

void BM_TheveninCharacterization(benchmark::State& state) {
    const cell::CellLibrary& lib = cell::sharedLibrary(tech::tech130());
    charlib::TheveninSpec spec;
    spec.cell = &lib.cell("INV_X2");
    spec.input = spec.cell->inputNames().front();
    spec.outputRising = true;
    for (auto _ : state) {
        const auto model = charlib::characterizeThevenin(spec);
        benchmark::DoNotOptimize(model.slew);
    }
}

void BM_PropagationCharacterization(benchmark::State& state) {
    const cell::CellLibrary& lib = cell::sharedLibrary(tech::tech130());
    charlib::PropagationSpec spec;
    spec.cell = &lib.cell("NAND2_X1");
    spec.input = spec.cell->inputNames().front();
    spec.heights = charlib::canonicalPropagationHeights(
        spec.cell->technology().vdd);
    spec.widths = charlib::canonicalPropagationWidths();
    for (auto _ : state) {
        const auto table = charlib::characterizePropagation(spec);
        benchmark::DoNotOptimize(table.peak(0.5, 200e-12));
    }
}

void BM_LoadCurveCharacterization(benchmark::State& state) {
    const cell::CellLibrary& lib = cell::sharedLibrary(tech::tech130());
    charlib::LoadCurveSpec spec;
    spec.cell = &lib.cell("NAND2_X1");
    spec.input = spec.cell->inputNames().front();
    for (auto _ : state) {
        const auto table = charlib::characterizeLoadCurve(spec);
        benchmark::DoNotOptimize(table(0.6, 0.3));
    }
}

}  // namespace

BENCHMARK(BM_MnaAssembleLu)->Arg(4)->Arg(16)->Arg(64);
BENCHMARK(BM_MacromodelTransient)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_AlignmentProbe)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_FindWorstAlignment)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_NrcCharacterization)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_TheveninCharacterization)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_PropagationCharacterization)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_LoadCurveCharacterization)->Unit(benchmark::kMillisecond);

BENCHMARK_MAIN();
