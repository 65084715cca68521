#include "charlib/cell_bench.hpp"

#include "util/error.hpp"

namespace sna::charlib {

CellBench::CellBench(const cell::Cell& cell, const std::string& input,
                     const std::map<std::string, bool>& vector, Output output,
                     double value)
    : vdd_(cell.technology().vdd) {
    const auto vddNode = circuit_.node("vdd");
    circuit_.addVSource("vsupply", vddNode, spice::kGround,
                        spice::SourceSpec::dc(vdd_));
    std::map<std::string, spice::NodeId> pins;
    for (const auto& in : cell.inputNames()) {
        const auto n = circuit_.node(in);
        pins[in] = n;
        auto& src = circuit_.addVSource(
            "v_" + in, n, spice::kGround,
            spice::SourceSpec::dc(vector.at(in) ? vdd_ : 0.0));
        if (in == input) input_ = &src;
    }
    SNA_REQUIRE(input_ != nullptr, "cell '" + cell.name() +
                                       "' has no input '" + input + "'");
    const auto outNode = circuit_.node("out");
    pins[cell.outputName()] = outNode;
    if (output == Output::kClamp) {
        clamp_ = &circuit_.addVSource("v_out", outNode, spice::kGround,
                                      spice::SourceSpec::dc(value));
    } else {
        circuit_.addCapacitor("cload", outNode, spice::kGround, value);
    }
    cell.instantiate(circuit_, "dut", pins, vddNode);
}

spice::VSource& CellBench::clamp() {
    SNA_REQUIRE(clamp_ != nullptr, "bench has an output load, not a clamp");
    return *clamp_;
}

spice::TranResult CellBench::transient(
    double tstop, std::function<bool(double t, double v)> stopWhen) {
    if (!engine_) engine_ = std::make_unique<spice::TransientEngine>(circuit_);
    spice::TranOptions opt;
    opt.tstop = tstop;
    opt.probes = {"out"};
    opt.stopWhen = std::move(stopWhen);
    return engine_->run(opt);
}

}  // namespace sna::charlib
