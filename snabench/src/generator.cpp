#include "generator.hpp"

#include <algorithm>
#include <cstdio>
#include <set>
#include <sstream>

#include "tech/tech.hpp"

namespace snabench {

std::uint64_t Rng::next() {
    state_ += 0x9e3779b97f4a7c15ULL;
    std::uint64_t z = state_;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

double Rng::uniform(double lo, double hi) {
    return lo + (hi - lo) * static_cast<double>(next() >> 11) * 0x1.0p-53;
}

std::size_t Rng::below(std::size_t n) {
    return static_cast<std::size_t>(next() % n);
}

std::uint64_t streamSeed(std::uint64_t seed, const std::string& stream) {
    std::uint64_t h = 1469598103934665603ULL;  // FNV-1a over the stream name
    for (const char c : stream) {
        h = (h ^ static_cast<unsigned char>(c)) * 1099511628211ULL;
    }
    Rng mix(seed ^ h);
    return mix.next();
}

namespace {

struct CellKind {
    const char* name;
    int inputs;
};

// Every bundled cell, each drive once: the per-level quota.
const CellKind kKinds[] = {
    {"INV_X1", 1},   {"INV_X2", 1},   {"INV_X4", 1},   {"BUF_X2", 1},
    {"NAND2_X1", 2}, {"NAND2_X2", 2}, {"NAND3_X1", 3}, {"NOR2_X1", 2},
    {"NOR2_X2", 2},  {"NOR3_X1", 3},  {"AOI21_X1", 3}, {"OAI21_X1", 3},
};
constexpr int kKindCount = sizeof(kKinds) / sizeof(kKinds[0]);
const char* const kPins[] = {"a", "b", "c"};

/// Bundle sizes 2, 3, 4 in turn covering `n` nets; a leftover single net
/// joins the first bundle.
std::vector<int> bundleSizes(std::size_t n) {
    std::vector<int> sizes;
    std::size_t left = n;
    for (int k = 0; left >= 2; ++k) {
        const int size = static_cast<int>(std::min<std::size_t>(2 + k % 3, left));
        sizes.push_back(size);
        left -= size;
    }
    if (left == 1 && !sizes.empty()) sizes.front() += 1;
    return sizes;
}

std::string fmt(double v) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.4g", v);
    return buf;
}

}  // namespace

std::string nextDrive(const std::string& cell) {
    static const std::map<std::string, std::string> next = {
        {"INV_X1", "INV_X2"},     {"INV_X2", "INV_X4"},
        {"INV_X4", "INV_X1"},     {"NAND2_X1", "NAND2_X2"},
        {"NAND2_X2", "NAND2_X1"}, {"NOR2_X1", "NOR2_X2"},
        {"NOR2_X2", "NOR2_X1"},
    };
    const auto it = next.find(cell);
    return it == next.end() ? std::string() : it->second;
}

GeneratedDesign generateDesign(std::uint64_t netlistSeed,
                               std::uint64_t valueSeed,
                               const DesignShape& shape) {
    Rng rng(netlistSeed);
    Rng values(valueSeed);
    GeneratedDesign d;
    d.name = "blk_" + std::to_string(netlistSeed % 100000);
    const int w = shape.width;

    // Level 0 holds the primary inputs; netsAt[l] are the nets of level l.
    std::vector<std::vector<std::string>> netsAt(shape.levels + 1);
    for (int i = 0; i < w; ++i) {
        const std::string pi = "pi" + std::to_string(i);
        d.inputs.push_back(pi);
        netsAt[0].push_back(pi);
        const double lo = values.uniform(0.0, 0.3);
        d.inputWindowsNs.emplace_back(lo, lo + values.uniform(0.05, 0.4));
    }

    std::map<std::string, int> netIndex;
    for (int level = 1; level <= shape.levels; ++level) {
        std::vector<int> kinds;
        for (int i = 0; i < w; ++i) {
            kinds.push_back((i + 5 * level) % kKindCount);
        }
        rng.shuffle(kinds);
        const int first = static_cast<int>(d.instances.size());
        std::vector<std::pair<int, int>> slots;  // (instance, input index)
        for (int i = 0; i < w; ++i) {
            GenInstance inst;
            inst.name = "u" + std::to_string(level) + "_" + std::to_string(i);
            inst.cell = kKinds[kinds[i]].name;
            const std::string out =
                "n" + std::to_string(level) + "_" + std::to_string(i);
            inst.pins["y"] = out;
            netsAt[level].push_back(out);
            for (int p = 0; p < kKinds[kinds[i]].inputs; ++p) {
                slots.emplace_back(first + i, p);
            }
            d.instances.push_back(std::move(inst));
        }
        rng.shuffle(slots);
        // The first slots take every net of the previous level once, so no
        // net is left without a load; the rest reach back up to 3 levels.
        const auto& prev = netsAt[level - 1];
        for (std::size_t s = 0; s < slots.size(); ++s) {
            auto& inst = d.instances[slots[s].first];
            const std::string pin = kPins[slots[s].second];
            std::string net;
            for (int attempt = 0; attempt < 16; ++attempt) {
                if (s < prev.size() && attempt == 0) {
                    net = prev[s];
                } else {
                    const int back =
                        rng.uniform(0, 1) < 0.5
                            ? 1
                            : 1 + static_cast<int>(rng.below(
                                      std::min(3, level)));
                    const auto& pool = netsAt[level - back];
                    net = pool[rng.below(pool.size())];
                }
                bool used = false;
                for (const auto& [p, n] : inst.pins) used |= (n == net);
                if (!used) break;
            }
            inst.pins[pin] = net;
        }
    }
    // Receivers terminate the last level into primary outputs.
    for (int i = 0; i < w; ++i) {
        GenInstance rx;
        rx.name = "rx" + std::to_string(i);
        rx.cell = i % 2 == 0 ? "INV_X1" : "INV_X2";
        rx.pins["a"] = netsAt[shape.levels][i];
        rx.pins["y"] = "po" + std::to_string(i);
        d.outputs.push_back(rx.pins["y"]);
        d.instances.push_back(std::move(rx));
    }

    // Nets: every instance output with at least one load.
    for (int level = 1; level <= shape.levels; ++level) {
        for (const auto& name : netsAt[level]) {
            GenNet net;
            net.name = name;
            net.level = level;
            netIndex[name] = static_cast<int>(d.nets.size());
            d.nets.push_back(std::move(net));
        }
    }
    for (int i = 0; i < static_cast<int>(d.instances.size()); ++i) {
        for (const auto& [pin, net] : d.instances[i].pins) {
            const auto it = netIndex.find(net);
            if (it == netIndex.end()) continue;
            auto& n = d.nets[it->second];
            if (pin == "y") {
                n.driver = i;
            } else {
                n.loads.emplace_back(i, pin);
            }
        }
    }
    for (auto& n : d.nets) {
        n.groundFf = 2.0 + values.uniform(1.0, 4.0);
        n.resOhm = values.uniform(30.0, 80.0);
    }

    // Per level, one seeded net stays uncoupled; the rest are
    // routed in parallel bundles whose sizes depend only on the count, so
    // every seed has the same aggressor-count mix.
    for (int level = 1; level <= shape.levels; ++level) {
        std::vector<int> order;
        for (const auto& name : netsAt[level]) order.push_back(netIndex[name]);
        rng.shuffle(order);
        if (!order.empty()) order.pop_back();
        std::size_t at = 0;
        for (const int size : bundleSizes(order.size())) {
            for (int i = 0; i < size; ++i) {
                for (int j = i + 1; j < size; ++j) {
                    d.couplings.push_back(
                        {order[at + i], order[at + j], values.uniform(6.0, 30.0)});
                }
            }
            at += size;
        }
    }
    return d;
}

std::string GeneratedDesign::verilog() const {
    std::ostringstream os;
    os << "module " << name << " (";
    bool first = true;
    for (const auto* list : {&inputs, &outputs}) {
        for (const auto& p : *list) {
            os << (first ? "" : ", ") << p;
            first = false;
        }
    }
    os << ");\n";
    for (const auto& p : inputs) os << "  input " << p << ";\n";
    for (const auto& p : outputs) os << "  output " << p << ";\n";
    for (const auto& n : nets) os << "  wire " << n.name << ";\n";
    for (const auto& inst : instances) {
        os << "  " << inst.cell << " " << inst.name << " (";
        bool firstPin = true;
        for (const auto& [pin, net] : inst.pins) {
            os << (firstPin ? "" : ", ") << "." << pin << "(" << net << ")";
            firstPin = false;
        }
        os << ");\n";
    }
    os << "endmodule\n";
    return os.str();
}

std::string GeneratedDesign::spef() const {
    std::vector<std::vector<const GenCoupling*>> listed(nets.size());
    for (const auto& c : couplings) listed[c.a].push_back(&c);
    std::ostringstream os;
    os << "*SPEF \"IEEE 1481-1998\"\n*DESIGN \"" << name << "\"\n"
       << "*T_UNIT 1 PS\n*C_UNIT 1 FF\n*R_UNIT 1 OHM\n\n";
    for (std::size_t i = 0; i < nets.size(); ++i) {
        const auto& n = nets[i];
        const std::string drv = instances[n.driver].name + ":y";
        double total = 1.5 + n.groundFf + 1.0 * n.loads.size();
        for (const auto* c : listed[i]) total += c->ff;
        os << "*D_NET " << n.name << " " << fmt(total) << "\n*CONN\n*I "
           << drv << " O\n";
        for (const auto& [inst, pin] : n.loads) {
            os << "*I " << instances[inst].name << ":" << pin << " I\n";
        }
        os << "*CAP\n";
        int k = 1;
        os << k++ << " " << drv << " 1.5\n";
        os << k++ << " " << n.name << ":1 " << fmt(n.groundFf) << "\n";
        for (const auto& [inst, pin] : n.loads) {
            os << k++ << " " << instances[inst].name << ":" << pin
               << " 1.0\n";
        }
        for (const auto* c : listed[i]) {
            os << k++ << " " << n.name << ":1 " << nets[c->b].name << ":1 "
               << fmt(c->ff) << "\n";
        }
        os << "*RES\n";
        k = 1;
        os << k++ << " " << drv << " " << n.name << ":1 " << fmt(n.resOhm)
           << "\n";
        for (const auto& [inst, pin] : n.loads) {
            os << k++ << " " << n.name << ":1 " << instances[inst].name
               << ":" << pin << " " << fmt(n.resOhm) << "\n";
        }
        os << "*END\n\n";
    }
    return os.str();
}

std::string GeneratedDesign::sdc() const {
    std::ostringstream os;
    os << "set_units -time ns\ncreate_clock -period 2.5 -name clk\n";
    for (std::size_t i = 0; i < inputs.size(); ++i) {
        os << "set_input_delay -clock clk -min " << fmt(inputWindowsNs[i].first)
           << " [get_ports {" << inputs[i] << "}]\n";
        os << "set_input_delay -clock clk -max "
           << fmt(inputWindowsNs[i].second) << " [get_ports {" << inputs[i]
           << "}]\n";
    }
    return os.str();
}

std::vector<std::string> GeneratedDesign::victims() const {
    std::set<std::string> out;
    for (const auto& c : couplings) {
        out.insert(nets[c.a].name);
        out.insert(nets[c.b].name);
    }
    return {out.begin(), out.end()};
}

std::vector<int> GeneratedDesign::resizableInstances() const {
    std::vector<int> out;
    for (int i = 0; i < static_cast<int>(instances.size()); ++i) {
        if (!nextDrive(instances[i].cell).empty() &&
            instances[i].name.rfind("rx", 0) != 0) {
            out.push_back(i);
        }
    }
    return out;
}

std::vector<sna::core::ClusterSpec> generateClusters(std::uint64_t seed) {
    using sna::core::AggressorSpec;
    using sna::core::ClusterSpec;
    Rng rng(seed);
    static const char* const victims[] = {"INV_X1",   "NAND2_X1", "NOR2_X1",
                                          "NAND3_X1", "AOI21_X1", "OAI21_X1"};
    static const char* const aggressorCells[] = {"INV_X1", "INV_X2",
                                                 "BUF_X2"};
    std::vector<ClusterSpec> out;
    for (const auto* t : sna::tech::allTechnologies()) {
        for (const char* victim : victims) {
            // Half of this victim's six (aggressors, glitch) cells get a
            // long wire, the other half a short one.
            std::vector<int> longWire = {0, 0, 0, 1, 1, 1};
            rng.shuffle(longWire);
            int cellIndex = 0;
            for (int aggressors = 1; aggressors <= 3; ++aggressors) {
                for (const bool glitch : {false, true}) {
                    ClusterSpec spec;
                    spec.technology = t;
                    spec.victim.driverCell = victim;
                    spec.victim.glitchInput = "a";
                    spec.victim.outputLevel = false;
                    spec.victim.receiverCell =
                        rng.below(2) == 0 ? "INV_X1" : "INV_X2";
                    spec.victim.glitchHeight =
                        glitch ? rng.uniform(0.5, 0.7) * t->vdd : 0.0;
                    spec.victim.glitchWidth = rng.uniform(150e-12, 300e-12);
                    for (int a = 0; a < aggressors; ++a) {
                        AggressorSpec agg;
                        agg.driverCell = aggressorCells[rng.below(3)];
                        agg.inputSlew = rng.uniform(20e-12, 50e-12);
                        spec.aggressors.push_back(agg);
                    }
                    spec.lengthUm = longWire[cellIndex++] != 0
                                        ? rng.uniform(450.0, 700.0)
                                        : rng.uniform(200.0, 400.0);
                    out.push_back(spec);
                }
            }
        }
    }
    rng.shuffle(out);
    return out;
}

}  // namespace snabench
