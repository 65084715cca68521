// Seeded inputs for the benchmark workloads.
//
// The design generator builds a levelized mixed-cell block from the bundled
// library cells only (INV / BUF / NAND2 / NAND3 / NOR2 / NOR3 / AOI21 /
// OAI21 at their drives) and renders it as the three texts a sign-off run
// reads: structural Verilog, SPEF parasitics and SDC input delays. Every
// net of one level loads at least one cell of the next, further inputs
// reach back up to three levels (fanout > 1 and reconvergence), and a
// seeded subset of each level's nets is routed in parallel bundles of 2-4
// wires that couple pairwise, so victims see 1-3 aggressors; the other nets
// stay quiet and carry propagated noise only.
//
// Cell kinds, bundle sizes and ECO targets are drawn by quota and then
// shuffled by the seed, not drawn independently: two seeds give different
// blocks with the same mix, which keeps per-victim cost and cache reuse
// comparable from seed to seed.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/cluster.hpp"

namespace snabench {

/// splitmix64: a small portable generator, so the same seed gives the same
/// inputs with any standard library.
class Rng {
public:
    explicit Rng(std::uint64_t seed) : state_(seed) {}
    std::uint64_t next();
    double uniform(double lo, double hi);
    /// Uniform integer in [0, n).
    std::size_t below(std::size_t n);
    template <typename T>
    void shuffle(std::vector<T>& v) {
        for (std::size_t i = v.size(); i > 1; --i) {
            std::swap(v[i - 1], v[below(i)]);
        }
    }

private:
    std::uint64_t state_;
};

/// Independent stream for one use of one seed.
std::uint64_t streamSeed(std::uint64_t seed, const std::string& stream);

struct DesignShape {
    int levels = 5;
    int width = 12;  ///< cells per level (and primary inputs)
};

struct GenInstance {
    std::string name;
    std::string cell;
    std::map<std::string, std::string> pins;  ///< pin -> net
};

struct GenNet {
    std::string name;
    int level = 0;
    int driver = -1;                                 ///< instance index
    std::vector<std::pair<int, std::string>> loads;  ///< (instance, pin)
    double groundFf = 0.0;  ///< wire cap at the mid node
    double resOhm = 0.0;    ///< per branch of the star
};

struct GenCoupling {
    int a = 0;  ///< net index; the cap is listed in a's section
    int b = 0;
    double ff = 0.0;
};

struct GeneratedDesign {
    std::string name;
    std::vector<std::string> inputs;
    std::vector<std::string> outputs;
    std::vector<std::pair<double, double>> inputWindowsNs;  ///< per input
    std::vector<GenInstance> instances;
    std::vector<GenNet> nets;  ///< every instance-driven net with loads
    std::vector<GenCoupling> couplings;

    std::string verilog() const;
    std::string spef() const;
    std::string sdc() const;
    /// Nets with coupling caps: the victim set analyzeDesign must cover.
    std::vector<std::string> victims() const;
    /// Instances whose cell has another pin-compatible drive.
    std::vector<int> resizableInstances() const;
};

/// `netlistSeed` draws the cells, the wiring and the coupled bundles;
/// `valueSeed` draws the parasitic values and the SDC input windows.
GeneratedDesign generateDesign(std::uint64_t netlistSeed,
                               std::uint64_t valueSeed,
                               const DesignShape& shape);

/// The other drive strength of a resizable cell (INV_X1 -> INV_X2 -> INV_X4
/// -> INV_X1, NAND2_X1 <-> NAND2_X2, NOR2_X1 <-> NOR2_X2); "" otherwise.
std::string nextDrive(const std::string& cell);

/// The cluster_golden set: a full grid over technology x victim cell x
/// aggressor count (1-3) x propagated glitch (off / on), 72 clusters. Each
/// victim cell gets three short and three long wires; the continuous
/// values, the wire-length bins, the aggressor and receiver cells and the
/// order are drawn from the seed.
std::vector<sna::core::ClusterSpec> generateClusters(std::uint64_t seed);

}  // namespace snabench
