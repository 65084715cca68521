// MNA assembly with fixed-node elimination.
//
// MnaMap classifies every circuit node as ground, source-fixed (driven by a
// ground-referenced ideal voltage source — the overwhelmingly common case in
// noise clusters: supplies, inputs, Thevenin sources), or unknown. Fixed
// nodes are eliminated from the system: their time-dependent values are
// refreshed per evaluation and stamps touching them fold into the RHS. The
// remaining unknowns get a gmin to ground so the Jacobian stays regular in
// cutoff. Floating voltage sources / VCVS add branch-current unknowns, which
// forces the dense solver (their rows have zero diagonals).
//
// Each map owns its Newton workspace. Small systems (under 280 unknowns, or
// any system with branch rows: every noise cluster and macromodel) stamp
// straight into one reused n x n matrix that is then LU-factored and solved
// in place, so a Newton iteration allocates nothing. Larger branch-free
// systems stamp into a reused triplet list for the sparse solver. Device
// state and branch offsets are plain indices fixed by the Circuit, so maps
// share no mutable state and each thread can run its own.
#pragma once

#include <vector>

#include "la/sparse.hpp"
#include "spice/circuit.hpp"
#include "spice/stamp.hpp"

namespace sna::spice {

class MnaMap {
public:
    explicit MnaMap(const Circuit& circuit);

    const Circuit& circuit() const { return *circuit_; }

    /// Unknown count (node unknowns + branch currents).
    std::size_t unknowns() const { return unknowns_; }
    std::size_t nodeUnknowns() const { return nodeUnknowns_; }
    bool hasBranches() const { return unknowns_ > nodeUnknowns_; }

    /// Index of a node in the solution vector, or -1 (ground/fixed).
    int indexOf(NodeId n) const { return index_[n]; }
    bool isFixed(NodeId n) const { return fixed_[n]; }

    /// Voltage of node n given solution x and current fixed values.
    double voltage(NodeId n, const la::Vector& x) const;
    /// Voltage of node n at the previous accepted time point.
    double voltagePrev(NodeId n, const la::Vector& xPrev) const;
    /// Known voltage of a ground/fixed node at the current evaluation.
    double knownVoltage(NodeId n) const;

    /// Refresh fixed-node values for time t and source scale; called by the
    /// analyses before every evaluation at t.
    void updateFixed(double time, double srcScale);
    /// Snapshot current fixed values as "previous" (on step acceptance).
    void commitFixed();
    /// Return gmin and the fixed values to the state of a freshly built
    /// map, after the caller re-armed source specs between runs.
    void reset();

    /// Total per-device transient state slots (the circuit's).
    std::size_t stateSlots() const { return circuit_->stateSlots(); }

    double gmin() const { return gmin_; }
    void setGmin(double g) { gmin_ = g; }

    /// Whether Newton solves go through the dense in-place path.
    bool usesDense() const { return useDense_; }

    /// Stamp every device at the given context; adds gmin diagonals.
    void assemble(la::SparseMatrix& j, la::Vector& rhs,
                  const EvalContext& ctx) const;
    /// Same stamps into a dense matrix (zeroed here), summed per entry in
    /// the same order as assemble() + SparseMatrix::toDense().
    void assemble(la::DenseMatrix& j, la::Vector& rhs,
                  const EvalContext& ctx) const;

    /// Assemble the linearized system at `ctx` in the map's workspace and
    /// solve it: returns the next Newton iterate. The reference stays valid
    /// until the next call. Throws ConvergenceError on a singular system.
    const la::Vector& solveLinearized(const EvalContext& ctx);

private:
    const Circuit* circuit_;
    std::vector<int> index_;        // NodeId -> unknown index or -1
    std::vector<char> fixed_;       // NodeId -> source-fixed?
    std::vector<double> fixedValue_;
    std::vector<double> fixedPrev_;
    std::vector<const VSource*> fixedSource_;  // NodeId -> driving source
    std::vector<double> fixedSign_;            // +1 pos grounded-neg, -1 swapped
    std::size_t nodeUnknowns_ = 0;
    std::size_t unknowns_ = 0;
    double gmin_ = 1e-12;
    bool useDense_ = true;

    // Newton workspace, reused by every solveLinearized call.
    la::DenseMatrix dense_;   // dense path: stamped, then factored in place
    la::SparseMatrix sparse_; // sparse path: triplet list
    std::vector<std::size_t> perm_;
    la::Vector rhs_;          // RHS in, next iterate out
    la::Vector work_;
};

/// Newton options shared by DC and transient.
struct NewtonOptions {
    int maxIterations = 200;
    double vtol = 1e-6;      ///< convergence: max voltage update, V
    double maxStep = 0.5;    ///< damping: max update component per iteration, V
};

struct NewtonStats {
    bool converged = false;
    int iterations = 0;
};

/// Damped Newton on the MNA system at one (time, dt, method) configuration;
/// refreshes the map's fixed-node values for `time`/`srcScale` first. x is
/// the initial guess in and the solution out. Each iteration assembles and
/// solves in the map's workspace (MnaMap::solveLinearized), so the loop
/// allocates nothing on the dense path.
NewtonStats solveNewton(MnaMap& map, la::Vector& x, double time, double dt,
                        Integration method, bool transient, double srcScale,
                        const la::Vector* xPrev,
                        const std::vector<double>* statePrev,
                        const NewtonOptions& opt);

}  // namespace sna::spice
