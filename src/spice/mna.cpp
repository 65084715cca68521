#include "spice/mna.hpp"

#include <algorithm>
#include <cmath>

#include "util/error.hpp"

namespace sna::spice {

// ------------------------------------------------------------- EvalContext

EvalContext::EvalContext(const MnaMap& map, const la::Vector& x,
                         const la::Vector* xPrev, double time, double dt,
                         Integration method, bool transient, double srcScale,
                         const std::vector<double>* statePrev,
                         std::vector<double>* stateNext)
    : map_(map),
      x_(x),
      xPrev_(xPrev),
      time_(time),
      dt_(dt),
      method_(method),
      transient_(transient),
      srcScale_(srcScale),
      statePrev_(statePrev),
      stateNext_(stateNext) {}

double EvalContext::v(NodeId n) const { return map_.voltage(n, x_); }

double EvalContext::unknown(int index) const {
    SNA_REQUIRE(index >= 0 && static_cast<std::size_t>(index) < x_.size(),
                "unknown index out of range");
    return x_[static_cast<std::size_t>(index)];
}

double EvalContext::vPrev(NodeId n) const {
    SNA_REQUIRE(xPrev_ != nullptr, "no previous time point in this context");
    return map_.voltagePrev(n, *xPrev_);
}

namespace {

std::size_t stateIndex(const Device& d, std::size_t slot,
                       const std::vector<double>& state) {
    const std::size_t base = d.stateBase();
    SNA_REQUIRE(base < state.size() && slot < state.size() - base,
                "device has no state slot " + std::to_string(slot) + ": " +
                    d.name());
    return base + slot;
}

}  // namespace

double EvalContext::state(const Device& d, std::size_t slot) const {
    SNA_REQUIRE(statePrev_ != nullptr, "no state storage in this context");
    return (*statePrev_)[stateIndex(d, slot, *statePrev_)];
}

void EvalContext::setState(const Device& d, std::size_t slot, double v) const {
    SNA_REQUIRE(stateNext_ != nullptr, "no writable state in this context");
    (*stateNext_)[stateIndex(d, slot, *stateNext_)] = v;
}

int EvalContext::branchRow(const Device& d, std::size_t branch) const {
    SNA_REQUIRE(d.branchOffset() != Device::npos,
                "device has no branch rows: " + d.name());
    return static_cast<int>(map_.nodeUnknowns() + d.branchOffset() + branch);
}

// ----------------------------------------------------------------- Stamper

Stamper::Stamper(const MnaMap& map, la::SparseMatrix& j, la::Vector& rhs)
    : map_(map), sparse_(&j), rhs_(rhs) {}

Stamper::Stamper(const MnaMap& map, la::DenseMatrix& j, la::Vector& rhs)
    : map_(map), dense_(&j), rhs_(rhs) {}

void Stamper::add(int r, int c, double v) {
    if (dense_ == nullptr) {
        sparse_->add(static_cast<std::size_t>(r), static_cast<std::size_t>(c),
                     v);
        return;
    }
    const std::size_t n = dense_->rows();
    SNA_REQUIRE(r >= 0 && c >= 0 && static_cast<std::size_t>(r) < n &&
                    static_cast<std::size_t>(c) < n,
                "dense stamp outside matrix");
    if (v == 0.0) return;
    (*dense_)(static_cast<std::size_t>(r), static_cast<std::size_t>(c)) += v;
}

void Stamper::dependence(NodeId node, NodeId ctrl, double didv) {
    const int row = map_.indexOf(node);
    if (row < 0) return;
    const int col = map_.indexOf(ctrl);
    if (col >= 0) {
        add(row, col, didv);
    } else {
        rhs_[row] -= didv * map_.knownVoltage(ctrl);
    }
}

void Stamper::conductance(NodeId a, NodeId b, double g) {
    dependence(a, a, +g);
    dependence(a, b, -g);
    dependence(b, b, +g);
    dependence(b, a, -g);
}

void Stamper::current(NodeId n, double i) {
    const int row = map_.indexOf(n);
    if (row >= 0) rhs_[row] += i;
}

void Stamper::norton(NodeId from, NodeId to, double i0,
                     std::initializer_list<std::pair<NodeId, double>> partials,
                     const EvalContext& ctx) {
    double linearizedAtPoint = 0.0;
    for (const auto& [ctrl, g] : partials) {
        dependence(from, ctrl, +g);
        dependence(to, ctrl, -g);
        linearizedAtPoint += g * ctx.v(ctrl);
    }
    // Current leaving `from` has constant part (i0 - sum g*v0); move it to
    // the RHS as an injected current.
    const double constPart = i0 - linearizedAtPoint;
    current(from, -constPart);
    current(to, +constPart);
}

void Stamper::branchVoltage(int branch, NodeId pos, NodeId neg, double value) {
    double rhs = value;
    const int ip = map_.indexOf(pos);
    if (ip >= 0) {
        add(branch, ip, +1.0);
    } else {
        rhs -= map_.knownVoltage(pos);
    }
    const int in = map_.indexOf(neg);
    if (in >= 0) {
        add(branch, in, -1.0);
    } else {
        rhs += map_.knownVoltage(neg);
    }
    rhs_[branch] += rhs;
}

void Stamper::branchControl(int branch, NodeId ctrl, double coeff) {
    const int ic = map_.indexOf(ctrl);
    if (ic >= 0) {
        add(branch, ic, coeff);
    } else {
        rhs_[branch] -= coeff * map_.knownVoltage(ctrl);
    }
}

void Stamper::branchCurrentInto(int branch, NodeId pos, NodeId neg) {
    const int ip = map_.indexOf(pos);
    if (ip >= 0) add(ip, branch, +1.0);
    const int in = map_.indexOf(neg);
    if (in >= 0) add(in, branch, -1.0);
}

void Stamper::branchPair(int row, int branchCol, double value) {
    add(row, branchCol, value);
}

void Stamper::branchRhs(int row, double value) { rhs_[row] += value; }

void Stamper::nodeBranch(NodeId n, int branchCol, double coeff) {
    const int row = map_.indexOf(n);
    if (row >= 0) add(row, branchCol, coeff);
}

// ------------------------------------------------------------------ MnaMap

MnaMap::MnaMap(const Circuit& circuit) : circuit_(&circuit) {
    const std::size_t n = circuit.nodeCount();
    index_.assign(n, -1);
    fixed_.assign(n, 0);
    fixedValue_.assign(n, 0.0);
    fixedPrev_.assign(n, 0.0);
    fixedSource_.assign(n, nullptr);
    fixedSign_.assign(n, 1.0);

    // Pass 1: ground-referenced ideal voltage sources pin their free node.
    for (const auto& dev : circuit.devices()) {
        const auto* vs = dynamic_cast<const VSource*>(dev.get());
        if (vs == nullptr || !vs->grounded()) continue;
        const bool posIsFree = (vs->neg() == kGround);
        const NodeId pinned = posIsFree ? vs->pos() : vs->neg();
        SNA_REQUIRE(pinned != kGround, "voltage source shorted to ground: " +
                                           vs->name());
        if (fixed_[pinned]) {
            throw ModelError("node '" + circuit.nodeName(pinned) +
                             "' is driven by two voltage sources ('" +
                             vs->name() + "' and '" +
                             fixedSource_[pinned]->name() + "')");
        }
        fixed_[pinned] = 1;
        fixedSource_[pinned] = vs;
        fixedSign_[pinned] = posIsFree ? +1.0 : -1.0;
    }

    // Pass 2: enumerate unknowns.
    for (NodeId id = 1; id < static_cast<NodeId>(n); ++id) {
        if (!fixed_[id]) index_[id] = static_cast<int>(nodeUnknowns_++);
    }

    // Branch unknowns follow the node unknowns, in device order (the
    // circuit assigned each device its offset at registration).
    unknowns_ = nodeUnknowns_ + circuit.branchUnknowns();
    // Branch rows have structurally zero diagonals, which the pivot-free
    // sparse path cannot handle; and below a few hundred unknowns the dense
    // LU's cache behavior beats the list-based sparse factorization.
    useDense_ = hasBranches() || unknowns_ < 280;
    if (!useDense_) sparse_ = la::SparseMatrix(unknowns_);
    rhs_.assign(unknowns_, 0.0);

    reset();
}

double MnaMap::voltage(NodeId n, const la::Vector& x) const {
    if (n == kGround) return 0.0;
    const int idx = index_[n];
    if (idx >= 0) return x[static_cast<std::size_t>(idx)];
    return fixedValue_[n];
}

double MnaMap::voltagePrev(NodeId n, const la::Vector& xPrev) const {
    if (n == kGround) return 0.0;
    const int idx = index_[n];
    if (idx >= 0) return xPrev[static_cast<std::size_t>(idx)];
    return fixedPrev_[n];
}

double MnaMap::knownVoltage(NodeId n) const {
    if (n == kGround) return 0.0;
    SNA_REQUIRE(fixed_[n], "knownVoltage on a free node");
    return fixedValue_[n];
}

void MnaMap::updateFixed(double time, double srcScale) {
    for (NodeId id = 0; id < static_cast<NodeId>(fixed_.size()); ++id) {
        if (!fixed_[id]) continue;
        fixedValue_[id] =
            fixedSign_[id] * fixedSource_[id]->spec().value(time) * srcScale;
    }
}

void MnaMap::commitFixed() { fixedPrev_ = fixedValue_; }

void MnaMap::reset() {
    gmin_ = 1e-12;
    updateFixed(0.0, 1.0);
    commitFixed();
}

void MnaMap::assemble(la::SparseMatrix& j, la::Vector& rhs,
                      const EvalContext& ctx) const {
    j.clear();
    std::fill(rhs.begin(), rhs.end(), 0.0);
    Stamper st(*this, j, rhs);
    for (const auto& dev : circuit_->devices()) dev->stamp(st, ctx);
    // gmin keeps the Jacobian regular when devices are cut off.
    for (std::size_t i = 0; i < nodeUnknowns_; ++i) {
        j.add(i, i, gmin_);
    }
}

void MnaMap::assemble(la::DenseMatrix& j, la::Vector& rhs,
                      const EvalContext& ctx) const {
    SNA_REQUIRE(j.rows() == unknowns_ && j.cols() == unknowns_ &&
                    rhs.size() == unknowns_,
                "dense assembly target has the wrong shape");
    j.setZero();
    std::fill(rhs.begin(), rhs.end(), 0.0);
    Stamper st(*this, j, rhs);
    for (const auto& dev : circuit_->devices()) dev->stamp(st, ctx);
    if (gmin_ != 0.0) {
        for (std::size_t i = 0; i < nodeUnknowns_; ++i) j(i, i) += gmin_;
    }
}

const la::Vector& MnaMap::solveLinearized(const EvalContext& ctx) {
    if (useDense_) {
        if (dense_.rows() != unknowns_) {
            dense_ = la::DenseMatrix(unknowns_, unknowns_);
        }
        assemble(dense_, rhs_, ctx);
        la::luFactorInPlace(dense_, perm_);
        la::luSolveInPlace(dense_, perm_, rhs_, work_);
    } else {
        assemble(sparse_, rhs_, ctx);
        rhs_ = la::solveSparse(sparse_, rhs_);
    }
    return rhs_;
}

// ------------------------------------------------------------------ Newton

NewtonStats solveNewton(MnaMap& map, la::Vector& x, double time, double dt,
                        Integration method, bool transient, double srcScale,
                        const la::Vector* xPrev,
                        const std::vector<double>* statePrev,
                        const NewtonOptions& opt) {
    const std::size_t n = map.unknowns();
    SNA_REQUIRE(x.size() == n, "initial guess has wrong dimension");
    map.updateFixed(time, srcScale);

    NewtonStats stats;
    for (int iter = 0; iter < opt.maxIterations; ++iter) {
        ++stats.iterations;
        EvalContext ctx(map, x, xPrev, time, dt, method, transient, srcScale,
                        statePrev, nullptr);
        const la::Vector& xNew = map.solveLinearized(ctx);
        double worst = 0.0;
        for (std::size_t i = 0; i < n; ++i) {
            worst = std::max(worst, std::abs(xNew[i] - x[i]));
        }
        if (!std::isfinite(worst)) {
            throw ConvergenceError("Newton produced a non-finite update");
        }
        if (worst <= opt.vtol) {
            std::copy(xNew.begin(), xNew.end(), x.begin());
            stats.converged = true;
            return stats;
        }
        // Damped update: cap the largest component change.
        const double scale = (worst > opt.maxStep) ? opt.maxStep / worst : 1.0;
        for (std::size_t i = 0; i < n; ++i) {
            x[i] += scale * (xNew[i] - x[i]);
        }
    }
    return stats;
}

}  // namespace sna::spice
