#include "la/dense.hpp"

#include <algorithm>
#include <cmath>

#include "util/error.hpp"

namespace sna::la {

DenseMatrix::DenseMatrix(std::size_t rows, std::size_t cols, double fill)
    : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

DenseMatrix DenseMatrix::identity(std::size_t n) {
    DenseMatrix m(n, n);
    for (std::size_t i = 0; i < n; ++i) m(i, i) = 1.0;
    return m;
}

void DenseMatrix::setZero() {
    std::fill(data_.begin(), data_.end(), 0.0);
}

Vector DenseMatrix::multiply(const Vector& x) const {
    SNA_REQUIRE(x.size() == cols_, "dimension mismatch in matrix-vector product");
    Vector y(rows_, 0.0);
    for (std::size_t r = 0; r < rows_; ++r) {
        double acc = 0.0;
        const double* row = &data_[r * cols_];
        for (std::size_t c = 0; c < cols_; ++c) acc += row[c] * x[c];
        y[r] = acc;
    }
    return y;
}

DenseMatrix DenseMatrix::multiply(const DenseMatrix& other) const {
    SNA_REQUIRE(cols_ == other.rows_, "dimension mismatch in matrix product");
    DenseMatrix out(rows_, other.cols_);
    for (std::size_t r = 0; r < rows_; ++r) {
        for (std::size_t k = 0; k < cols_; ++k) {
            const double a = (*this)(r, k);
            if (a == 0.0) continue;
            for (std::size_t c = 0; c < other.cols_; ++c) {
                out(r, c) += a * other(k, c);
            }
        }
    }
    return out;
}

DenseMatrix DenseMatrix::transposed() const {
    DenseMatrix out(cols_, rows_);
    for (std::size_t r = 0; r < rows_; ++r) {
        for (std::size_t c = 0; c < cols_; ++c) out(c, r) = (*this)(r, c);
    }
    return out;
}

double DenseMatrix::maxAbs() const {
    double m = 0.0;
    for (double v : data_) m = std::max(m, std::abs(v));
    return m;
}

int luFactorInPlace(DenseMatrix& a, std::vector<std::size_t>& perm,
                    double pivotTol) {
    SNA_REQUIRE(a.rows() == a.cols(), "LU needs a square matrix");
    const std::size_t n = a.rows();
    perm.resize(n);
    for (std::size_t i = 0; i < n; ++i) perm[i] = i;
    int sign = 1;

    for (std::size_t k = 0; k < n; ++k) {
        // Partial pivot: largest magnitude in column k at/below the diagonal.
        std::size_t pivot = k;
        double best = std::abs(a(k, k));
        for (std::size_t r = k + 1; r < n; ++r) {
            const double v = std::abs(a(r, k));
            if (v > best) {
                best = v;
                pivot = r;
            }
        }
        if (best < pivotTol) {
            throw ConvergenceError(
                "singular matrix in dense LU (pivot " + std::to_string(best) +
                " at column " + std::to_string(k) + ")");
        }
        double* rowK = a.row(k);
        if (pivot != k) {
            std::swap_ranges(rowK, rowK + n, a.row(pivot));
            std::swap(perm[k], perm[pivot]);
            sign = -sign;
        }
        const double inv = 1.0 / rowK[k];
        for (std::size_t r = k + 1; r < n; ++r) {
            double* rowR = a.row(r);
            const double factor = rowR[k] * inv;
            if (factor == 0.0) continue;
            rowR[k] = factor;
            for (std::size_t c = k + 1; c < n; ++c) {
                rowR[c] -= factor * rowK[c];
            }
        }
    }
    return sign;
}

void luSolveInPlace(const DenseMatrix& lu, const std::vector<std::size_t>& perm,
                    Vector& b, Vector& work) {
    const std::size_t n = lu.rows();
    SNA_REQUIRE(b.size() == n && perm.size() == n,
                "rhs size mismatch in LU solve");
    work.resize(n);
    // Apply permutation.
    for (std::size_t i = 0; i < n; ++i) work[i] = b[perm[i]];
    // Forward substitution (unit lower).
    for (std::size_t i = 0; i < n; ++i) {
        const double* row = lu.row(i);
        double acc = work[i];
        for (std::size_t j = 0; j < i; ++j) acc -= row[j] * work[j];
        work[i] = acc;
    }
    // Back substitution.
    for (std::size_t ii = n; ii-- > 0;) {
        const double* row = lu.row(ii);
        double acc = work[ii];
        for (std::size_t j = ii + 1; j < n; ++j) acc -= row[j] * work[j];
        work[ii] = acc / row[ii];
    }
    std::copy(work.begin(), work.end(), b.begin());
}

DenseLu::DenseLu(DenseMatrix a, double pivotTol) : lu_(std::move(a)) {
    permSign_ = luFactorInPlace(lu_, perm_, pivotTol);
}

Vector DenseLu::solve(const Vector& b) const {
    Vector x = b;
    solveInPlace(x);
    return x;
}

void DenseLu::solveInPlace(Vector& b) const {
    Vector work;
    luSolveInPlace(lu_, perm_, b, work);
}

double DenseLu::determinant() const {
    double det = permSign_;
    for (std::size_t i = 0; i < lu_.rows(); ++i) det *= lu_(i, i);
    return det;
}

Vector solveDense(DenseMatrix a, const Vector& b) {
    return DenseLu(std::move(a)).solve(b);
}

double norm2(const Vector& v) {
    double acc = 0.0;
    for (double x : v) acc += x * x;
    return std::sqrt(acc);
}

double normInf(const Vector& v) {
    double m = 0.0;
    for (double x : v) m = std::max(m, std::abs(x));
    return m;
}

}  // namespace sna::la
