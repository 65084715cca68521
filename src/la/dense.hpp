// Dense linear algebra: row-major matrix and LU factorization.
//
// Sized for the workloads of this library: MNA systems of a few hundred
// unknowns (full SPICE on extracted clusters) down to ~10 unknowns (the
// cluster macromodel engine). LU uses partial pivoting. The factorization
// itself is the free pair luFactorInPlace/luSolveInPlace, which work on
// caller-owned storage so a Newton loop can factor and solve every
// iteration without allocating; DenseLu is the owning convenience wrapper
// over the same two functions.
#pragma once

#include <cstddef>
#include <vector>

namespace sna::la {

using Vector = std::vector<double>;

/// Row-major dense matrix.
class DenseMatrix {
public:
    DenseMatrix() = default;
    DenseMatrix(std::size_t rows, std::size_t cols, double fill = 0.0);

    static DenseMatrix identity(std::size_t n);

    std::size_t rows() const { return rows_; }
    std::size_t cols() const { return cols_; }

    double& operator()(std::size_t r, std::size_t c) {
        return data_[r * cols_ + c];
    }
    double operator()(std::size_t r, std::size_t c) const {
        return data_[r * cols_ + c];
    }
    /// Pointer to the first entry of row r (rows are contiguous).
    double* row(std::size_t r) { return data_.data() + r * cols_; }
    const double* row(std::size_t r) const { return data_.data() + r * cols_; }

    /// Reset every entry to zero, keeping the shape (hot path in Newton).
    void setZero();

    /// y = A x.
    Vector multiply(const Vector& x) const;

    /// C = A B.
    DenseMatrix multiply(const DenseMatrix& other) const;

    DenseMatrix transposed() const;

    /// Max-abs entry, used by tests as a matrix norm.
    double maxAbs() const;

    const std::vector<double>& data() const { return data_; }

private:
    std::size_t rows_ = 0;
    std::size_t cols_ = 0;
    std::vector<double> data_;
};

/// LU-factors the square matrix `a` in place with partial pivoting
/// (Doolittle): afterwards the strict lower triangle holds the unit-lower
/// multipliers and the rest holds U. perm[i] is the original row of factor
/// row i (resized to n). Returns the permutation sign (+1/-1). Throws
/// sna::ConvergenceError if a pivot falls below `pivotTol`.
int luFactorInPlace(DenseMatrix& a, std::vector<std::size_t>& perm,
                    double pivotTol = 1e-14);

/// Solves A x = b with factors from luFactorInPlace; b is replaced by x.
/// `work` is scratch, resized to n (no allocation once it has that size).
void luSolveInPlace(const DenseMatrix& lu, const std::vector<std::size_t>& perm,
                    Vector& b, Vector& work);

/// LU factorization with partial pivoting (Doolittle), owning its factors.
class DenseLu {
public:
    /// Factorizes a copy of `a`. Throws sna::ConvergenceError if the matrix
    /// is numerically singular (pivot below `pivotTol`).
    explicit DenseLu(DenseMatrix a, double pivotTol = 1e-14);

    std::size_t size() const { return lu_.rows(); }

    /// Solve A x = b.
    Vector solve(const Vector& b) const;

    /// In-place solve, b is replaced by x.
    void solveInPlace(Vector& b) const;

    /// Determinant of A (with pivot signs).
    double determinant() const;

private:
    DenseMatrix lu_;
    std::vector<std::size_t> perm_;
    int permSign_ = 1;
};

/// Convenience one-shot solve.
Vector solveDense(DenseMatrix a, const Vector& b);

/// Euclidean norm and helpers used by the Newton loops.
double norm2(const Vector& v);
double normInf(const Vector& v);

}  // namespace sna::la
