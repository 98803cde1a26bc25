// Small dense complex matrix library.
//
// The MIMO channels in this system are tiny (2x2 to 4x4), but the digital
// cancellation least-squares problems involve tall skinny systems with a few
// hundred columns, so the implementation is dense, allocation-friendly, and
// favours numerical robustness (Householder QR, Jacobi SVD) over asymptotic
// speed.
#pragma once

#include <cstddef>
#include <initializer_list>

#include "common/types.hpp"

namespace ff::linalg {

class Matrix {
 public:
  Matrix() = default;
  Matrix(std::size_t rows, std::size_t cols)
      : rows_(rows), cols_(cols), data_(rows * cols, Complex{}) {}
  /// Row-major construction from nested initializer lists.
  Matrix(std::initializer_list<std::initializer_list<Complex>> rows);

  static Matrix identity(std::size_t n);
  static Matrix zeros(std::size_t rows, std::size_t cols) { return {rows, cols}; }

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  bool empty() const { return data_.empty(); }
  bool is_square() const { return rows_ == cols_ && rows_ > 0; }

  Complex& operator()(std::size_t r, std::size_t c) { return data_[r * cols_ + c]; }
  const Complex& operator()(std::size_t r, std::size_t c) const { return data_[r * cols_ + c]; }

  const CVec& data() const { return data_; }

  Matrix operator+(const Matrix& o) const;
  Matrix operator-(const Matrix& o) const;
  Matrix operator*(const Matrix& o) const;
  Matrix operator*(Complex s) const;

  /// Conjugate transpose.
  Matrix adjoint() const;

  /// Frobenius norm.
  double frobenius() const;

 private:
  std::size_t rows_ = 0, cols_ = 0;
  CVec data_;
};

/// Determinant via LU with partial pivoting. Requires square.
Complex determinant(const Matrix& a);

/// Inverse via LU. Throws on (numerically) singular input.
Matrix inverse(const Matrix& a);

/// Solve A x = b (A square) via LU with partial pivoting.
Matrix solve(const Matrix& a, const Matrix& b);

/// Least squares: minimize ||A x - b||_2 (+ ridge * ||x||_2) by Householder QR
/// on the (optionally) augmented system. A must have rows >= cols.
Matrix least_squares(const Matrix& a, const Matrix& b, double ridge = 0.0);

/// Singular values (descending) via one-sided Jacobi. Works for any shape.
std::vector<double> singular_values(const Matrix& a);

struct Svd {
  Matrix u;                      // rows x k
  std::vector<double> sigma;     // k singular values, descending
  Matrix v;                      // cols x k  (A = U diag(sigma) V^H)
};

/// Thin SVD via one-sided Jacobi.
Svd svd(const Matrix& a);

/// Numerical rank: number of singular values > tol * max(sigma).
std::size_t rank(const Matrix& a, double tol = 1e-9);

}  // namespace ff::linalg
