// Unit and property tests for the complex linear algebra kernel.
#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.hpp"
#include "linalg/matrix.hpp"

namespace ff {
namespace {

using linalg::Matrix;

Matrix random_matrix(Rng& rng, std::size_t r, std::size_t c) {
  Matrix m(r, c);
  for (std::size_t i = 0; i < r; ++i)
    for (std::size_t j = 0; j < c; ++j) m(i, j) = rng.cgaussian();
  return m;
}

double mat_dist(const Matrix& a, const Matrix& b) { return (a - b).frobenius(); }

TEST(Matrix, BasicArithmetic) {
  const Matrix a{{Complex{1, 0}, Complex{2, 0}}, {Complex{3, 0}, Complex{4, 0}}};
  const Matrix i = Matrix::identity(2);
  EXPECT_NEAR(mat_dist(a * i, a), 0.0, 1e-14);
  EXPECT_NEAR(mat_dist(i * a, a), 0.0, 1e-14);
  EXPECT_NEAR(mat_dist(a + Matrix::zeros(2, 2), a), 0.0, 1e-14);
  EXPECT_NEAR(mat_dist(a - a, Matrix::zeros(2, 2)), 0.0, 1e-14);
}

TEST(Matrix, AdjointIsConjugateTranspose) {
  const Matrix a{{Complex{1, 2}}, {Complex{3, -4}}};
  const Matrix ah = a.adjoint();
  EXPECT_EQ(ah.rows(), 1u);
  EXPECT_EQ(ah.cols(), 2u);
  EXPECT_EQ(ah(0, 0), (Complex{1, -2}));
  EXPECT_EQ(ah(0, 1), (Complex{3, 4}));
}

class SquareSizes : public ::testing::TestWithParam<std::size_t> {};

TEST_P(SquareSizes, InverseTimesSelfIsIdentity) {
  Rng rng(GetParam());
  const Matrix a = random_matrix(rng, GetParam(), GetParam());
  const Matrix inv = linalg::inverse(a);
  EXPECT_NEAR(mat_dist(a * inv, Matrix::identity(GetParam())), 0.0, 1e-9);
}

TEST_P(SquareSizes, SolveSatisfiesSystem) {
  Rng rng(GetParam() + 100);
  const std::size_t n = GetParam();
  const Matrix a = random_matrix(rng, n, n);
  const Matrix b = random_matrix(rng, n, 2);
  const Matrix x = linalg::solve(a, b);
  EXPECT_NEAR(mat_dist(a * x, b), 0.0, 1e-9);
}

TEST_P(SquareSizes, DeterminantOfProductFactors) {
  Rng rng(GetParam() + 200);
  const std::size_t n = GetParam();
  const Matrix a = random_matrix(rng, n, n);
  const Matrix b = random_matrix(rng, n, n);
  const Complex lhs = linalg::determinant(a * b);
  const Complex rhs = linalg::determinant(a) * linalg::determinant(b);
  EXPECT_NEAR(std::abs(lhs - rhs), 0.0, 1e-8 * std::max(1.0, std::abs(rhs)));
}

INSTANTIATE_TEST_SUITE_P(Sizes, SquareSizes, ::testing::Values(1, 2, 3, 4, 6, 10));

TEST(Matrix, Determinant2x2Formula) {
  const Matrix a{{Complex{1, 1}, Complex{2, 0}}, {Complex{0, 3}, Complex{4, -1}}};
  const Complex expect = Complex{1, 1} * Complex{4, -1} - Complex{2, 0} * Complex{0, 3};
  EXPECT_NEAR(std::abs(linalg::determinant(a) - expect), 0.0, 1e-12);
}

TEST(Matrix, SingularMatrixHasZeroDeterminant) {
  Matrix a(2, 2);
  a(0, 0) = {1, 0};
  a(0, 1) = {2, 0};
  a(1, 0) = {2, 0};
  a(1, 1) = {4, 0};  // row2 = 2*row1
  EXPECT_NEAR(std::abs(linalg::determinant(a)), 0.0, 1e-12);
  EXPECT_THROW(linalg::inverse(a), std::logic_error);
}

TEST(LeastSquares, ExactForConsistentSystem) {
  Rng rng(301);
  const Matrix a = random_matrix(rng, 20, 5);
  const Matrix x_true = random_matrix(rng, 5, 1);
  const Matrix b = a * x_true;
  const Matrix x = linalg::least_squares(a, b);
  EXPECT_NEAR(mat_dist(x, x_true), 0.0, 1e-9);
}

TEST(LeastSquares, ResidualIsOrthogonalToColumns) {
  Rng rng(302);
  const Matrix a = random_matrix(rng, 30, 4);
  const Matrix b = random_matrix(rng, 30, 1);
  const Matrix x = linalg::least_squares(a, b);
  const Matrix r = b - a * x;
  const Matrix proj = a.adjoint() * r;  // should be ~0
  EXPECT_NEAR(proj.frobenius(), 0.0, 1e-8);
}

TEST(LeastSquares, RidgeShrinksSolution) {
  Rng rng(303);
  const Matrix a = random_matrix(rng, 25, 6);
  const Matrix b = random_matrix(rng, 25, 1);
  const Matrix x0 = linalg::least_squares(a, b, 0.0);
  const Matrix x1 = linalg::least_squares(a, b, 100.0);
  EXPECT_LT(x1.frobenius(), x0.frobenius());
}

TEST(Svd, ReconstructsMatrix) {
  Rng rng(401);
  for (const auto& [r, c] : {std::pair<std::size_t, std::size_t>{4, 4}, {6, 3}, {5, 2}}) {
    const Matrix a = random_matrix(rng, r, c);
    const auto s = linalg::svd(a);
    Matrix rec(r, c);
    for (std::size_t k = 0; k < s.sigma.size(); ++k) {
      for (std::size_t i = 0; i < r; ++i)
        for (std::size_t j = 0; j < c; ++j)
          rec(i, j) += s.u(i, k) * s.sigma[k] * std::conj(s.v(j, k));
    }
    EXPECT_NEAR(mat_dist(rec, a), 0.0, 1e-8) << r << "x" << c;
  }
}

TEST(Svd, SingularValuesAreSortedNonNegative) {
  Rng rng(402);
  const Matrix a = random_matrix(rng, 5, 5);
  const auto sv = linalg::singular_values(a);
  for (std::size_t i = 0; i + 1 < sv.size(); ++i) {
    EXPECT_GE(sv[i], sv[i + 1]);
    EXPECT_GE(sv[i + 1], 0.0);
  }
}

TEST(Svd, FrobeniusEqualsSigmaNorm) {
  Rng rng(403);
  const Matrix a = random_matrix(rng, 4, 3);
  const auto sv = linalg::singular_values(a);
  double acc = 0.0;
  for (const double s : sv) acc += s * s;
  EXPECT_NEAR(std::sqrt(acc), a.frobenius(), 1e-9);
}

TEST(Svd, RankOneOuterProduct) {
  Rng rng(404);
  const Matrix u = random_matrix(rng, 4, 1);
  const Matrix v = random_matrix(rng, 4, 1);
  const Matrix a = u * v.adjoint();
  EXPECT_EQ(linalg::rank(a, 1e-8), 1u);
  const auto sv = linalg::singular_values(a);
  EXPECT_NEAR(sv[0], u.frobenius() * v.frobenius(), 1e-9);
}

TEST(Svd, UnitaryHasUnitSingularValues) {
  // Build a unitary from a random matrix via Gram-Schmidt-ish: use SVD.
  Rng rng(405);
  const Matrix a = random_matrix(rng, 3, 3);
  const auto s = linalg::svd(a);
  const Matrix q = s.u * s.v.adjoint();
  for (const double sv : linalg::singular_values(q)) EXPECT_NEAR(sv, 1.0, 1e-8);
}

}  // namespace
}  // namespace ff
