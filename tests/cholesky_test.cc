#include "src/linalg/cholesky.h"

#include <gtest/gtest.h>

#include <cmath>

#include "src/common/random.h"

namespace p3c::linalg {
namespace {

Matrix RandomSpd(size_t n, Rng& rng) {
  // A A^T + n * I is symmetric positive definite.
  Matrix a(n, n);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < n; ++j) a(i, j) = rng.Uniform(-1.0, 1.0);
  }
  Matrix spd = a.MatMul(a.Transposed());
  spd.AddToDiagonal(static_cast<double>(n));
  return spd;
}

TEST(CholeskyTest, FactorizesIdentity) {
  Result<Cholesky> chol = Cholesky::Factorize(Matrix::Identity(4));
  ASSERT_TRUE(chol.ok());
  EXPECT_DOUBLE_EQ(chol->LogDet(), 0.0);
}

TEST(CholeskyTest, RejectsNonSquare) {
  EXPECT_FALSE(Cholesky::Factorize(Matrix(2, 3)).ok());
}

TEST(CholeskyTest, RejectsIndefinite) {
  Matrix m = Matrix::Identity(2);
  m(1, 1) = -1.0;
  Result<Cholesky> chol = Cholesky::Factorize(m);
  EXPECT_FALSE(chol.ok());
  EXPECT_EQ(chol.status().code(), StatusCode::kFailedPrecondition);
}

TEST(CholeskyTest, SolveRoundTrips) {
  Rng rng(5);
  const Matrix a = RandomSpd(6, rng);
  Vector x_true(6);
  for (auto& v : x_true) v = rng.Uniform(-2.0, 2.0);
  const Vector b = a.MatVec(x_true);
  Result<Cholesky> chol = Cholesky::Factorize(a);
  ASSERT_TRUE(chol.ok());
  const Vector x = chol->Solve(b);
  for (size_t i = 0; i < 6; ++i) EXPECT_NEAR(x[i], x_true[i], 1e-9);
}

TEST(CholeskyTest, InverseTimesOriginalIsIdentity) {
  Rng rng(6);
  const Matrix a = RandomSpd(5, rng);
  Result<Cholesky> chol = Cholesky::Factorize(a);
  ASSERT_TRUE(chol.ok());
  const Matrix prod = a.MatMul(chol->Inverse());
  EXPECT_LT(prod.MaxAbsDiff(Matrix::Identity(5)), 1e-9);
}

TEST(CholeskyTest, LogDetMatchesDiagonalMatrix) {
  const Matrix d = Matrix::Diagonal({2.0, 3.0, 4.0});
  Result<Cholesky> chol = Cholesky::Factorize(d);
  ASSERT_TRUE(chol.ok());
  EXPECT_NEAR(chol->LogDet(), std::log(24.0), 1e-12);
}

TEST(CholeskyTest, MahalanobisMatchesExplicitInverse) {
  Rng rng(7);
  const Matrix a = RandomSpd(4, rng);
  Result<Cholesky> chol = Cholesky::Factorize(a);
  ASSERT_TRUE(chol.ok());
  const Vector mu = {0.1, -0.2, 0.3, 0.0};
  const Vector x = {1.0, 2.0, -1.0, 0.5};
  // Explicit: (x - mu)^T A^{-1} (x - mu).
  Vector diff(4);
  for (size_t i = 0; i < 4; ++i) diff[i] = x[i] - mu[i];
  const Vector solved = chol->Solve(diff);
  const double expected = Dot(diff, solved);
  EXPECT_NEAR(chol->MahalanobisSquared(x, mu), expected, 1e-9);
}

TEST(CholeskyTest, MahalanobisOfMeanIsZero) {
  Rng rng(8);
  const Matrix a = RandomSpd(3, rng);
  Result<Cholesky> chol = Cholesky::Factorize(a);
  ASSERT_TRUE(chol.ok());
  const Vector mu = {1.0, 2.0, 3.0};
  EXPECT_NEAR(chol->MahalanobisSquared(mu, mu), 0.0, 1e-14);
}

TEST(CholeskyTest, MahalanobisScratchOverloadIsBitIdentical) {
  Rng rng(9);
  const Matrix a = RandomSpd(5, rng);
  Result<Cholesky> chol = Cholesky::Factorize(a);
  ASSERT_TRUE(chol.ok());
  const Vector mu = {0.1, -0.2, 0.3, 0.0, 0.7};
  // Reused scratch of the wrong size and stale contents is resized and
  // overwritten before it is read.
  Vector scratch(9, 123.0);
  for (int trial = 0; trial < 4; ++trial) {
    Vector x(5);
    for (double& v : x) v = rng.Gaussian();
    EXPECT_EQ(chol->MahalanobisSquared(x, mu, scratch),
              chol->MahalanobisSquared(x, mu));
    EXPECT_EQ(scratch.size(), 5u);
  }
}

// Property sweep: solve/inverse accuracy across dimensions.
class CholeskyDimTest : public ::testing::TestWithParam<size_t> {};

TEST_P(CholeskyDimTest, SolveAccuracy) {
  const size_t n = GetParam();
  Rng rng(100 + n);
  const Matrix a = RandomSpd(n, rng);
  Vector x_true(n);
  for (auto& v : x_true) v = rng.Uniform(-1.0, 1.0);
  Result<Cholesky> chol = Cholesky::Factorize(a);
  ASSERT_TRUE(chol.ok());
  const Vector x = chol->Solve(a.MatVec(x_true));
  for (size_t i = 0; i < n; ++i) EXPECT_NEAR(x[i], x_true[i], 1e-8);
}

INSTANTIATE_TEST_SUITE_P(Dims, CholeskyDimTest,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34, 50));

}  // namespace
}  // namespace p3c::linalg
