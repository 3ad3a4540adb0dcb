#ifndef P3C_LINALG_CHOLESKY_H_
#define P3C_LINALG_CHOLESKY_H_

#include "src/common/status.h"
#include "src/linalg/matrix.h"

namespace p3c::linalg {

/// Cholesky factorization A = L L^T of a symmetric positive-definite
/// matrix, plus the solve/inverse/log-det operations the clustering code
/// needs for Gaussian densities and Mahalanobis distances.
///
/// The factorization fails with InvalidArgument for non-square input and
/// with FailedPrecondition when a pivot is not strictly positive (matrix
/// not positive definite); callers regularize covariance estimates with
/// Matrix::AddToDiagonal before retrying.
class Cholesky {
 public:
  /// Factorizes `a`. On success the returned object owns the lower factor.
  static Result<Cholesky> Factorize(const Matrix& a);

  /// Solves A x = b.
  Vector Solve(const Vector& b) const;

  /// Inverse of A (solves against the identity, column by column).
  Matrix Inverse() const;

  /// log(det(A)) = 2 * sum_i log(L_ii). Stable for the tiny determinants
  /// of high-dimensional Gaussians.
  double LogDet() const;

  /// Mahalanobis squared distance (x - mu)^T A^{-1} (x - mu) without
  /// forming the inverse: forward-substitute L y = (x - mu), return |y|^2.
  double MahalanobisSquared(const Vector& x, const Vector& mu) const;

  /// The same value, forward-substituting into caller-owned `scratch`
  /// (resized to dim()), so a per-point loop that reuses one buffer
  /// allocates nothing.
  double MahalanobisSquared(const Vector& x, const Vector& mu,
                            Vector& scratch) const;

  size_t dim() const { return l_.rows(); }
  const Matrix& lower() const { return l_; }

 private:
  explicit Cholesky(Matrix l) : l_(std::move(l)) {}

  Matrix l_;
};

}  // namespace p3c::linalg

#endif  // P3C_LINALG_CHOLESKY_H_
