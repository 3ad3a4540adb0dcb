#ifndef P3C_CORE_GMM_H_
#define P3C_CORE_GMM_H_

#include <cstddef>
#include <span>
#include <vector>

#include "src/common/status.h"
#include "src/common/threadpool.h"
#include "src/core/core_detection.h"
#include "src/core/params.h"
#include "src/data/dataset.h"
#include "src/linalg/cholesky.h"
#include "src/linalg/matrix.h"

namespace p3c::core {

/// One Gaussian of the mixture, expressed in the coordinates of the
/// relevant subspace Arel (Eq. 3).
struct GaussianComponent {
  linalg::Vector mean;   ///< |Arel| entries
  linalg::Matrix cov;    ///< |Arel| x |Arel|
  double weight = 0.0;   ///< mixing proportion, sums to 1 over components
};

/// A Gaussian mixture over the projection of the data onto Arel.
struct GmmModel {
  std::vector<size_t> arel;  ///< sorted attribute subset
  std::vector<GaussianComponent> components;

  size_t dim() const { return arel.size(); }
  size_t num_components() const { return components.size(); }

  /// Projects a full d-dimensional row onto the Arel coordinates.
  linalg::Vector Project(std::span<const double> row) const;
  /// The same projection into `out` (resized to dim()); a per-point loop
  /// that reuses one buffer allocates nothing.
  void Project(std::span<const double> row, linalg::Vector& out) const;
};

/// Computes the union of relevant attributes over all cluster cores
/// (Arel, Eq. 3), sorted.
std::vector<size_t> RelevantAttributeUnion(const std::vector<ClusterCore>& cores);

/// Immutable evaluation view of a GmmModel with per-component Cholesky
/// factors. Construction regularizes non-PD covariances by escalating
/// ridge (adds ridge, 10*ridge, ... to the diagonal until factorization
/// succeeds); fails only if even a heavy ridge cannot fix the matrix.
class GmmEvaluator {
 public:
  static Result<GmmEvaluator> Make(const GmmModel& model, double ridge);

  size_t num_components() const { return factors_.size(); }

  // Every per-point evaluation takes a caller-owned `scratch` vector
  // for its triangular solves; reusing one per thread or mapper keeps
  // the per-point path free of heap allocation. The all-component
  // evaluations (EStep, HardAssign, MahalanobisNearest) solve the k
  // systems together through kernels::Ops::mahalanobis_batch, bit-exact
  // with the one-component LogWeightedDensity / MahalanobisSquared.

  /// log w_k + log N(x | mu_k, Sigma_k); x in Arel coordinates.
  double LogWeightedDensity(size_t k, const linalg::Vector& x,
                            linalg::Vector& scratch) const;

  /// One E-step evaluation of x: the k log-weighted densities, once.
  /// `r` receives the posterior responsibilities r_k(x) (their softmax);
  /// `log_likelihood` is log p(x) under the mixture, the log-sum-exp of
  /// the same densities, reusing the softmax's max and in-order exp sum.
  /// `argmax` is the first most probable component.
  struct Posterior {
    size_t argmax = 0;
    double log_likelihood = 0.0;
  };
  Posterior EStep(const linalg::Vector& x, std::vector<double>& r,
                  linalg::Vector& scratch) const;

  /// Hard assignment: argmax_k posterior (ties to the lowest index).
  size_t HardAssign(const linalg::Vector& x, linalg::Vector& scratch) const;

  /// The component with the smallest Mahalanobis distance to x (ties to
  /// the lowest index); §5.4 attaches points outside every support set
  /// to it.
  size_t MahalanobisNearest(const linalg::Vector& x,
                            linalg::Vector& scratch) const;

  /// Squared Mahalanobis distance of x to component k.
  double MahalanobisSquared(size_t k, const linalg::Vector& x,
                            linalg::Vector& scratch) const;

 private:
  struct Factor {
    linalg::Cholesky chol;
    linalg::Vector mean;
    double log_norm;  ///< log w_k - 0.5 logdet - (dim/2) log(2 pi)
  };
  explicit GmmEvaluator(std::vector<Factor> factors);

  /// Squared Mahalanobis distances of x to all components, written to
  /// the tail of `scratch`; returns a pointer to the k of them.
  const double* AllMahalanobisSquared(const linalg::Vector& x,
                                      linalg::Vector& scratch) const;

  std::vector<Factor> factors_;
  size_t dim_ = 0;
  size_t num_groups_ = 0;  ///< ceil(k / kernels::kBatchLanes)
  /// The means and lower factors in mahalanobis_batch's interleaved
  /// layout; padding lanes hold a zero mean and the identity.
  std::vector<double> packed_means_;
  std::vector<double> packed_factors_;
};

/// Outcome of an EM run.
struct EmResult {
  GmmModel model;
  size_t iterations = 0;
  double log_likelihood = 0.0;
};

/// Builds the initial mixture from cluster cores per §5.4's two rounds:
/// first, mean/covariance of every core from its support set only; then
/// every point outside all support sets is attached to the core with the
/// smallest Mahalanobis distance, and the statistics are recomputed
/// including those points. Mixing weights are proportional to the final
/// member counts.
Result<GmmModel> InitializeFromCores(const data::Dataset& dataset,
                                     const std::vector<ClusterCore>& cores,
                                     const P3CParams& params,
                                     ThreadPool* pool);

/// Serial (multi-threaded, single-process) EM in the Arel subspace:
/// iterates soft E/M steps until the relative log-likelihood improvement
/// drops below params.em_tolerance or max_em_iterations is hit.
///
/// The sufficient statistics match §5.4's job decomposition (lC, wC, and
/// the covariance accumulation); the MapReduce pipeline computes the same
/// statistics with two jobs per step.
Result<EmResult> RunEm(const data::Dataset& dataset, GmmModel initial,
                       const P3CParams& params, ThreadPool* pool);

}  // namespace p3c::core

#endif  // P3C_CORE_GMM_H_
