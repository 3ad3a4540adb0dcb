#include "src/core/outlier.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "src/core/robust.h"
#include "src/linalg/cholesky.h"
#include "src/stats/chi_squared.h"
#include "src/stats/descriptive.h"

namespace p3c::core {

MvbStatistics ComputeMvbStatistics(const std::vector<linalg::Vector>& members) {
  MvbStatistics stats;
  stats.num_members = members.size();
  if (members.empty()) return stats;
  const size_t dim = members.front().size();

  // Dimension-wise median center.
  stats.center.resize(dim);
  std::vector<double> column(members.size());
  for (size_t j = 0; j < dim; ++j) {
    for (size_t i = 0; i < members.size(); ++i) column[i] = members[i][j];
    stats.center[j] = stats::Median(column);
  }

  // Radius: median Euclidean distance to the center.
  std::vector<double> distances(members.size());
  for (size_t i = 0; i < members.size(); ++i) {
    distances[i] = std::sqrt(linalg::SquaredDistance(members[i], stats.center));
  }
  stats.radius = stats::Median(distances);

  // Mean/covariance of the in-ball points (about half of the cluster).
  linalg::Vector sum(dim, 0.0);
  linalg::Matrix outer(dim, dim);
  uint64_t in_ball = 0;
  for (size_t i = 0; i < members.size(); ++i) {
    if (distances[i] <= stats.radius) {
      ++in_ball;
      for (size_t j = 0; j < dim; ++j) sum[j] += members[i][j];
      outer.AddOuterProduct(members[i], 1.0);
    }
  }
  stats.num_in_ball = in_ball;
  if (in_ball == 0) {
    stats.mean = stats.center;
    stats.cov = linalg::Matrix::Identity(dim).Scale(1e-2);
    return stats;
  }
  const double w = static_cast<double>(in_ball);
  stats.mean.resize(dim);
  for (size_t j = 0; j < dim; ++j) stats.mean[j] = sum[j] / w;
  // Unbiased covariance (w/(w^2 - w) = 1/(w-1) for unit weights), the
  // §5.4 estimator; degenerate single-point balls keep a small identity.
  if (in_ball < 2) {
    stats.cov = linalg::Matrix::Identity(dim).Scale(1e-2);
    return stats;
  }
  stats.cov = outer;
  for (size_t i = 0; i < dim; ++i) {
    for (size_t j = 0; j < dim; ++j) {
      stats.cov(i, j) -= w * stats.mean[i] * stats.mean[j];
    }
  }
  stats.cov = stats.cov.Scale(1.0 / (w - 1.0));
  return stats;
}

void ApplyMvbConsistencyCorrection(linalg::Matrix& cov, size_t dim) {
  if (dim == 0) return;
  const double df = static_cast<double>(dim);
  const double median_q = stats::ChiSquaredQuantile(0.5, df);
  const double mass = stats::ChiSquaredCdf(median_q, df + 2.0);
  if (mass <= 0.0) return;
  cov = cov.Scale(0.5 / mass);
}

Result<OutlierDetectionResult> DetectOutliers(const data::Dataset& dataset,
                                              const GmmModel& model,
                                              const P3CParams& params,
                                              ThreadPool* pool) {
  const size_t n = dataset.num_points();
  const size_t k = model.num_components();
  const size_t dim = model.dim();
  OutlierDetectionResult result;
  result.assignment.assign(n, -1);
  if (k == 0) return result;

  Result<GmmEvaluator> evaluator =
      GmmEvaluator::Make(model, params.covariance_ridge);
  if (!evaluator.ok()) return evaluator.status();

  const double critical =
      stats::ChiSquaredQuantile(1.0 - params.outlier_alpha,
                                static_cast<double>(dim));

  // Hard-assign every point to its argmax-posterior component first; both
  // modes need it (the membership candidate of the OD job).
  std::vector<int32_t> hard(n, 0);
  ForEachRange(n, pool, [&](size_t, size_t begin, size_t end) {
    linalg::Vector x;
    linalg::Vector scratch;
    for (size_t i = begin; i < end; ++i) {
      model.Project(dataset.Row(static_cast<data::PointId>(i)), x);
      hard[i] = static_cast<int32_t>(evaluator->HardAssign(x, scratch));
    }
  });

  if (params.outlier == OutlierMode::kNaive) {
    ForEachRange(n, pool, [&](size_t, size_t begin, size_t end) {
      linalg::Vector x;
      linalg::Vector scratch;
      for (size_t i = begin; i < end; ++i) {
        model.Project(dataset.Row(static_cast<data::PointId>(i)), x);
        const double d2 = evaluator->MahalanobisSquared(
            static_cast<size_t>(hard[i]), x, scratch);
        result.assignment[i] = d2 > critical ? -1 : hard[i];
      }
    });
    return result;
  }

  // ---- Robust modes (MVB / MCD) ------------------------------------------
  // Gather members per cluster (projected coordinates).
  std::vector<std::vector<linalg::Vector>> members(k);
  for (size_t i = 0; i < n; ++i) {
    members[static_cast<size_t>(hard[i])].push_back(
        model.Project(dataset.Row(static_cast<data::PointId>(i))));
  }
  // Robust center/covariance per cluster.
  std::vector<linalg::Vector> centers(k);
  std::vector<linalg::Matrix> covs(k);
  if (params.outlier == OutlierMode::kMVB) {
    result.mvb.resize(k);
    for (size_t c = 0; c < k; ++c) {
      result.mvb[c] = ComputeMvbStatistics(members[c]);
      if (result.mvb[c].mean.empty()) {
        // Empty cluster: no member can be tested against it anyway; use a
        // unit placeholder.
        result.mvb[c].mean.assign(dim, 0.5);
        result.mvb[c].cov = linalg::Matrix::Identity(dim);
      }
      centers[c] = result.mvb[c].mean;
      covs[c] = result.mvb[c].cov;
    }
  } else {  // kMCD
    for (size_t c = 0; c < k; ++c) {
      if (members[c].empty()) {
        centers[c].assign(dim, 0.5);
        covs[c] = linalg::Matrix::Identity(dim);
        continue;
      }
      McdOptions mcd_options;
      mcd_options.ridge = params.covariance_ridge;
      mcd_options.seed = 17 + c;
      const McdResult mcd = ComputeMcd(members[c], mcd_options);
      centers[c] = mcd.mean;
      covs[c] = mcd.cov;
    }
  }

  std::vector<linalg::Cholesky> factors;
  factors.reserve(k);
  for (size_t c = 0; c < k; ++c) {
    linalg::Matrix cov = covs[c];
    // Both robust estimators cover ~half the mass; the same consistency
    // factor rescales them to the full-population covariance.
    ApplyMvbConsistencyCorrection(cov, dim);
    Result<linalg::Cholesky> chol = linalg::Cholesky::Factorize(cov);
    double eps = params.covariance_ridge;
    while (!chol.ok() && eps < 1.0) {
      cov.AddToDiagonal(eps);
      chol = linalg::Cholesky::Factorize(cov);
      eps *= 10.0;
    }
    if (!chol.ok()) {
      return Status::Internal("robust covariance not factorizable");
    }
    factors.push_back(std::move(chol).value());
  }

  ForEachRange(n, pool, [&](size_t, size_t begin, size_t end) {
    linalg::Vector x;
    linalg::Vector scratch;
    for (size_t i = begin; i < end; ++i) {
      model.Project(dataset.Row(static_cast<data::PointId>(i)), x);
      const auto c = static_cast<size_t>(hard[i]);
      const double d2 = factors[c].MahalanobisSquared(x, centers[c], scratch);
      result.assignment[i] = d2 > critical ? -1 : hard[i];
    }
  });
  return result;
}

}  // namespace p3c::core
