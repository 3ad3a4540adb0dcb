// Tests of the Gaussian mixture machinery: evaluator numerics, EM
// convergence on separable mixtures, and core-based initialization.

#include "src/core/gmm.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <vector>

#include "src/common/random.h"
#include "src/data/generator.h"

namespace p3c::core {
namespace {

GmmModel TwoComponentModel() {
  GmmModel model;
  model.arel = {0, 1};
  GaussianComponent a;
  a.mean = {0.2, 0.2};
  a.cov = linalg::Matrix::Identity(2).Scale(0.01);
  a.weight = 0.5;
  GaussianComponent b;
  b.mean = {0.8, 0.8};
  b.cov = linalg::Matrix::Identity(2).Scale(0.01);
  b.weight = 0.5;
  model.components = {a, b};
  return model;
}

TEST(GmmModelTest, ProjectSelectsArelCoordinates) {
  GmmModel model;
  model.arel = {1, 3};
  const linalg::Vector x = model.Project(std::vector<double>{9, 8, 7, 6});
  EXPECT_EQ(x, (linalg::Vector{8, 6}));
}

TEST(GmmModelTest, RelevantAttributeUnion) {
  ClusterCore a;
  a.signature = Signature::Make({Interval{3, 0, 1}, Interval{1, 0, 1}}).value();
  ClusterCore b;
  b.signature = Signature::Make({Interval{1, 0, 0.5}, Interval{5, 0, 1}}).value();
  EXPECT_EQ(RelevantAttributeUnion({a, b}), (std::vector<size_t>{1, 3, 5}));
  EXPECT_TRUE(RelevantAttributeUnion({}).empty());
}

TEST(GmmEvaluatorTest, DensityIntegratesSensibly) {
  const GmmModel model = TwoComponentModel();
  Result<GmmEvaluator> eval = GmmEvaluator::Make(model, 1e-6);
  ASSERT_TRUE(eval.ok());
  linalg::Vector scratch;
  // Density at a component mean: log(w) + log(1/(2 pi sigma^2)) with
  // sigma^2 = 0.01 -> log(0.5) + log(1/(2 pi 0.01)).
  const double expected =
      std::log(0.5) - std::log(2.0 * M_PI * 0.01);
  EXPECT_NEAR(eval->LogWeightedDensity(0, {0.2, 0.2}, scratch), expected,
              1e-9);
}

TEST(GmmEvaluatorTest, HardAssignAndResponsibilities) {
  const GmmModel model = TwoComponentModel();
  Result<GmmEvaluator> eval = GmmEvaluator::Make(model, 1e-6);
  ASSERT_TRUE(eval.ok());
  linalg::Vector scratch;
  EXPECT_EQ(eval->HardAssign({0.25, 0.2}, scratch), 0u);
  EXPECT_EQ(eval->HardAssign({0.75, 0.8}, scratch), 1u);
  std::vector<double> r;
  const size_t argmax = eval->EStep({0.2, 0.2}, r, scratch).argmax;
  EXPECT_EQ(argmax, 0u);
  EXPECT_NEAR(r[0] + r[1], 1.0, 1e-12);
  EXPECT_GT(r[0], 0.999);
  // Exactly in the middle: symmetric responsibilities.
  eval->EStep({0.5, 0.5}, r, scratch);
  EXPECT_NEAR(r[0], 0.5, 1e-9);
}

TEST(GmmEvaluatorTest, MahalanobisSquared) {
  const GmmModel model = TwoComponentModel();
  Result<GmmEvaluator> eval = GmmEvaluator::Make(model, 1e-6);
  ASSERT_TRUE(eval.ok());
  linalg::Vector scratch;
  // Isotropic sigma^2 = 0.01: d^2 = |x - mu|^2 / 0.01.
  EXPECT_NEAR(eval->MahalanobisSquared(0, {0.3, 0.2}, scratch), 1.0, 1e-9);
  EXPECT_NEAR(eval->MahalanobisSquared(0, {0.2, 0.2}, scratch), 0.0, 1e-12);
}

TEST(GmmEvaluatorTest, RegularizesSingularCovariance) {
  GmmModel model = TwoComponentModel();
  model.components[0].cov = linalg::Matrix(2, 2);  // all zeros, singular
  Result<GmmEvaluator> eval = GmmEvaluator::Make(model, 1e-6);
  ASSERT_TRUE(eval.ok());  // ridge escalation must fix it
  linalg::Vector scratch;
  EXPECT_TRUE(std::isfinite(eval->LogWeightedDensity(0, {0.5, 0.5}, scratch)));
}

TEST(GmmEvaluatorTest, LogLikelihoodIsMixture) {
  const GmmModel model = TwoComponentModel();
  Result<GmmEvaluator> eval = GmmEvaluator::Make(model, 1e-6);
  ASSERT_TRUE(eval.ok());
  const linalg::Vector x = {0.5, 0.5};
  linalg::Vector scratch;
  const double direct = std::log(
      std::exp(eval->LogWeightedDensity(0, x, scratch)) +
      std::exp(eval->LogWeightedDensity(1, x, scratch)));
  std::vector<double> r;
  EXPECT_NEAR(eval->EStep(x, r, scratch).log_likelihood, direct, 1e-9);
}

/// Checks EStep bit for bit against a reference built from the separate
/// LogWeightedDensity evaluations: the first-maximum argmax, the
/// max-shifted softmax, and the log-sum-exp max + log(in-order sum).
/// Returns the reference log-densities for case-specific checks.
std::vector<double> ExpectEStepMatchesReference(const GmmEvaluator& eval,
                                                const linalg::Vector& x) {
  linalg::Vector scratch;
  const size_t k = eval.num_components();
  std::vector<double> logw(k);
  for (size_t c = 0; c < k; ++c) {
    logw[c] = eval.LogWeightedDensity(c, x, scratch);
  }
  size_t argmax = 0;
  double max_log = -std::numeric_limits<double>::infinity();
  for (size_t c = 0; c < k; ++c) {
    if (logw[c] > max_log) {
      max_log = logw[c];
      argmax = c;
    }
  }
  std::vector<double> expected_r(k);
  double sum = 0.0;
  for (size_t c = 0; c < k; ++c) {
    expected_r[c] = std::exp(logw[c] - max_log);
    sum += expected_r[c];
  }
  for (double& v : expected_r) v /= sum;

  std::vector<double> r;
  const GmmEvaluator::Posterior posterior = eval.EStep(x, r, scratch);
  EXPECT_EQ(posterior.argmax, argmax);
  EXPECT_EQ(posterior.log_likelihood, max_log + std::log(sum));
  EXPECT_EQ(r, expected_r);
  EXPECT_EQ(eval.HardAssign(x, scratch), argmax);
  return logw;
}

TEST(GmmEvaluatorTest, EStepMatchesSeparateEvaluationsOrdinaryPoint) {
  const Result<GmmEvaluator> eval =
      GmmEvaluator::Make(TwoComponentModel(), 1e-6);
  ASSERT_TRUE(eval.ok());
  ExpectEStepMatchesReference(*eval, {0.3, 0.45});
}

TEST(GmmEvaluatorTest, EStepMatchesSeparateEvaluationsFarFromEveryComponent) {
  const Result<GmmEvaluator> eval =
      GmmEvaluator::Make(TwoComponentModel(), 1e-6);
  ASSERT_TRUE(eval.ok());
  const std::vector<double> logw =
      ExpectEStepMatchesReference(*eval, {5.0, 5.0});
  // Every density underflows exp() unshifted, yet the max shift keeps
  // the responsibilities and the log-likelihood finite.
  for (double l : logw) {
    EXPECT_LT(l, -745.0);
    EXPECT_EQ(std::exp(l), 0.0);
  }
  std::vector<double> r;
  linalg::Vector scratch;
  const double ll = eval->EStep({5.0, 5.0}, r, scratch).log_likelihood;
  EXPECT_TRUE(std::isfinite(ll));
  EXPECT_NEAR(r[0] + r[1], 1.0, 1e-12);
}

TEST(GmmEvaluatorTest, EStepTieGoesToTheLowestIndex) {
  // Components 1 and 2 sit at exactly +-0.25 (binary-exact) from x with
  // equal weights and covariances, so their densities tie bit for bit;
  // component 0 is far away.
  GmmModel model;
  model.arel = {0, 1};
  for (const linalg::Vector& mean :
       {linalg::Vector{0.9, 0.1}, linalg::Vector{0.25, 0.25},
        linalg::Vector{0.75, 0.75}}) {
    model.components.push_back(GaussianComponent{
        mean, linalg::Matrix::Identity(2).Scale(0.01), 1.0 / 3.0});
  }
  const Result<GmmEvaluator> eval = GmmEvaluator::Make(model, 1e-6);
  ASSERT_TRUE(eval.ok());
  const std::vector<double> logw =
      ExpectEStepMatchesReference(*eval, {0.5, 0.5});
  ASSERT_EQ(logw[1], logw[2]);
  std::vector<double> r;
  linalg::Vector scratch;
  EXPECT_EQ(eval->EStep({0.5, 0.5}, r, scratch).argmax, 1u);
  EXPECT_EQ(r[1], r[2]);
}

data::Dataset TwoBlobData(size_t n, Rng& rng) {
  data::Dataset d(n, 2);
  for (size_t i = 0; i < n; ++i) {
    const double cx = i < n / 2 ? 0.25 : 0.75;
    d.Set(static_cast<data::PointId>(i), 0,
          rng.TruncatedGaussian(cx, 0.05, 0.0, 1.0));
    d.Set(static_cast<data::PointId>(i), 1,
          rng.TruncatedGaussian(cx, 0.05, 0.0, 1.0));
  }
  return d;
}

TEST(EmTest, RecoversTwoBlobMeans) {
  Rng rng(21);
  const data::Dataset d = TwoBlobData(2000, rng);
  GmmModel init;
  init.arel = {0, 1};
  GaussianComponent a;
  a.mean = {0.4, 0.4};  // deliberately offset starts
  a.cov = linalg::Matrix::Identity(2).Scale(0.05);
  a.weight = 0.5;
  GaussianComponent b = a;
  b.mean = {0.6, 0.6};
  init.components = {a, b};

  P3CParams params;
  Result<EmResult> result = RunEm(d, init, params, nullptr);
  ASSERT_TRUE(result.ok());
  EXPECT_GT(result->iterations, 1u);
  // Components converge to the blob centers (order fixed by the init).
  EXPECT_NEAR(result->model.components[0].mean[0], 0.25, 0.02);
  EXPECT_NEAR(result->model.components[1].mean[0], 0.75, 0.02);
  EXPECT_NEAR(result->model.components[0].weight, 0.5, 0.05);
}

TEST(EmTest, LogLikelihoodNonDecreasing) {
  Rng rng(22);
  const data::Dataset d = TwoBlobData(1000, rng);
  GmmModel model;
  model.arel = {0, 1};
  GaussianComponent a;
  a.mean = {0.3, 0.5};
  a.cov = linalg::Matrix::Identity(2).Scale(0.05);
  a.weight = 0.5;
  GaussianComponent b = a;
  b.mean = {0.7, 0.5};
  model.components = {a, b};

  P3CParams params;
  params.em_tolerance = 0.0;  // run all iterations
  double prev = -1e300;
  for (int step = 0; step < 5; ++step) {
    params.max_em_iterations = 1;
    Result<EmResult> result = RunEm(d, model, params, nullptr);
    ASSERT_TRUE(result.ok());
    EXPECT_GE(result->log_likelihood, prev - 1e-6) << "step " << step;
    prev = result->log_likelihood;
    model = result->model;
  }
}

TEST(EmTest, ParallelMatchesSerial) {
  Rng rng(23);
  const data::Dataset d = TwoBlobData(1500, rng);
  GmmModel init;
  init.arel = {0, 1};
  GaussianComponent a;
  a.mean = {0.3, 0.3};
  a.cov = linalg::Matrix::Identity(2).Scale(0.05);
  a.weight = 0.5;
  GaussianComponent b = a;
  b.mean = {0.7, 0.7};
  init.components = {a, b};
  P3CParams params;
  params.max_em_iterations = 3;

  Result<EmResult> serial = RunEm(d, init, params, nullptr);
  ThreadPool pool(4);
  Result<EmResult> parallel = RunEm(d, init, params, &pool);
  ASSERT_TRUE(serial.ok());
  ASSERT_TRUE(parallel.ok());
  for (size_t c = 0; c < 2; ++c) {
    for (size_t j = 0; j < 2; ++j) {
      EXPECT_NEAR(serial->model.components[c].mean[j],
                  parallel->model.components[c].mean[j], 1e-9);
    }
  }
  EXPECT_NEAR(serial->log_likelihood, parallel->log_likelihood, 1e-6);
}

TEST(EmTest, RejectsEmptyInputs) {
  GmmModel model;
  model.arel = {0};
  EXPECT_FALSE(RunEm(data::Dataset(), model, P3CParams{}, nullptr).ok());
}

TEST(InitializeFromCoresTest, MeansInsideCoreIntervals) {
  data::GeneratorConfig config;
  config.num_points = 5000;
  config.num_dims = 10;
  config.num_clusters = 2;
  config.noise_fraction = 0.10;
  config.min_cluster_dims = 2;
  config.max_cluster_dims = 3;
  config.force_overlap = false;
  config.seed = 13;
  const auto data = data::GenerateSynthetic(config).value();

  std::vector<ClusterCore> cores;
  for (const auto& cluster : data.clusters) {
    std::vector<Interval> intervals;
    for (size_t j = 0; j < cluster.relevant_attrs.size(); ++j) {
      intervals.push_back({cluster.relevant_attrs[j],
                           cluster.intervals[j].first,
                           cluster.intervals[j].second});
    }
    ClusterCore core;
    core.signature = Signature::Make(std::move(intervals)).value();
    core.support = cluster.points.size();
    core.expected_support = 1.0;
    cores.push_back(std::move(core));
  }

  P3CParams params;
  Result<GmmModel> model = InitializeFromCores(data.dataset, cores, params,
                                               nullptr);
  ASSERT_TRUE(model.ok());
  EXPECT_EQ(model->num_components(), 2u);
  EXPECT_EQ(model->arel, RelevantAttributeUnion(cores));
  // Each component's mean must sit inside its core's intervals on the
  // core's own attributes.
  for (size_t c = 0; c < 2; ++c) {
    for (const Interval& interval : cores[c].signature.intervals()) {
      const auto it = std::find(model->arel.begin(), model->arel.end(),
                                interval.attr);
      ASSERT_NE(it, model->arel.end());
      const size_t idx = static_cast<size_t>(it - model->arel.begin());
      const double mean = model->components[c].mean[idx];
      EXPECT_GE(mean, interval.lower - 0.05);
      EXPECT_LE(mean, interval.upper + 0.05);
    }
  }
  // Weights are positive and sum to 1.
  double total = 0.0;
  for (const auto& comp : model->components) {
    EXPECT_GT(comp.weight, 0.0);
    total += comp.weight;
  }
  EXPECT_NEAR(total, 1.0, 1e-9);
}

TEST(InitializeFromCoresTest, RejectsEmptyCores) {
  EXPECT_FALSE(
      InitializeFromCores(data::Dataset(2, 2), {}, P3CParams{}, nullptr).ok());
}

}  // namespace
}  // namespace p3c::core
