// Tests of the individual MapReduce jobs against their serial-pipeline
// counterparts: each job must compute exactly the same statistic.

#include "src/mr/jobs.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "src/common/random.h"
#include "src/core/attribute_inspection.h"
#include "src/core/interval_tightening.h"
#include "src/core/support_counter.h"
#include "src/data/generator.h"
#include "src/stats/chi_squared.h"

namespace p3c::mr {
namespace {

data::SyntheticData MakeData(uint64_t seed, size_t n = 3000) {
  data::GeneratorConfig config;
  config.num_points = n;
  config.num_dims = 12;
  config.num_clusters = 2;
  config.noise_fraction = 0.10;
  config.min_cluster_dims = 2;
  config.max_cluster_dims = 4;
  config.force_overlap = false;
  config.seed = seed;
  return data::GenerateSynthetic(config).value();
}

LocalRunner MakeRunner() {
  RunnerOptions options;
  options.num_threads = 4;
  options.records_per_split = 500;
  return LocalRunner(options);
}

TEST(HistogramJobTest, MatchesDirectHistograms) {
  const auto data = MakeData(61);
  LocalRunner runner = MakeRunner();
  const auto job = RunHistogramJob(runner, data.dataset,
                                   stats::BinningRule::kFreedmanDiaconis)
                       .value();
  ASSERT_EQ(job.size(), 12u);
  // Direct computation.
  const size_t bins = stats::FreedmanDiaconisBins(data.dataset.num_points());
  for (size_t attr = 0; attr < 12; ++attr) {
    stats::Histogram direct(bins);
    for (size_t i = 0; i < data.dataset.num_points(); ++i) {
      direct.Add(data.dataset.Get(static_cast<data::PointId>(i), attr));
    }
    EXPECT_EQ(job[attr].counts(), direct.counts()) << "attr " << attr;
  }
}

TEST(SupportJobTest, MatchesSerialCounter) {
  const auto data = MakeData(62);
  LocalRunner runner = MakeRunner();
  std::vector<core::Signature> sigs;
  Rng rng(5);
  for (int s = 0; s < 25; ++s) {
    const size_t attr = rng.UniformInt(12);
    const double lo = rng.Uniform(0.0, 0.7);
    sigs.push_back(core::Signature::Single({attr, lo, lo + 0.25}));
  }
  const auto job = RunSupportJob(runner, data.dataset, sigs).value();
  const auto serial = core::CountSupports(data.dataset, sigs, nullptr);
  EXPECT_EQ(job, serial);
  EXPECT_TRUE(RunSupportJob(runner, data.dataset, {}).value().empty());
}

class UniformWeightMembership : public MembershipFn {
 public:
  double Contributions(
      data::PointId point, const linalg::Vector& x,
      std::vector<std::pair<uint32_t, double>>& out) const override {
    (void)x;
    // Even points to component 0 with weight 1, odd to 1 with weight 0.5.
    if (point % 2 == 0) {
      out.emplace_back(0, 1.0);
    } else {
      out.emplace_back(1, 0.5);
    }
    return 1.0;  // one per point: easy to verify the reducer sum
  }
};

TEST(MomentJobTest, SumsMatchDirectComputation) {
  const auto data = MakeData(63, 1000);
  LocalRunner runner = MakeRunner();
  core::GmmModel model;
  model.arel = {0, 3};
  model.components.assign(
      2, core::GaussianComponent{linalg::Vector(2, 0.5),
                                 linalg::Matrix::Identity(2), 0.5});
  UniformWeightMembership membership;
  const MomentSums sums =
      RunMomentJob(runner, data.dataset, model, membership, "test-moments")
          .value();
  // Direct sums.
  double w0 = 0.0;
  double w1 = 0.0;
  linalg::Vector l0(2, 0.0);
  linalg::Vector l1(2, 0.0);
  for (size_t i = 0; i < 1000; ++i) {
    const auto x = model.Project(data.dataset.Row(static_cast<data::PointId>(i)));
    if (i % 2 == 0) {
      w0 += 1.0;
      for (int j = 0; j < 2; ++j) l0[j] += x[j];
    } else {
      w1 += 0.5;
      for (int j = 0; j < 2; ++j) l1[j] += 0.5 * x[j];
    }
  }
  EXPECT_NEAR(sums.w[0], w0, 1e-9);
  EXPECT_NEAR(sums.w[1], w1, 1e-9);
  for (int j = 0; j < 2; ++j) {
    EXPECT_NEAR(sums.lsum[0][j], l0[j], 1e-9);
    EXPECT_NEAR(sums.lsum[1][j], l1[j], 1e-9);
  }
  EXPECT_NEAR(sums.log_likelihood, 1000.0, 1e-9);
}

TEST(MrJobsTest, SoftMomentJobLogLikelihoodIsTheInOrderSerialSum) {
  const size_t n = 1200;
  const auto data = MakeData(70, n);
  RunnerOptions options;
  options.num_threads = 2;
  options.records_per_split = n;  // one split: one in-order map task
  LocalRunner runner(options);
  core::GmmModel model;
  model.arel = {0, 1, 2};
  model.components = {
      core::GaussianComponent{linalg::Vector(3, 0.3),
                              linalg::Matrix::Identity(3).Scale(0.02), 0.4},
      core::GaussianComponent{linalg::Vector(3, 0.7),
                              linalg::Matrix::Identity(3).Scale(0.05), 0.6}};
  const auto evaluator = core::GmmEvaluator::Make(model, 1e-6);
  ASSERT_TRUE(evaluator.ok());
  const SoftMembership soft(*evaluator);
  const MomentSums sums =
      RunMomentJob(runner, data.dataset, model, soft, "test-soft-moments")
          .value();
  // Serial reference: per point, the log-sum-exp of the separately
  // evaluated component densities, summed in point order.
  linalg::Vector scratch;
  double serial = 0.0;
  for (size_t i = 0; i < n; ++i) {
    const auto x =
        model.Project(data.dataset.Row(static_cast<data::PointId>(i)));
    const double l0 = evaluator->LogWeightedDensity(0, x, scratch);
    const double l1 = evaluator->LogWeightedDensity(1, x, scratch);
    const double max_log = std::max(l0, l1);
    serial += max_log +
              std::log(std::exp(l0 - max_log) + std::exp(l1 - max_log));
  }
  EXPECT_LT(serial, 0.0);
  EXPECT_EQ(sums.log_likelihood, serial);
}

TEST(CovarianceJobTest, MatchesDirectOuterProducts) {
  const auto data = MakeData(64, 600);
  LocalRunner runner = MakeRunner();
  core::GmmModel model;
  model.arel = {1, 2};
  model.components.assign(
      2, core::GaussianComponent{linalg::Vector(2, 0.5),
                                 linalg::Matrix::Identity(2), 0.5});
  UniformWeightMembership membership;
  const std::vector<linalg::Vector> means = {{0.4, 0.6}, {0.5, 0.5}};
  const auto covs = RunCovarianceJob(runner, data.dataset, model, membership,
                                     means, "test-covs")
                        .value();
  linalg::Matrix direct0(2, 2);
  linalg::Matrix direct1(2, 2);
  for (size_t i = 0; i < 600; ++i) {
    const auto x = model.Project(data.dataset.Row(static_cast<data::PointId>(i)));
    if (i % 2 == 0) {
      direct0.AddOuterProduct(linalg::VecSub(x, means[0]), 1.0);
    } else {
      direct1.AddOuterProduct(linalg::VecSub(x, means[1]), 0.5);
    }
  }
  EXPECT_LT(covs[0].MaxAbsDiff(direct0), 1e-9);
  EXPECT_LT(covs[1].MaxAbsDiff(direct1), 1e-9);
}

TEST(ClusterHistogramJobTest, MatchesMemberHistograms) {
  const auto data = MakeData(65, 2000);
  LocalRunner runner = MakeRunner();
  // Membership: ground-truth labels (noise -> -1).
  std::vector<int32_t> membership(data.labels.begin(), data.labels.end());
  std::vector<uint64_t> counts(2, 0);
  for (int32_t c : membership) {
    if (c >= 0) ++counts[static_cast<size_t>(c)];
  }
  std::vector<size_t> bins = {stats::FreedmanDiaconisBins(counts[0]),
                              stats::FreedmanDiaconisBins(counts[1])};
  const auto job =
      RunClusterHistogramJob(runner, data.dataset, membership, 2, bins)
          .value();
  ASSERT_EQ(job.size(), 2u);
  for (size_t c = 0; c < 2; ++c) {
    std::vector<data::PointId> members;
    for (size_t i = 0; i < membership.size(); ++i) {
      if (membership[i] == static_cast<int32_t>(c)) {
        members.push_back(static_cast<data::PointId>(i));
      }
    }
    const auto direct = core::BuildMemberHistograms(
        data.dataset, members,
        core::MemberHistogramBins(stats::BinningRule::kFreedmanDiaconis,
                                  members.size()));
    for (size_t attr = 0; attr < data.dataset.num_dims(); ++attr) {
      EXPECT_EQ(job[c][attr].counts(), direct[attr].counts());
    }
  }
}

TEST(TighteningJobTest, MatchesSerialTightening) {
  const auto data = MakeData(66, 1500);
  LocalRunner runner = MakeRunner();
  std::vector<int32_t> membership(data.labels.begin(), data.labels.end());
  const std::vector<std::vector<size_t>> attrs = {
      data.clusters[0].relevant_attrs, data.clusters[1].relevant_attrs};
  const auto job =
      RunTighteningJob(runner, data.dataset, membership, attrs).value();
  ASSERT_EQ(job.size(), 2u);
  for (size_t c = 0; c < 2; ++c) {
    std::vector<data::PointId> members;
    for (size_t i = 0; i < membership.size(); ++i) {
      if (membership[i] == static_cast<int32_t>(c)) {
        members.push_back(static_cast<data::PointId>(i));
      }
    }
    const auto direct =
        core::TightenIntervals(data.dataset, members, attrs[c]);
    ASSERT_EQ(job[c].size(), direct.size());
    for (size_t a = 0; a < direct.size(); ++a) {
      EXPECT_EQ(job[c][a].attr, direct[a].attr);
      EXPECT_DOUBLE_EQ(job[c][a].lower, direct[a].lower);
      EXPECT_DOUBLE_EQ(job[c][a].upper, direct[a].upper);
    }
  }
}

TEST(SupportSetJobTest, MatchesSerialSupportSets) {
  const auto data = MakeData(67, 1200);
  LocalRunner runner = MakeRunner();
  std::vector<core::Signature> sigs;
  for (const auto& cluster : data.clusters) {
    std::vector<core::Interval> intervals;
    for (size_t j = 0; j < cluster.relevant_attrs.size(); ++j) {
      intervals.push_back({cluster.relevant_attrs[j],
                           cluster.intervals[j].first,
                           cluster.intervals[j].second});
    }
    sigs.push_back(core::Signature::Make(std::move(intervals)).value());
  }
  const auto job = RunSupportSetJob(runner, data.dataset, sigs).value();
  const auto serial = core::ComputeSupportSets(data.dataset, sigs, nullptr);
  const auto unique = core::UniqueAssignments(data.dataset, sigs, nullptr);
  EXPECT_EQ(job.support_sets, serial);
  EXPECT_EQ(job.unique_assignment, unique);
}

TEST(MvbBallJobTest, BallNearClusterCenter) {
  const auto data = MakeData(68, 4000);
  LocalRunner runner = MakeRunner();
  // Model: one component per hidden cluster, centered on the rectangle.
  core::GmmModel model;
  model.arel = core::RelevantAttributeUnion({});
  // Build arel as union of ground-truth attrs.
  std::vector<size_t> arel;
  for (const auto& cluster : data.clusters) {
    arel.insert(arel.end(), cluster.relevant_attrs.begin(),
                cluster.relevant_attrs.end());
  }
  std::sort(arel.begin(), arel.end());
  arel.erase(std::unique(arel.begin(), arel.end()), arel.end());
  model.arel = arel;
  for (const auto& cluster : data.clusters) {
    core::GaussianComponent comp;
    comp.mean.assign(arel.size(), 0.5);
    for (size_t j = 0; j < cluster.relevant_attrs.size(); ++j) {
      const auto it = std::find(arel.begin(), arel.end(),
                                cluster.relevant_attrs[j]);
      comp.mean[static_cast<size_t>(it - arel.begin())] =
          0.5 * (cluster.intervals[j].first + cluster.intervals[j].second);
    }
    comp.cov = linalg::Matrix::Identity(arel.size()).Scale(0.02);
    comp.weight = 0.5;
    model.components.push_back(std::move(comp));
  }
  auto evaluator = core::GmmEvaluator::Make(model, 1e-6);
  ASSERT_TRUE(evaluator.ok());
  const auto balls =
      RunMvbBallJob(runner, data.dataset, model, *evaluator).value();
  ASSERT_EQ(balls.size(), 2u);
  for (size_t c = 0; c < 2; ++c) {
    ASSERT_FALSE(balls[c].center.empty());
    EXPECT_GT(balls[c].radius, 0.0);
    // Center close to the component mean on the cluster's own attrs.
    for (size_t j = 0; j < data.clusters[c].relevant_attrs.size(); ++j) {
      const auto it = std::find(arel.begin(), arel.end(),
                                data.clusters[c].relevant_attrs[j]);
      const size_t idx = static_cast<size_t>(it - arel.begin());
      EXPECT_NEAR(balls[c].center[idx], model.components[c].mean[idx], 0.1);
    }
  }
}

TEST(OdJobTest, FlagsFarPoints) {
  const auto data = MakeData(69, 2500);
  LocalRunner runner = MakeRunner();
  core::GmmModel model;
  model.arel = {0, 1};
  model.components.assign(
      1, core::GaussianComponent{linalg::Vector(2, 0.5),
                                 linalg::Matrix::Identity(2).Scale(0.01),
                                 1.0});
  auto evaluator = core::GmmEvaluator::Make(model, 1e-6);
  ASSERT_TRUE(evaluator.ok());
  std::vector<linalg::Vector> centers = {model.components[0].mean};
  linalg::Matrix cov = model.components[0].cov;
  auto factor = linalg::Cholesky::Factorize(cov);
  ASSERT_TRUE(factor.ok());
  std::vector<linalg::Cholesky> factors;
  factors.push_back(std::move(factor).value());
  const double critical =
      stats::ChiSquaredQuantile(0.999, 2.0);
  const auto assignment = RunOdJob(runner, data.dataset, model, *evaluator,
                                   centers, factors, critical)
                              .value();
  ASSERT_EQ(assignment.size(), data.dataset.num_points());
  // Verify against a direct evaluation per point.
  for (size_t i = 0; i < assignment.size(); ++i) {
    const auto x = model.Project(data.dataset.Row(static_cast<data::PointId>(i)));
    const double d2 = factors[0].MahalanobisSquared(x, centers[0]);
    EXPECT_EQ(assignment[i], d2 > critical ? -1 : 0) << i;
  }
}

}  // namespace
}  // namespace p3c::mr
