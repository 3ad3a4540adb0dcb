// Tests of the BoW baseline: block partitioning, rectangle stitching and
// the sampling-induced quality behaviour the paper evaluates against.

#include "src/bow/bow.h"

#include <gtest/gtest.h>

#include <set>

#include "src/data/generator.h"
#include "src/eval/e4sc.h"

namespace p3c::bow {
namespace {

data::SyntheticData MakeData(uint64_t seed, size_t n = 12000) {
  data::GeneratorConfig config;
  config.num_points = n;
  config.num_dims = 50;
  config.num_clusters = 3;
  config.noise_fraction = 0.10;
  config.seed = seed;
  return data::GenerateSynthetic(config).value();
}

TEST(BoWTest, SingleBlockDegeneratesToPlugin) {
  const auto data = MakeData(81, 6000);
  BoWOptions options;
  options.samples_per_reducer = 100000;  // larger than n -> 1 block
  BoW bow{options};
  auto result = bow.Cluster(data.dataset);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(bow.num_blocks(), 1u);
  EXPECT_EQ(bow.num_merges(), 0u);
  const double e4sc = eval::E4SC(eval::FromGroundTruth(data.clusters),
                                 result->ToEvalClustering());
  EXPECT_GT(e4sc, 0.7);
}

TEST(BoWTest, MultiBlockStitchesClusters) {
  const auto data = MakeData(82);
  BoWOptions options;
  options.samples_per_reducer = 3000;  // 4 blocks
  BoW bow{options};
  auto result = bow.Cluster(data.dataset);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(bow.num_blocks(), 4u);
  // Each true cluster appears in every block; stitching must merge them.
  EXPECT_GT(bow.num_merges(), 0u);
  const double e4sc = eval::E4SC(eval::FromGroundTruth(data.clusters),
                                 result->ToEvalClustering());
  EXPECT_GT(e4sc, 0.6);
}

TEST(BoWTest, MvbVariantAlsoWorks) {
  const auto data = MakeData(83, 8000);
  BoWOptions options;
  options.variant = PluginVariant::kMVB;
  options.samples_per_reducer = 4000;
  BoW bow{options};
  auto result = bow.Cluster(data.dataset);
  ASSERT_TRUE(result.ok());
  const double e4sc = eval::E4SC(eval::FromGroundTruth(data.clusters),
                                 result->ToEvalClustering());
  EXPECT_GT(e4sc, 0.6);
}

TEST(BoWTest, PointsAssignedUniquely) {
  const auto data = MakeData(84, 6000);
  BoWOptions options;
  options.samples_per_reducer = 2000;
  BoW bow{options};
  auto result = bow.Cluster(data.dataset);
  ASSERT_TRUE(result.ok());
  std::set<data::PointId> seen;
  for (const auto& cluster : result->clusters) {
    for (data::PointId p : cluster.points) {
      EXPECT_TRUE(seen.insert(p).second) << "point in two clusters: " << p;
    }
  }
}

TEST(BoWTest, DeterministicForSeed) {
  const auto data = MakeData(85, 6000);
  BoWOptions options;
  options.samples_per_reducer = 2000;
  BoW a{options};
  BoW b{options};
  auto ra = a.Cluster(data.dataset);
  auto rb = b.Cluster(data.dataset);
  ASSERT_TRUE(ra.ok());
  ASSERT_TRUE(rb.ok());
  ASSERT_EQ(ra->clusters.size(), rb->clusters.size());
  for (size_t c = 0; c < ra->clusters.size(); ++c) {
    EXPECT_EQ(ra->clusters[c].points, rb->clusters[c].points);
  }
}

TEST(BoWTest, SamplingModeStillRecovers) {
  const auto data = MakeData(87, 10000);
  BoWOptions options;
  options.samples_per_reducer = 5000;
  options.sample_fraction = 0.4;  // cluster on 40% of each block
  BoW bow{options};
  auto result = bow.Cluster(data.dataset);
  ASSERT_TRUE(result.ok());
  const double e4sc = eval::E4SC(eval::FromGroundTruth(data.clusters),
                                 result->ToEvalClustering());
  EXPECT_GT(e4sc, 0.5);
  // All points still get assigned (assignment covers the full data).
  size_t assigned = 0;
  for (const auto& cluster : result->clusters) {
    assigned += cluster.points.size();
  }
  EXPECT_GT(assigned, 5000u);
}

TEST(BoWTest, SamplingModeClustersAFractionOfThePoints) {
  // Sampling saves the per-block clustering work on the points it skips;
  // assert on that work, not on two noisy tens-of-milliseconds timings.
  const auto data = MakeData(88, 20000);
  BoWOptions full;
  full.samples_per_reducer = 5000;
  BoWOptions sampled = full;
  sampled.sample_fraction = 0.2;
  BoW a{full};
  BoW b{sampled};
  auto ra = a.Cluster(data.dataset);
  auto rb = b.Cluster(data.dataset);
  ASSERT_TRUE(ra.ok());
  ASSERT_TRUE(rb.ok());
  EXPECT_EQ(a.num_points_clustered(), 20000u);
  EXPECT_LE(b.num_points_clustered(), a.num_points_clustered() / 5);
  EXPECT_GT(b.num_points_clustered(), 0u);
  EXPECT_EQ(b.num_blocks(), a.num_blocks());
}

TEST(BoWTest, RejectsBadInput) {
  BoW bow{BoWOptions{}};
  EXPECT_FALSE(bow.Cluster(data::Dataset()).ok());
}

TEST(BoWTest, TinyBlocksDegradeGracefully) {
  // Blocks too small to detect anything still produce a valid (possibly
  // empty) result, not a crash -- the degenerate end of the sampling
  // trade-off.
  const auto data = MakeData(86, 2000);
  BoWOptions options;
  options.samples_per_reducer = 100;
  BoW bow{options};
  auto result = bow.Cluster(data.dataset);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(bow.num_blocks(), 20u);
}

}  // namespace
}  // namespace p3c::bow
