// Differential test of the three P3C+ executors under the one driver:
// the in-memory thread pool, the MapReduce runner and the block stream
// must produce the same P3C+-Light model on the same data and
// parameters, whatever the thread count, split size or block size.
//
// Runs alone under the parity-smoke ctest label
// (tools/run_sanitizers.sh parity-smoke).

#include <gtest/gtest.h>

#include <cstdio>
#include <ostream>
#include <string>
#include <vector>

#include "src/core/p3c.h"
#include "src/core/streaming.h"
#include "src/core/support_counter.h"
#include "src/data/generator.h"
#include "src/data/io.h"
#include "src/mr/p3c_mr.h"

namespace p3c {
namespace {

struct GridPoint {
  size_t points;
  size_t dims;
  size_t clusters;
  double noise;
  double min_width;
  double max_width;
  uint64_t seed;
};

std::string Name(const GridPoint& g) {
  return std::to_string(g.points) + "x" + std::to_string(g.dims) + "_k" +
         std::to_string(g.clusters) + "_noise" +
         std::to_string(static_cast<int>(g.noise * 100)) + "_w" +
         std::to_string(static_cast<int>(g.min_width * 100)) + "to" +
         std::to_string(static_cast<int>(g.max_width * 100)) + "_seed" +
         std::to_string(g.seed);
}

void PrintTo(const GridPoint& g, std::ostream* os) { *os << Name(g); }

/// Block sizes of the stream runs: 500 divides some grid sizes, 777
/// divides none of them, so a short last block is always covered.
constexpr size_t kBlockRows[] = {500, 777};

void ExpectSameStats(const core::CoreDetectionStats& a,
                     const core::CoreDetectionStats& b) {
  EXPECT_EQ(a.num_levels, b.num_levels);
  EXPECT_EQ(a.num_candidates_generated, b.num_candidates_generated);
  EXPECT_EQ(a.num_signatures_counted, b.num_signatures_counted);
  EXPECT_EQ(a.num_proven, b.num_proven);
  EXPECT_EQ(a.num_support_batches, b.num_support_batches);
  EXPECT_EQ(a.num_maximal, b.num_maximal);
  EXPECT_EQ(a.num_after_redundancy, b.num_after_redundancy);
  EXPECT_EQ(a.truncated, b.truncated);
}

void ExpectSameIntervals(const std::vector<core::Interval>& a,
                         const std::vector<core::Interval>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t j = 0; j < a.size(); ++j) {
    EXPECT_EQ(a[j].attr, b[j].attr);
    EXPECT_EQ(a[j].lower, b[j].lower);  // bit-identical, not approximate
    EXPECT_EQ(a[j].upper, b[j].upper);
  }
}

/// Materialized results (in-memory, MapReduce): identical cores,
/// supports, attrs, intervals and point lists.
void ExpectSameResult(const core::ClusteringResult& want,
                      const core::ClusteringResult& got) {
  ExpectSameStats(want.core_stats, got.core_stats);
  ASSERT_EQ(want.cores.size(), got.cores.size());
  for (size_t c = 0; c < want.cores.size(); ++c) {
    EXPECT_EQ(want.cores[c].signature, got.cores[c].signature);
    EXPECT_EQ(want.cores[c].support, got.cores[c].support);
  }
  EXPECT_EQ(want.arel, got.arel);
  ASSERT_EQ(want.clusters.size(), got.clusters.size());
  for (size_t c = 0; c < want.clusters.size(); ++c) {
    EXPECT_EQ(want.clusters[c].attrs, got.clusters[c].attrs);
    ExpectSameIntervals(want.clusters[c].intervals, got.clusters[c].intervals);
    EXPECT_EQ(want.clusters[c].points, got.clusters[c].points);
  }
}

class PipelineParityTest : public ::testing::TestWithParam<GridPoint> {};

TEST_P(PipelineParityTest, LightIsIdenticalOnEveryExecutor) {
  const GridPoint& g = GetParam();
  data::GeneratorConfig config;
  config.num_points = g.points;
  config.num_dims = g.dims;
  config.num_clusters = g.clusters;
  config.noise_fraction = g.noise;
  config.min_interval_width = g.min_width;
  config.max_interval_width = g.max_width;
  config.max_cluster_dims = std::min<size_t>(config.max_cluster_dims, g.dims);
  config.seed = g.seed;
  Result<data::SyntheticData> data = data::GenerateSynthetic(config);
  ASSERT_TRUE(data.ok()) << data.status().ToString();
  const data::Dataset& dataset = data->dataset;

  // One parameter set for every executor, candidate collection pinned.
  core::P3CParams params = core::StreamingLightParams();
  params.multilevel_candidates = true;
  params.t_c = 2000;

  core::P3CPipeline reference_pipeline{params, /*num_threads=*/1};
  Result<core::ClusteringResult> reference =
      reference_pipeline.Cluster(dataset);
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();

  {
    SCOPED_TRACE("in-memory, 4 threads");
    core::P3CPipeline pipeline{params, /*num_threads=*/4};
    Result<core::ClusteringResult> got = pipeline.Cluster(dataset);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    ExpectSameResult(*reference, *got);
  }
  for (size_t threads : {1, 4}) {
    SCOPED_TRACE("MapReduce, " + std::to_string(threads) + " threads");
    mr::P3CMROptions options;
    options.params = params;
    options.runner.num_threads = threads;
    options.runner.records_per_split = 97;  // dozens of splits
    mr::P3CMR pipeline{options};
    Result<core::ClusteringResult> got = pipeline.Cluster(dataset);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    ExpectSameResult(*reference, *got);
  }

  // m' oracle for the stream's unique-member counts and assignments.
  std::vector<core::Signature> signatures;
  for (const auto& core : reference->cores) {
    signatures.push_back(core.signature);
  }
  const std::vector<int32_t> unique =
      core::UniqueAssignments(dataset, signatures, nullptr);
  std::vector<uint64_t> unique_counts(signatures.size(), 0);
  for (int32_t u : unique) {
    if (u >= 0) ++unique_counts[static_cast<size_t>(u)];
  }

  const std::string path = std::string(::testing::TempDir()) +
                           "/parity_" + Name(g) + ".p3cd";
  const std::string assignments = path + ".assign.csv";
  ASSERT_TRUE(data::WriteBinary(dataset, path).ok());
  for (size_t block_rows : kBlockRows) {
    SCOPED_TRACE("block stream, " + std::to_string(block_rows) + " rows");
    core::StreamingLightPipeline pipeline{params, block_rows};
    Result<core::StreamingLightResult> got =
        pipeline.ClusterAndAssign(path, assignments);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    ExpectSameStats(reference->core_stats, got->core_stats);
    ASSERT_EQ(got->clusters.size(), reference->clusters.size());
    for (size_t c = 0; c < got->clusters.size(); ++c) {
      const core::StreamingCluster& cluster = got->clusters[c];
      EXPECT_EQ(cluster.core, reference->cores[c].signature);
      EXPECT_EQ(cluster.support, reference->cores[c].support);
      EXPECT_EQ(cluster.support, reference->clusters[c].points.size());
      EXPECT_EQ(cluster.unique_members, unique_counts[c]);
      EXPECT_EQ(cluster.attrs, reference->clusters[c].attrs);
      ExpectSameIntervals(reference->clusters[c].intervals,
                          cluster.intervals);
    }
    if (reference->cores.empty()) continue;  // no assignment pass
    std::FILE* f = std::fopen(assignments.c_str(), "r");
    ASSERT_NE(f, nullptr);
    char line[64];
    ASSERT_NE(std::fgets(line, sizeof(line), f), nullptr);  // header
    std::vector<int32_t> streamed;
    unsigned long long point = 0;
    int cluster = 0;
    while (std::fscanf(f, "%llu,%d\n", &point, &cluster) == 2) {
      ASSERT_EQ(point, streamed.size());
      streamed.push_back(cluster);
    }
    std::fclose(f);
    EXPECT_EQ(streamed, unique);
  }
  std::remove(path.c_str());
  std::remove(assignments.c_str());
}

INSTANTIATE_TEST_SUITE_P(
    GeneratorGrid, PipelineParityTest,
    ::testing::Values(GridPoint{1500, 12, 2, 0.00, 0.1, 0.3, 1},
                      GridPoint{3001, 20, 3, 0.10, 0.1, 0.3, 2},
                      GridPoint{5000, 30, 4, 0.20, 0.1, 0.3, 3},
                      GridPoint{3001, 16, 3, 0.05, 0.2, 0.4, 4},
                      GridPoint{2000, 24, 5, 0.10, 0.15, 0.25, 5},
                      GridPoint{4000, 12, 2, 0.30, 0.1, 0.2, 6}),
    [](const ::testing::TestParamInfo<GridPoint>& param_info) {
      return Name(param_info.param);
    });

}  // namespace
}  // namespace p3c
