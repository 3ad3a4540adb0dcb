// Failure-injection and safety-valve tests: input validation across the
// pipelines, the combinatorial-explosion guards of cluster-core
// generation, and the logging sink.

#include <gtest/gtest.h>

#include "src/common/logging.h"
#include "src/common/random.h"
#include "src/core/core_detection.h"
#include "src/core/p3c.h"
#include "src/data/generator.h"

namespace p3c {
namespace {

TEST(InputValidationTest, SerialPipelineRejectsBadInput) {
  core::P3CPipeline pipeline{core::P3CParams{}};
  EXPECT_FALSE(pipeline.Cluster(data::Dataset()).ok());
  auto denormalized = data::Dataset::FromRowMajor({0.5, 42.0}, 1).value();
  auto status = pipeline.Cluster(denormalized);
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.status().code(), StatusCode::kInvalidArgument);
}

TEST(InputValidationTest, ZeroClustersIsAResultNotAnError) {
  // Pure uniform data: the statistical tests find nothing; that is a
  // valid outcome with zero clusters.
  Rng rng(123);
  data::Dataset d(3000, 10);
  for (size_t i = 0; i < 3000; ++i) {
    for (size_t j = 0; j < 10; ++j) {
      d.Set(static_cast<data::PointId>(i), j, rng.Uniform());
    }
  }
  core::P3CPipeline pipeline{core::P3CParams{}};
  auto result = pipeline.Cluster(d);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result->clusters.empty());
  EXPECT_TRUE(result->cores.empty());
}

TEST(ExplosionGuardTest, CoClusteredBlockTriggersTruncation) {
  // 14 attributes that all co-cluster perfectly: every subset of the
  // block is provable, so the lattice has 2^14 provable members and the
  // join width grows combinatorially. With tiny caps the engine must
  // truncate instead of hanging, and still return sound cores.
  Rng rng(7);
  const size_t n = 2000;
  const size_t block = 14;
  data::Dataset d(n, block);
  for (size_t i = 0; i < n; ++i) {
    const bool member = i < n / 2;
    for (size_t j = 0; j < block; ++j) {
      d.Set(static_cast<data::PointId>(i), j,
            member ? rng.Uniform(0.4, 0.5) : rng.Uniform());
    }
  }
  std::vector<core::Interval> intervals;
  for (size_t j = 0; j < block; ++j) {
    intervals.push_back(core::Interval{j, 0.4, 0.5});
  }
  core::P3CParams params;
  params.max_candidates_per_level = 200;
  core::SupportCountFn counter = [&d](const std::vector<core::Signature>& s) {
    std::vector<uint64_t> counts;
    for (const auto& sig : s) {
      uint64_t c = 0;
      for (size_t i = 0; i < d.num_points(); ++i) {
        if (sig.Contains(d.Row(static_cast<data::PointId>(i)))) ++c;
      }
      counts.push_back(c);
    }
    return counts;
  };
  const auto result = core::GenerateClusterCores(intervals, n, params,
                                                 counter, nullptr).value();
  EXPECT_TRUE(result.stats.truncated);
  EXPECT_FALSE(result.cores.empty());
}

TEST(ExplosionGuardTest, JoinPairCapTriggers) {
  // Same setup but cap the pair joins instead of the level width.
  Rng rng(8);
  const size_t n = 1000;
  const size_t block = 12;
  data::Dataset d(n, block);
  for (size_t i = 0; i < n; ++i) {
    const bool member = i < n / 2;
    for (size_t j = 0; j < block; ++j) {
      d.Set(static_cast<data::PointId>(i), j,
            member ? rng.Uniform(0.4, 0.5) : rng.Uniform());
    }
  }
  std::vector<core::Interval> intervals;
  for (size_t j = 0; j < block; ++j) {
    intervals.push_back(core::Interval{j, 0.4, 0.5});
  }
  core::P3CParams params;
  params.max_join_pairs = 300;
  core::SupportCountFn counter = [&d](const std::vector<core::Signature>& s) {
    std::vector<uint64_t> counts;
    for (const auto& sig : s) {
      uint64_t c = 0;
      for (size_t i = 0; i < d.num_points(); ++i) {
        if (sig.Contains(d.Row(static_cast<data::PointId>(i)))) ++c;
      }
      counts.push_back(c);
    }
    return counts;
  };
  const auto result = core::GenerateClusterCores(intervals, n, params,
                                                 counter, nullptr).value();
  EXPECT_TRUE(result.stats.truncated);
}

TEST(LoggingTest, LevelFiltering) {
  const LogLevel before = GetLogLevel();
  SetLogLevel(LogLevel::kError);
  EXPECT_EQ(GetLogLevel(), LogLevel::kError);
  // Below-threshold statements must not evaluate their stream arguments.
  int evaluations = 0;
  auto touch = [&evaluations] {
    ++evaluations;
    return "x";
  };
  P3C_LOG(kDebug) << touch();
  EXPECT_EQ(evaluations, 0);
  SetLogLevel(before);
}

TEST(LoggingTest, EmittingDoesNotCrash) {
  const LogLevel before = GetLogLevel();
  SetLogLevel(LogLevel::kDebug);
  P3C_LOG(kDebug) << "debug " << 1;
  P3C_LOG(kInfo) << "info " << 2.5;
  P3C_LOG(kWarning) << "warning";
  P3C_LOG(kError) << "error";
  SetLogLevel(before);
}

}  // namespace
}  // namespace p3c
