// Tests of cluster-core generation (Algorithm 1), the proving rules of
// Definition 5, the effect-size gate and the redundancy filter — built on
// synthetic support counters so each rule is exercised in isolation.

#include "src/core/core_detection.h"

#include <gtest/gtest.h>

#include "src/common/random.h"
#include "src/core/support_counter.h"
#include "src/data/generator.h"

namespace p3c::core {
namespace {

Interval I(size_t attr, double lo, double hi) { return Interval{attr, lo, hi}; }

/// Support counter backed by real data.
SupportCountFn DataCounter(const data::Dataset& dataset) {
  return [&dataset](const std::vector<Signature>& sigs) {
    return CountSupports(dataset, sigs, nullptr);
  };
}

/// Generates a planted two-cluster dataset and its relevant intervals.
struct Planted {
  data::SyntheticData data;
  std::vector<Interval> intervals;
};

Planted MakePlanted(uint64_t seed) {
  data::GeneratorConfig config;
  config.num_points = 4000;
  config.num_dims = 30;
  config.num_clusters = 2;
  config.noise_fraction = 0.10;
  config.min_cluster_dims = 3;
  config.max_cluster_dims = 4;
  config.force_overlap = false;
  config.seed = seed;
  Planted planted;
  planted.data = data::GenerateSynthetic(config).value();
  // Ground-truth intervals as the candidate pool (isolates core detection
  // from the histogram step).
  for (const auto& cluster : planted.data.clusters) {
    for (size_t j = 0; j < cluster.relevant_attrs.size(); ++j) {
      planted.intervals.push_back(I(cluster.relevant_attrs[j],
                                    cluster.intervals[j].first,
                                    cluster.intervals[j].second));
    }
  }
  return planted;
}

TEST(CoreDetectionTest, RecoversPlantedSubspaces) {
  const Planted planted = MakePlanted(3);
  P3CParams params;
  const auto result =
      GenerateClusterCores(planted.intervals, planted.data.dataset.num_points(),
                           params, DataCounter(planted.data.dataset), nullptr)
          .value();
  ASSERT_EQ(result.cores.size(), 2u);
  // Each core's attrs must equal one hidden cluster's attrs.
  for (const auto& core : result.cores) {
    bool matched = false;
    for (const auto& cluster : planted.data.clusters) {
      if (core.signature.attrs() == cluster.relevant_attrs) matched = true;
    }
    EXPECT_TRUE(matched) << core.signature.ToString();
  }
}

TEST(CoreDetectionTest, EmptyIntervalsYieldNothing) {
  P3CParams params;
  int calls = 0;
  SupportCountFn counter = [&calls](const std::vector<Signature>& sigs) {
    ++calls;
    return std::vector<uint64_t>(sigs.size(), 0);
  };
  const auto result =
      GenerateClusterCores({}, 1000, params, counter, nullptr).value();
  EXPECT_TRUE(result.cores.empty());
  EXPECT_EQ(calls, 0);
}

TEST(CoreDetectionTest, UniformDataYieldsNoCores) {
  // Wide intervals over uniform data have no significant support excess.
  data::GeneratorConfig config;
  config.num_points = 5000;
  config.num_dims = 5;
  config.num_clusters = 1;
  config.noise_fraction = 0.0;
  config.min_cluster_dims = 2;
  config.max_cluster_dims = 2;
  config.seed = 4;
  auto data = data::GenerateSynthetic(config).value();
  // Overwrite with pure uniform noise.
  Rng rng(99);
  for (size_t i = 0; i < data.dataset.num_points(); ++i) {
    for (size_t j = 0; j < data.dataset.num_dims(); ++j) {
      data.dataset.Set(static_cast<data::PointId>(i), j, rng.Uniform());
    }
  }
  const std::vector<Interval> intervals = {I(0, 0.1, 0.3), I(1, 0.4, 0.6),
                                           I(2, 0.2, 0.5)};
  P3CParams params;
  const auto result = GenerateClusterCores(
      intervals, data.dataset.num_points(), params, DataCounter(data.dataset),
      nullptr).value();
  EXPECT_TRUE(result.cores.empty());
}

TEST(CoreDetectionTest, EffectSizeGateSuppressesWeakDeviations) {
  // Synthetic counter: the pair {a0, a1} has support 1.2x expectation —
  // hugely significant at n = 1e6 (Poisson) but below theta_cc = 0.35.
  const std::vector<Interval> intervals = {I(0, 0.0, 0.5), I(1, 0.0, 0.5)};
  const uint64_t n = 1000000;
  SupportCountFn counter2 = [n](const std::vector<Signature>& sigs) {
    std::vector<uint64_t> counts;
    for (const Signature& s : sigs) {
      if (s.size() == 1) {
        // 1-signature support: 0.75 n on half the space (1.5x expected,
        // passes both tests).
        counts.push_back(3 * n / 4);
      } else {
        // Pair support: expected = Supp(single) * 0.5 = 0.375 n;
        // observed 1.2x that = 0.45 n. Significant, weak effect.
        counts.push_back(static_cast<uint64_t>(0.45 * n));
      }
    }
    return counts;
  };

  P3CParams poisson_only;
  poisson_only.proving = ProvingMode::kPoisson;
  poisson_only.redundancy_filter = false;
  const auto with_poisson =
      GenerateClusterCores(intervals, n, poisson_only, counter2, nullptr)
          .value();
  // Poisson alone accepts the weak pair (power pathology, §4.1.2).
  ASSERT_EQ(with_poisson.cores.size(), 1u);
  EXPECT_EQ(with_poisson.cores[0].signature.size(), 2u);

  P3CParams combined;
  combined.proving = ProvingMode::kCombined;
  combined.redundancy_filter = false;
  const auto with_effect =
      GenerateClusterCores(intervals, n, combined, counter2, nullptr).value();
  // The combined test rejects it; the (strong) singles remain as maximal
  // proven signatures.
  ASSERT_EQ(with_effect.cores.size(), 2u);
  for (const auto& core : with_effect.cores) {
    EXPECT_EQ(core.signature.size(), 1u);
  }
}

TEST(CoreDetectionTest, RedundancyFilterRemovesIntersectionSignature) {
  // The paper's Figure 2 example: clusters in {a1,a3} and {a1,a2}; the
  // intersection region produces a third signature in {a2,a3} with a much
  // lower interest ratio.
  const Interval ia1 = I(1, 0.4, 0.5);
  const Interval ia2 = I(2, 0.4, 0.5);
  const Interval ia3 = I(3, 0.4, 0.5);
  const uint64_t n = 10000;
  SupportCountFn counter = [](const std::vector<Signature>& sigs) {
    std::vector<uint64_t> counts;
    for (const Signature& s : sigs) {
      const auto attrs = s.attrs();
      if (s.size() == 1) {
        counts.push_back(1500);
      } else if (s.size() == 2) {
        if (attrs == std::vector<size_t>{1, 3} ||
            attrs == std::vector<size_t>{1, 2}) {
          counts.push_back(1000);  // real clusters
        } else {
          // The intersection artifact {a2,a3}: passes Poisson AND the
          // effect-size gate (250 vs 150 expected, d_cc = 0.67) yet has a
          // far lower interest ratio than the real clusters.
          counts.push_back(250);
        }
      } else {
        counts.push_back(0);  // no triple survives
      }
    }
    return counts;
  };
  P3CParams params;  // redundancy filter on
  const auto filtered =
      GenerateClusterCores({ia1, ia2, ia3}, n, params, counter, nullptr)
          .value();
  EXPECT_EQ(filtered.stats.num_maximal, 3u);
  ASSERT_EQ(filtered.cores.size(), 2u);
  for (const auto& core : filtered.cores) {
    EXPECT_NE(core.signature.attrs(), (std::vector<size_t>{2, 3}));
  }

  P3CParams no_filter = params;
  no_filter.redundancy_filter = false;
  const auto unfiltered =
      GenerateClusterCores({ia1, ia2, ia3}, n, no_filter, counter, nullptr)
          .value();
  EXPECT_EQ(unfiltered.cores.size(), 3u);
}

TEST(CoreDetectionTest, MultilevelMatchesPerLevelResults) {
  const Planted planted = MakePlanted(7);
  P3CParams per_level;
  per_level.multilevel_candidates = false;
  P3CParams multilevel;
  multilevel.multilevel_candidates = true;
  multilevel.t_c = 5;  // force early batch cuts

  const auto a = GenerateClusterCores(
      planted.intervals, planted.data.dataset.num_points(), per_level,
      DataCounter(planted.data.dataset), nullptr).value();
  const auto b = GenerateClusterCores(
      planted.intervals, planted.data.dataset.num_points(), multilevel,
      DataCounter(planted.data.dataset), nullptr).value();
  ASSERT_EQ(a.cores.size(), b.cores.size());
  for (size_t i = 0; i < a.cores.size(); ++i) {
    EXPECT_EQ(a.cores[i].signature, b.cores[i].signature);
    EXPECT_EQ(a.cores[i].support, b.cores[i].support);
  }
  // Multilevel spends fewer proving rounds ("MR jobs").
  EXPECT_LE(b.stats.num_support_batches, a.stats.num_support_batches);
}

TEST(CoreDetectionTest, StatsAreCoherent) {
  const Planted planted = MakePlanted(5);
  P3CParams params;
  const auto result = GenerateClusterCores(
      planted.intervals, planted.data.dataset.num_points(), params,
      DataCounter(planted.data.dataset), nullptr).value();
  const auto& s = result.stats;
  EXPECT_GE(s.num_candidates_generated, planted.intervals.size());
  EXPECT_GE(s.num_signatures_counted, s.num_proven);
  EXPECT_GE(s.num_maximal, s.num_after_redundancy);
  EXPECT_EQ(result.cores.size(), s.num_after_redundancy);
  EXPECT_GE(s.num_support_batches, 1u);
  EXPECT_GE(s.num_levels, 2u);
}

TEST(FilterRedundantTest, EmptyAndSingle) {
  EXPECT_TRUE(FilterRedundant({}).empty());
  ClusterCore core;
  core.signature = Signature::Single(I(0, 0.1, 0.2));
  core.support = 100;
  core.expected_support = 10.0;
  EXPECT_EQ(FilterRedundant({core}).size(), 1u);
}

TEST(FilterRedundantTest, EqualRatiosDoNotEliminateEachOther) {
  // Two cores composed of each other's intervals but with equal ratios:
  // Eq. 6 is strict, so neither is redundant.
  const Interval a = I(0, 0.1, 0.2);
  const Interval b = I(1, 0.1, 0.2);
  ClusterCore c1;
  c1.signature = Signature::Make({a, b}).value();
  c1.support = 100;
  c1.expected_support = 10.0;
  ClusterCore c2 = c1;
  EXPECT_EQ(FilterRedundant({c1, c2}).size(), 2u);
}

}  // namespace
}  // namespace p3c::core
