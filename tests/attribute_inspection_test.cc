// Tests of attribute inspection (§4.2.3): member histograms, interval
// suggestion, AI proving and the final attribute assembly — plus interval
// tightening (§5.7).

#include "src/core/attribute_inspection.h"

#include <gtest/gtest.h>

#include "src/common/random.h"
#include "src/core/interval_tightening.h"

namespace p3c::core {
namespace {

Interval I(size_t attr, double lo, double hi) { return Interval{attr, lo, hi}; }

/// Dataset whose cluster members concentrate on attr 0 (the core attr)
/// AND attr 1 (missed by core generation); attr 2 is uniform.
struct AiFixture {
  data::Dataset dataset{0, 0};
  std::vector<data::PointId> members;
  ClusterCore core;

  AiFixture() {
    const size_t n = 4000;
    const size_t n_members = 1500;
    dataset = data::Dataset(n, 3);
    Rng rng(51);
    for (size_t i = 0; i < n; ++i) {
      const bool member = i < n_members;
      dataset.Set(static_cast<data::PointId>(i), 0,
                  member ? rng.TruncatedGaussian(0.25, 0.03, 0.2, 0.3)
                         : rng.Uniform());
      dataset.Set(static_cast<data::PointId>(i), 1,
                  member ? rng.TruncatedGaussian(0.65, 0.03, 0.6, 0.7)
                         : rng.Uniform());
      dataset.Set(static_cast<data::PointId>(i), 2, rng.Uniform());
      if (member) members.push_back(static_cast<data::PointId>(i));
    }
    core.signature = Signature::Single(I(0, 0.2, 0.3));
    core.support = n_members;  // approximately
    core.expected_support = static_cast<double>(n) * 0.1;
  }
};

TEST(MemberHistogramsTest, BinsFromMemberCount) {
  const AiFixture fx;
  const auto hists = BuildMemberHistograms(
      fx.dataset, fx.members,
      MemberHistogramBins(stats::BinningRule::kFreedmanDiaconis,
                          fx.members.size()));
  ASSERT_EQ(hists.size(), 3u);
  EXPECT_EQ(hists[0].num_bins(),
            stats::FreedmanDiaconisBins(fx.members.size()));
  EXPECT_EQ(hists[0].total(), fx.members.size());
  EXPECT_EQ(MemberHistogramBins(stats::BinningRule::kSturges, 1500),
            stats::NumBins(stats::BinningRule::kSturges, 1500));
  // A cluster without members still gets one-member histograms.
  EXPECT_EQ(MemberHistogramBins(stats::BinningRule::kFreedmanDiaconis, 0),
            stats::FreedmanDiaconisBins(1));
}

TEST(SuggestNewIntervalsTest, FindsTheMissedAttribute) {
  const AiFixture fx;
  const auto hists = BuildMemberHistograms(
      fx.dataset, fx.members,
      MemberHistogramBins(stats::BinningRule::kFreedmanDiaconis,
                          fx.members.size()));
  const auto suggestions =
      SuggestNewIntervals(fx.core.signature, hists, 0.001);
  // Attr 0 is skipped (already in core); attr 1 suggested; attr 2 not.
  ASSERT_FALSE(suggestions.empty());
  for (const Interval& interval : suggestions) {
    EXPECT_NE(interval.attr, 0u);
  }
  bool found_attr1 = false;
  for (const Interval& interval : suggestions) {
    if (interval.attr == 1) {
      found_attr1 = true;
      EXPECT_LE(interval.lower, 0.65);
      EXPECT_GE(interval.upper, 0.65);
    }
    EXPECT_NE(interval.attr, 2u) << "uniform attribute suggested";
  }
  EXPECT_TRUE(found_attr1);
}

TEST(AiProvingTest, AcceptsRealRejectsFake) {
  const AiFixture fx;
  // Two suggestions: the real interval on attr 1 and a fake on attr 2.
  const std::vector<std::vector<Interval>> suggestions = {
      {I(1, 0.6, 0.7), I(2, 0.4, 0.5)}};
  P3CParams params;  // ai_proving = true, combined mode
  SupportCountFn counter = [&fx](const std::vector<Signature>& sigs) {
    std::vector<uint64_t> counts;
    for (const Signature& s : sigs) {
      uint64_t c = 0;
      for (size_t i = 0; i < fx.dataset.num_points(); ++i) {
        if (s.Contains(fx.dataset.Row(static_cast<data::PointId>(i)))) ++c;
      }
      counts.push_back(c);
    }
    return counts;
  };
  const auto accepted =
      ProveSuggestedIntervals({fx.core}, suggestions, params, counter).value();
  ASSERT_EQ(accepted.size(), 1u);
  ASSERT_EQ(accepted[0].size(), 1u);
  EXPECT_EQ(accepted[0][0].attr, 1u);
}

TEST(AiProvingTest, WithoutProvingAcceptsAll) {
  const AiFixture fx;
  const std::vector<std::vector<Interval>> suggestions = {
      {I(1, 0.6, 0.7), I(2, 0.4, 0.5)}};
  P3CParams params = OriginalP3CParams();  // ai_proving = false
  int counter_calls = 0;
  SupportCountFn counter = [&counter_calls](const std::vector<Signature>& sigs) {
    ++counter_calls;
    return std::vector<uint64_t>(sigs.size(), 0);
  };
  const auto accepted =
      ProveSuggestedIntervals({fx.core}, suggestions, params, counter).value();
  ASSERT_EQ(accepted[0].size(), 2u);
  EXPECT_EQ(counter_calls, 0);  // no support job without proving
}

TEST(AiProvingTest, OneIntervalPerAttribute) {
  const AiFixture fx;
  // Two competing intervals on attr 1; at most one may be accepted.
  const std::vector<std::vector<Interval>> suggestions = {
      {I(1, 0.6, 0.7), I(1, 0.55, 0.75)}};
  P3CParams params;
  SupportCountFn counter = [&fx](const std::vector<Signature>& sigs) {
    std::vector<uint64_t> counts;
    for (const Signature& s : sigs) {
      uint64_t c = 0;
      for (size_t i = 0; i < fx.dataset.num_points(); ++i) {
        if (s.Contains(fx.dataset.Row(static_cast<data::PointId>(i)))) ++c;
      }
      counts.push_back(c);
    }
    return counts;
  };
  const auto accepted =
      ProveSuggestedIntervals({fx.core}, suggestions, params, counter).value();
  EXPECT_EQ(accepted[0].size(), 1u);
  EXPECT_EQ(accepted[0][0].attr, 1u);
}

TEST(AiProvingTest, EmptySuggestions) {
  const AiFixture fx;
  P3CParams params;
  SupportCountFn counter = [](const std::vector<Signature>& sigs) {
    return std::vector<uint64_t>(sigs.size(), 0);
  };
  const auto accepted =
      ProveSuggestedIntervals({fx.core}, {{}}, params, counter).value();
  EXPECT_TRUE(accepted[0].empty());
}

TEST(FinalAttributesTest, UnionSortedUnique) {
  const Signature core =
      Signature::Make({I(3, 0, 1), I(1, 0, 1)}).value();
  const std::vector<Interval> accepted = {I(0, 0, 1), I(3, 0.5, 0.6)};
  EXPECT_EQ(FinalAttributes(core, accepted), (std::vector<size_t>{0, 1, 3}));
}

TEST(TightenIntervalsTest, MinMaxOverMembers) {
  data::Dataset d(4, 2);
  d.Set(0, 0, 0.2); d.Set(0, 1, 0.9);
  d.Set(1, 0, 0.4); d.Set(1, 1, 0.8);
  d.Set(2, 0, 0.3); d.Set(2, 1, 0.7);
  d.Set(3, 0, 0.9); d.Set(3, 1, 0.1);  // not a member
  const std::vector<data::PointId> members = {0, 1, 2};
  const auto intervals = TightenIntervals(d, members, {0, 1});
  ASSERT_EQ(intervals.size(), 2u);
  EXPECT_DOUBLE_EQ(intervals[0].lower, 0.2);
  EXPECT_DOUBLE_EQ(intervals[0].upper, 0.4);
  EXPECT_DOUBLE_EQ(intervals[1].lower, 0.7);
  EXPECT_DOUBLE_EQ(intervals[1].upper, 0.9);
}

TEST(TightenIntervalsTest, EmptyMembers) {
  data::Dataset d(2, 2);
  EXPECT_TRUE(TightenIntervals(d, {}, {0, 1}).empty());
}

TEST(TightenIntervalsTest, SingleMemberDegenerateInterval) {
  data::Dataset d(1, 1);
  d.Set(0, 0, 0.42);
  const auto intervals = TightenIntervals(d, {0}, {0});
  ASSERT_EQ(intervals.size(), 1u);
  EXPECT_DOUBLE_EQ(intervals[0].lower, 0.42);
  EXPECT_DOUBLE_EQ(intervals[0].upper, 0.42);
  EXPECT_DOUBLE_EQ(intervals[0].width(), 0.0);
}

}  // namespace
}  // namespace p3c::core
