// Tests of the P3C+ driver (core::RunP3C) against a scripted executor:
// the bin counts it asks the member-histogram pass for, how it assembles
// clusters, and that the first failing pass ends the run.

#include "src/core/driver.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/core/attribute_inspection.h"

namespace p3c::core {
namespace {

Interval I(size_t attr, double lo, double hi) { return Interval{attr, lo, hi}; }

constexpr size_t kDims = 3;
constexpr uint64_t kPoints = 1000;

/// Executor that serves fixed answers and logs each pass it is asked
/// for. Histograms are uniform except for a spike on attr 0, so core
/// generation has one relevant interval to count; member histograms are
/// uniform, so attribute inspection suggests nothing.
class ScriptedExecutor final : public PassExecutor {
 public:
  /// Cores ClusterCores returns; empty runs the real generation.
  std::vector<ClusterCore> fixed_cores;
  /// Answer of the membership pass.
  std::vector<uint64_t> members;
  /// Pass that fails ("" = none).
  std::string fail_at;

  std::vector<std::string> log;
  std::vector<size_t> requested_bins;

  uint64_t num_points() const override { return kPoints; }

  Result<std::vector<stats::Histogram>> Histograms(
      stats::BinningRule) override {
    P3C_RETURN_NOT_OK(Enter("histograms"));
    std::vector<stats::Histogram> histograms(kDims, stats::Histogram(10));
    for (size_t j = 0; j < kDims; ++j) {
      for (size_t b = 0; b < 10; ++b) histograms[j].counts()[b] = 100;
    }
    histograms[0].counts()[3] = 600;
    histograms[0].counts()[4] = 0;
    return histograms;
  }

  Result<std::vector<uint64_t>> CountSupports(
      const std::vector<Signature>& sigs) override {
    P3C_RETURN_NOT_OK(Enter("count"));
    return std::vector<uint64_t>(sigs.size(), kPoints / 2);
  }

  Result<CoreDetectionResult> ClusterCores(
      const std::function<Result<CoreDetectionResult>()>& generate) override {
    if (fixed_cores.empty()) return generate();
    CoreDetectionResult detection;
    detection.cores = fixed_cores;
    return detection;
  }

  Result<std::vector<uint64_t>> LightMembership(
      const std::vector<Signature>&) override {
    P3C_RETURN_NOT_OK(Enter("membership"));
    return members;
  }

  Result<std::vector<uint64_t>> Refine(
      const std::vector<ClusterCore>&) override {
    P3C_RETURN_NOT_OK(Enter("refine"));
    return members;
  }

  Result<std::vector<std::vector<stats::Histogram>>> MemberHistograms(
      const std::vector<size_t>& bins) override {
    P3C_RETURN_NOT_OK(Enter("member-histograms"));
    requested_bins = bins;
    std::vector<std::vector<stats::Histogram>> histograms(bins.size());
    for (size_t c = 0; c < bins.size(); ++c) {
      histograms[c].assign(kDims, stats::Histogram(bins[c]));
      for (stats::Histogram& h : histograms[c]) {
        for (uint64_t& count : h.counts()) count = 50;
      }
    }
    return histograms;
  }

  /// Interval c of the answer is [0.01 (c + 1), 0.9], so a test can tell
  /// a tightened interval from a core's own.
  Result<std::vector<std::vector<Interval>>> Tighten(
      const std::vector<std::vector<size_t>>& attrs) override {
    P3C_RETURN_NOT_OK(Enter("tighten"));
    std::vector<std::vector<Interval>> intervals(attrs.size());
    for (size_t c = 0; c < attrs.size(); ++c) {
      for (size_t attr : attrs[c]) {
        intervals[c].push_back(
            I(attr, 0.01 * static_cast<double>(c + 1), 0.9));
      }
    }
    return intervals;
  }

 private:
  Status Enter(const std::string& pass) {
    log.push_back(pass);
    if (pass == fail_at) return Status::IOError("injected at " + pass);
    return Status::OK();
  }
};

ClusterCore Core(const Interval& interval) {
  ClusterCore core;
  core.signature = Signature::Single(interval);
  core.support = 200;
  core.expected_support = 100.0;
  return core;
}

/// Three cores; the first has no m' member (all its points are shared).
ScriptedExecutor ThreeCores() {
  ScriptedExecutor executor;
  executor.fixed_cores = {Core(I(0, 0.2, 0.3)), Core(I(1, 0.4, 0.5)),
                          Core(I(2, 0.6, 0.7))};
  executor.members = {0, 37, 900};
  return executor;
}

TEST(DriverTest, MemberHistogramBinsFollowEachCoresMemberCount) {
  for (stats::BinningRule rule :
       {stats::BinningRule::kFreedmanDiaconis, stats::BinningRule::kSturges}) {
    ScriptedExecutor executor = ThreeCores();
    P3CParams params;
    params.light = true;
    params.binning = rule;
    ASSERT_TRUE(RunP3C(params, executor).ok());
    const std::vector<size_t> expected = {
        static_cast<size_t>(stats::NumBins(rule, 1)),
        static_cast<size_t>(stats::NumBins(rule, 37)),
        static_cast<size_t>(stats::NumBins(rule, 900))};
    EXPECT_EQ(executor.requested_bins, expected);
    // The counts differ per core, so a rule applied to n, or to one
    // core's count, would not pass.
    EXPECT_NE(expected[1], expected[2]);
  }
}

TEST(DriverTest, CoreWithoutMembersKeepsItsOwnSignature) {
  ScriptedExecutor executor = ThreeCores();
  P3CParams params;
  params.light = true;
  Result<ModelResult> model = RunP3C(params, executor);
  ASSERT_TRUE(model.ok()) << model.status().ToString();
  EXPECT_EQ(executor.log,
            (std::vector<std::string>{"histograms", "membership",
                                      "member-histograms", "tighten"}));
  EXPECT_EQ(model->members, executor.members);
  ASSERT_EQ(model->clusters.size(), 3u);
  // Core 0: no member, so its signature is the cluster.
  EXPECT_EQ(model->clusters[0].attrs, (std::vector<size_t>{0}));
  EXPECT_EQ(model->clusters[0].intervals,
            (std::vector<Interval>{I(0, 0.2, 0.3)}));
  // Cores 1 and 2: the tightened intervals.
  EXPECT_EQ(model->clusters[1].intervals,
            (std::vector<Interval>{I(1, 0.01 * 2, 0.9)}));
  EXPECT_EQ(model->clusters[2].intervals,
            (std::vector<Interval>{I(2, 0.01 * 3, 0.9)}));
}

TEST(DriverTest, FullModelRefinesInsteadOfTheLightRule) {
  ScriptedExecutor executor = ThreeCores();
  P3CParams params;
  params.light = false;
  ASSERT_TRUE(RunP3C(params, executor).ok());
  EXPECT_EQ(executor.log,
            (std::vector<std::string>{"histograms", "refine",
                                      "member-histograms", "tighten"}));
}

TEST(DriverTest, FailingPassStopsTheRun) {
  const std::vector<std::string> passes = {"histograms", "membership",
                                           "member-histograms", "tighten"};
  for (const std::string& pass : passes) {
    ScriptedExecutor executor = ThreeCores();
    executor.fail_at = pass;
    P3CParams params;
    params.light = true;
    Result<ModelResult> model = RunP3C(params, executor);
    ASSERT_FALSE(model.ok()) << pass;
    EXPECT_EQ(model.status().message(), "injected at " + pass);
    EXPECT_EQ(executor.log.back(), pass) << "a pass ran after " << pass;
  }
}

TEST(DriverTest, FailingSupportCountStopsCoreGeneration) {
  ScriptedExecutor executor;  // no fixed cores: the real generation runs
  executor.fail_at = "count";
  P3CParams params;
  params.light = true;
  Result<ModelResult> model = RunP3C(params, executor);
  ASSERT_FALSE(model.ok());
  EXPECT_EQ(model.status().message(), "injected at count");
  EXPECT_EQ(executor.log,
            (std::vector<std::string>{"histograms", "count"}));
}

}  // namespace
}  // namespace p3c::core
