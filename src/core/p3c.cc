#include "src/core/p3c.h"

#include "src/common/stopwatch.h"
#include "src/core/attribute_inspection.h"
#include "src/core/driver.h"
#include "src/core/gmm.h"
#include "src/core/interval_tightening.h"
#include "src/core/outlier.h"
#include "src/core/support_counter.h"

namespace p3c::core {

namespace {

/// The in-memory executor: every pass is a range-parallel scan of the
/// loaded dataset on the pipeline's thread pool. Keeps the member lists
/// (m' or non-outliers) and the reported point lists between passes.
class InMemoryExecutor final : public PassExecutor {
 public:
  InMemoryExecutor(const data::Dataset& dataset, const P3CParams& params,
                   ThreadPool* pool)
      : dataset_(dataset), params_(params), pool_(pool) {}

  uint64_t num_points() const override { return dataset_.num_points(); }
  ThreadPool* pool() override { return pool_; }

  Result<std::vector<stats::Histogram>> Histograms(
      stats::BinningRule rule) override {
    const size_t n = dataset_.num_points();
    const size_t d = dataset_.num_dims();
    const auto bins = static_cast<size_t>(stats::NumBins(rule, n));
    // Range-parallel partial histograms merged by a single "reducer".
    std::vector<std::vector<stats::Histogram>> partials(
        NumTasks(n, pool_),
        std::vector<stats::Histogram>(d, stats::Histogram(bins)));
    ForEachRange(n, pool_, [&](size_t task, size_t begin, size_t end) {
      auto& local = partials[task];
      for (size_t i = begin; i < end; ++i) {
        const auto row = dataset_.Row(static_cast<data::PointId>(i));
        for (size_t j = 0; j < d; ++j) local[j].Add(row[j]);
      }
    });
    std::vector<stats::Histogram> merged = std::move(partials.front());
    for (size_t t = 1; t < partials.size(); ++t) {
      for (size_t j = 0; j < d; ++j) merged[j].Merge(partials[t][j]);
    }
    return merged;
  }

  Result<std::vector<uint64_t>> CountSupports(
      const std::vector<Signature>& sigs) override {
    return core::CountSupports(dataset_, sigs, pool_);
  }

  Result<std::vector<uint64_t>> LightMembership(
      const std::vector<Signature>& signatures) override {
    reported_ = ComputeSupportSets(dataset_, signatures, pool_);
    // m' mapping: histograms (and tightening) use only points matching
    // exactly one core, which avoids the redundancy-induced blur.
    members_ = GroupByCluster(
        UniqueAssignments(dataset_, signatures, pool_), signatures.size());
    return MemberCounts();
  }

  Result<std::vector<uint64_t>> Refine(
      const std::vector<ClusterCore>& cores) override {
    Result<GmmModel> init =
        InitializeFromCores(dataset_, cores, params_, pool_);
    if (!init.ok()) return init.status();
    Result<EmResult> em =
        RunEm(dataset_, std::move(init).value(), params_, pool_);
    if (!em.ok()) return em.status();
    Result<OutlierDetectionResult> od =
        DetectOutliers(dataset_, em->model, params_, pool_);
    if (!od.ok()) return od.status();
    members_ = GroupByCluster(od->assignment, cores.size());
    reported_ = members_;
    return MemberCounts();
  }

  Result<std::vector<std::vector<stats::Histogram>>> MemberHistograms(
      const std::vector<size_t>& bins) override {
    std::vector<std::vector<stats::Histogram>> histograms(members_.size());
    pool_->ParallelFor(members_.size(), [&](size_t c) {
      histograms[c] = BuildMemberHistograms(dataset_, members_[c], bins[c]);
    });
    return histograms;
  }

  Result<std::vector<std::vector<Interval>>> Tighten(
      const std::vector<std::vector<size_t>>& attrs) override {
    std::vector<std::vector<Interval>> intervals(members_.size());
    for (size_t c = 0; c < members_.size(); ++c) {
      intervals[c] = TightenIntervals(dataset_, members_[c], attrs[c]);
    }
    return intervals;
  }

  std::vector<std::vector<data::PointId>> TakeReported() {
    return std::move(reported_);
  }

 private:
  std::vector<uint64_t> MemberCounts() const {
    std::vector<uint64_t> counts;
    for (const auto& members : members_) counts.push_back(members.size());
    return counts;
  }

  const data::Dataset& dataset_;
  const P3CParams& params_;
  ThreadPool* pool_;
  std::vector<std::vector<data::PointId>> members_;
  std::vector<std::vector<data::PointId>> reported_;
};

}  // namespace

P3CPipeline::P3CPipeline(P3CParams params, size_t num_threads)
    : params_(params), pool_(std::make_unique<ThreadPool>(num_threads)) {}

Result<ClusteringResult> P3CPipeline::Cluster(const data::Dataset& dataset) {
  Stopwatch watch;
  if (dataset.num_points() == 0 || dataset.num_dims() == 0) {
    return Status::InvalidArgument("dataset is empty");
  }
  if (!dataset.IsNormalized()) {
    return Status::InvalidArgument(
        "dataset must be normalized to [0, 1]; call NormalizeMinMax first");
  }
  InMemoryExecutor executor(dataset, params_, pool_.get());
  Result<ModelResult> model = RunP3C(params_, executor);
  if (!model.ok()) return model.status();
  ClusteringResult result =
      ToClusteringResult(std::move(model).value(), executor.TakeReported());
  result.seconds = watch.ElapsedSeconds();
  return result;
}

}  // namespace p3c::core
