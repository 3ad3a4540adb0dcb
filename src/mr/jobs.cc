#include "src/mr/jobs.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <memory>

#include "src/common/resource.h"
#include "src/core/kernels/kernels.h"
#include "src/core/rssc.h"
#include "src/stats/descriptive.h"

namespace p3c::mr {

namespace {

using KeyedDoubles = std::pair<int64_t, std::vector<double>>;

/// Generic sum reducer for (int64, vector<double>) stats records.
class VectorSumReducer
    : public Reducer<int64_t, std::vector<double>, KeyedDoubles> {
 public:
  void Reduce(const int64_t& key,
              std::span<const std::vector<double>> values,
              std::vector<KeyedDoubles>& out) override {
    std::vector<double> acc;
    for (const auto& v : values) {
      // Per-group accumulator, moved into the emitted payload whose
      // top-level bytes the emitter charge already covers.
      if (acc.empty()) acc.assign(v.size(), 0.0);  // NOLINT(p3c-untracked-hot-alloc)
      for (size_t i = 0; i < v.size() && i < acc.size(); ++i) acc[i] += v[i];
    }
    out.emplace_back(key, std::move(acc));
  }
};

/// Generic sum reducer for (int64, vector<uint64>) count records.
class CountSumReducer
    : public Reducer<int64_t, std::vector<uint64_t>,
                     std::pair<int64_t, std::vector<uint64_t>>> {
 public:
  void Reduce(const int64_t& key,
              std::span<const std::vector<uint64_t>> values,
              std::vector<std::pair<int64_t, std::vector<uint64_t>>>& out)
      override {
    std::vector<uint64_t> acc;
    for (const auto& v : values) {
      // Per-group accumulator; see VectorSumReducer above.
      if (acc.empty()) acc.assign(v.size(), 0);  // NOLINT(p3c-untracked-hot-alloc)
      for (size_t i = 0; i < v.size() && i < acc.size(); ++i) acc[i] += v[i];
    }
    out.emplace_back(key, std::move(acc));
  }
};

/// Per-job reducer count: the paper's jobs have small, known key
/// cardinalities (an attribute index, a cluster index), so partitions
/// beyond that are guaranteed-empty reduce tasks. Cap the runner's
/// default at the job's key count.
size_t ReducersForKeys(const LocalRunner& runner, size_t num_keys) {
  return std::max<size_t>(
      1, std::min(num_keys, runner.DefaultNumReducers()));
}

// ---------------------------------------------------------------------------
// Histogram job (§5.1)
// ---------------------------------------------------------------------------

struct HistogramJobConfig {
  const data::Dataset* dataset;
  size_t bins;
};

class HistogramMapper : public Mapper<Record, int64_t, std::vector<uint64_t>> {
 public:
  explicit HistogramMapper(const HistogramJobConfig* config)
      : config_(config),
        local_(config->dataset->num_dims(),
               stats::Histogram(config->bins)) {
    mem_.Set(static_cast<int64_t>(local_.size() * config->bins *
                                  sizeof(uint64_t)));
  }

  void Map(const Record& record,
           Emitter<int64_t, std::vector<uint64_t>>& out) override {
    (void)out;
    const auto row = config_->dataset->Row(record);
    for (size_t j = 0; j < local_.size(); ++j) local_[j].Add(row[j]);
    ++points_;
  }

  void Cleanup(Emitter<int64_t, std::vector<uint64_t>>& out) override {
    for (size_t j = 0; j < local_.size(); ++j) {
      out.Emit(static_cast<int64_t>(j), local_[j].counts());
    }
    // Flushed once per task so the per-record path stays counter-free;
    // integer-valued counters keep the exported JSON byte-identical
    // across thread counts (doubles sum exactly below 2^53).
    out.counters().Increment("histogram/points", points_);
    out.counters().SetGauge("histogram/bins",
                            static_cast<double>(config_->bins));
  }

 private:
  const HistogramJobConfig* config_;
  std::vector<stats::Histogram> local_;
  uint64_t points_ = 0;
  resource::ScopedBytes mem_{resource::MemScope::kHistogramBins};
};

// ---------------------------------------------------------------------------
// Support job (§5.3)
// ---------------------------------------------------------------------------

struct SupportJobConfig {
  const data::Dataset* dataset;
  const core::Rssc* rssc;  // "distributed cache" payload
};

class SupportMapper : public Mapper<Record, int64_t, std::vector<uint64_t>> {
 public:
  explicit SupportMapper(const SupportJobConfig* config)
      : config_(config),
        // One counter per live signature; Rssc::Accumulate never touches
        // the padding lanes of its last bitmap word.
        supports_(config->rssc->num_signatures(), 0) {}

  void Map(const Record& record,
           Emitter<int64_t, std::vector<uint64_t>>& out) override {
    (void)out;
    config_->rssc->Accumulate(config_->dataset->Row(record), scratch_,
                              supports_);
    ++points_;
  }

  void Cleanup(Emitter<int64_t, std::vector<uint64_t>>& out) override {
    // In-mapper combining: one record per split instead of one per point.
    out.counters().Increment("support/points", points_);
    out.counters().SetGauge("support/candidates",
                            static_cast<double>(supports_.size()));
    out.Emit(0, std::move(supports_));
  }

 private:
  const SupportJobConfig* config_;
  std::vector<uint64_t> scratch_;
  std::vector<uint64_t> supports_;
  uint64_t points_ = 0;
};

// ---------------------------------------------------------------------------
// Moment / covariance jobs (§5.4)
// ---------------------------------------------------------------------------

struct MomentJobConfig {
  const data::Dataset* dataset;
  const core::GmmModel* model;
  const MembershipFn* membership;
};

constexpr int64_t kLogLikelihoodKey = -1;

class MomentMapper : public Mapper<Record, int64_t, std::vector<double>> {
 public:
  explicit MomentMapper(const MomentJobConfig* config)
      : config_(config),
        k_(config->model->num_components()),
        dim_(config->model->dim()),
        w_(k_, 0.0),
        w2_(k_, 0.0),
        lsum_(k_, linalg::Vector(dim_, 0.0)) {
    mem_.Set(static_cast<int64_t>((2 * k_ + k_ * dim_) * sizeof(double)));
  }

  void Map(const Record& record,
           Emitter<int64_t, std::vector<double>>& out) override {
    (void)out;
    config_->model->Project(config_->dataset->Row(record), x_);
    contributions_.clear();
    log_likelihood_ +=
        config_->membership->Contributions(record, x_, contributions_);
    for (const auto& [c, weight] : contributions_) {
      w_[c] += weight;
      w2_[c] += weight * weight;
      kernels_.axpy(lsum_[c].data(), x_.data(), weight, dim_);
    }
  }

  void Cleanup(Emitter<int64_t, std::vector<double>>& out) override {
    // Payload layout: [wC, wC2, lC...] (§5.4's first EM job statistics).
    for (size_t c = 0; c < k_; ++c) {
      std::vector<double> stats;
      // Emit payload (dim+2 doubles), covered by the emitter charge.
      stats.reserve(dim_ + 2);  // NOLINT(p3c-untracked-hot-alloc)
      stats.push_back(w_[c]);
      stats.push_back(w2_[c]);
      stats.insert(stats.end(), lsum_[c].begin(), lsum_[c].end());
      out.Emit(static_cast<int64_t>(c), std::move(stats));
    }
    out.Emit(kLogLikelihoodKey, std::vector<double>{log_likelihood_});
  }

 private:
  const MomentJobConfig* config_;
  size_t k_;
  size_t dim_;
  std::vector<double> w_;
  std::vector<double> w2_;
  std::vector<linalg::Vector> lsum_;
  double log_likelihood_ = 0.0;
  linalg::Vector x_;  // the current point, projected onto Arel
  const core::kernels::Ops& kernels_ = core::kernels::Active();
  std::vector<std::pair<uint32_t, double>> contributions_;
  resource::ScopedBytes mem_{resource::MemScope::kGmmMatrices};
};

struct CovarianceJobConfig {
  const data::Dataset* dataset;
  const core::GmmModel* model;
  const MembershipFn* membership;
  const std::vector<linalg::Vector>* means;
};

class CovarianceMapper : public Mapper<Record, int64_t, std::vector<double>> {
 public:
  explicit CovarianceMapper(const CovarianceJobConfig* config)
      : config_(config),
        k_(config->model->num_components()),
        dim_(config->model->dim()),
        acc_(k_, linalg::Matrix(dim_, dim_)),
        centered_(dim_) {
    mem_.Set(static_cast<int64_t>(k_ * dim_ * dim_ * sizeof(double)));
  }

  void Map(const Record& record,
           Emitter<int64_t, std::vector<double>>& out) override {
    (void)out;
    config_->model->Project(config_->dataset->Row(record), x_);
    contributions_.clear();
    config_->membership->Contributions(record, x_, contributions_);
    for (const auto& [c, weight] : contributions_) {
      const linalg::Vector& mean = (*config_->means)[c];
      for (size_t j = 0; j < dim_; ++j) centered_[j] = x_[j] - mean[j];
      acc_[c].AddOuterProduct(centered_, weight);
    }
  }

  void Cleanup(Emitter<int64_t, std::vector<double>>& out) override {
    for (size_t c = 0; c < k_; ++c) {
      out.Emit(static_cast<int64_t>(c), acc_[c].data());
    }
  }

 private:
  const CovarianceJobConfig* config_;
  size_t k_;
  size_t dim_;
  std::vector<linalg::Matrix> acc_;
  linalg::Vector x_;         // the current point, projected onto Arel
  linalg::Vector centered_;  // x_ minus one component's mean
  std::vector<std::pair<uint32_t, double>> contributions_;
  resource::ScopedBytes mem_{resource::MemScope::kGmmMatrices};
};

// ---------------------------------------------------------------------------
// MVB ball job (§5.5)
// ---------------------------------------------------------------------------

struct MvbBallJobConfig {
  const data::Dataset* dataset;
  const core::GmmModel* model;
  const core::GmmEvaluator* evaluator;
};

class MvbBallMapper : public Mapper<Record, int64_t, std::vector<double>> {
 public:
  explicit MvbBallMapper(const MvbBallJobConfig* config)
      : config_(config),
        members_(config->model->num_components()) {}

  void Setup(size_t split_index, std::span<const Record> split,
             Emitter<int64_t, std::vector<double>>& out) override {
    // "mapper j caches the set of all data points Xsplit of the current
    // split" -- here the projected coordinates, grouped by cluster.
    (void)split_index;
    (void)out;
    linalg::Vector x;
    linalg::Vector scratch;
    for (const Record& record : split) {
      config_->model->Project(config_->dataset->Row(record), x);
      members_[config_->evaluator->HardAssign(x, scratch)].push_back(x);
    }
  }

  void Map(const Record& record,
           Emitter<int64_t, std::vector<double>>& out) override {
    (void)record;
    (void)out;  // all work happens in Setup/Cleanup
  }

  void Cleanup(Emitter<int64_t, std::vector<double>>& out) override {
    for (size_t c = 0; c < members_.size(); ++c) {
      if (members_[c].empty()) continue;
      const core::MvbStatistics stats =
          core::ComputeMvbStatistics(members_[c]);
      std::vector<double> payload = stats.center;
      payload.push_back(stats.radius);
      out.Emit(static_cast<int64_t>(c), std::move(payload));
    }
  }

 private:
  const MvbBallJobConfig* config_;
  std::vector<std::vector<linalg::Vector>> members_;
};

class MvbBallReducer
    : public Reducer<int64_t, std::vector<double>, KeyedDoubles> {
 public:
  void Reduce(const int64_t& key,
              std::span<const std::vector<double>> values,
              std::vector<KeyedDoubles>& out) override {
    if (values.empty()) return;
    const size_t dim = values.front().size() - 1;
    // Dimension-wise median of the split means; median of the radii.
    std::vector<double> result(dim + 1, 0.0);
    std::vector<double> column(values.size());
    for (size_t j = 0; j <= dim; ++j) {
      for (size_t i = 0; i < values.size(); ++i) column[i] = values[i][j];
      result[j] = stats::Median(column);
    }
    out.emplace_back(key, std::move(result));
  }
};

// ---------------------------------------------------------------------------
// OD job (§5.5, map-only)
// ---------------------------------------------------------------------------

struct OdJobConfig {
  const data::Dataset* dataset;
  const core::GmmModel* model;
  const core::GmmEvaluator* evaluator;
  const std::vector<linalg::Vector>* centers;
  const std::vector<linalg::Cholesky>* factors;
  double critical;
};

class OdMapper : public Mapper<Record, data::PointId, int32_t> {
 public:
  explicit OdMapper(const OdJobConfig* config) : config_(config) {}

  void Map(const Record& record,
           Emitter<data::PointId, int32_t>& out) override {
    config_->model->Project(config_->dataset->Row(record), x_);
    const size_t c = config_->evaluator->HardAssign(x_, scratch_);
    const double d2 = (*config_->factors)[c].MahalanobisSquared(
        x_, (*config_->centers)[c], scratch_);
    const bool outlier = d2 > config_->critical;
    if (outlier) {
      ++outliers_;
    } else {
      ++members_;
      // Integer observations: the histogram's double sum stays exact, so
      // the exported bucket counts AND sum are thread-count invariant.
      out.counters().Observe("od/cluster", static_cast<double>(c));
    }
    out.Emit(record, outlier ? -1 : static_cast<int32_t>(c));
  }

  void Cleanup(Emitter<data::PointId, int32_t>& out) override {
    out.counters().Increment("od/outliers", outliers_);
    out.counters().Increment("od/members", members_);
  }

 private:
  const OdJobConfig* config_;
  linalg::Vector x_;        // the current point, projected onto Arel
  linalg::Vector scratch_;  // triangular-solve space
  uint64_t outliers_ = 0;
  uint64_t members_ = 0;
};

// ---------------------------------------------------------------------------
// Per-cluster histogram job (§5.6)
// ---------------------------------------------------------------------------

struct ClusterHistogramJobConfig {
  const data::Dataset* dataset;
  const std::vector<int32_t>* membership;
  const std::vector<size_t>* bins_per_cluster;
};

class ClusterHistogramMapper
    : public Mapper<Record, int64_t, std::vector<uint64_t>> {
 public:
  explicit ClusterHistogramMapper(const ClusterHistogramJobConfig* config)
      : config_(config),
        local_(config->bins_per_cluster->size()) {}

  void Map(const Record& record,
           Emitter<int64_t, std::vector<uint64_t>>& out) override {
    (void)out;
    const int32_t c = (*config_->membership)[record];
    if (c < 0) return;
    auto& cluster_local = local_[static_cast<size_t>(c)];
    const size_t d = config_->dataset->num_dims();
    if (cluster_local.empty()) {
      const size_t bins =
          (*config_->bins_per_cluster)[static_cast<size_t>(c)];
      cluster_local.assign(d, stats::Histogram(bins));
      // Lazy materialization is once per (cluster, task), so the charge
      // update stays off the per-record path.
      mem_bytes_ += static_cast<int64_t>(d * bins * sizeof(uint64_t));
      mem_.Set(mem_bytes_);
    }
    const auto row = config_->dataset->Row(record);
    for (size_t j = 0; j < d; ++j) cluster_local[j].Add(row[j]);
  }

  void Cleanup(Emitter<int64_t, std::vector<uint64_t>>& out) override {
    const int64_t d = static_cast<int64_t>(config_->dataset->num_dims());
    for (size_t c = 0; c < local_.size(); ++c) {
      for (size_t j = 0; j < local_[c].size(); ++j) {
        out.Emit(static_cast<int64_t>(c) * d + static_cast<int64_t>(j),
                 local_[c][j].counts());
      }
    }
  }

 private:
  const ClusterHistogramJobConfig* config_;
  std::vector<std::vector<stats::Histogram>> local_;
  int64_t mem_bytes_ = 0;
  resource::ScopedBytes mem_{resource::MemScope::kHistogramBins};
};

// ---------------------------------------------------------------------------
// Tightening job (§5.7)
// ---------------------------------------------------------------------------

struct TighteningJobConfig {
  const data::Dataset* dataset;
  const std::vector<int32_t>* membership;
  const std::vector<std::vector<size_t>>* attrs;
};

class TighteningMapper : public Mapper<Record, int64_t, std::vector<double>> {
 public:
  explicit TighteningMapper(const TighteningJobConfig* config)
      : config_(config),
        lo_(config->attrs->size()),
        hi_(config->attrs->size()) {}

  void Map(const Record& record,
           Emitter<int64_t, std::vector<double>>& out) override {
    (void)out;
    const int32_t c = (*config_->membership)[record];
    if (c < 0) return;
    const auto& attrs = (*config_->attrs)[static_cast<size_t>(c)];
    auto& lo = lo_[static_cast<size_t>(c)];
    auto& hi = hi_[static_cast<size_t>(c)];
    if (lo.empty()) {
      // Per-cluster min/max bounds: O(k x attrs) doubles per task,
      // noise next to the charged dataset the rows come from.
      lo.assign(  // NOLINT(p3c-untracked-hot-alloc)
          attrs.size(), std::numeric_limits<double>::infinity());
      hi.assign(  // NOLINT(p3c-untracked-hot-alloc)
          attrs.size(), -std::numeric_limits<double>::infinity());
    }
    const auto row = config_->dataset->Row(record);
    for (size_t a = 0; a < attrs.size(); ++a) {
      lo[a] = std::min(lo[a], row[attrs[a]]);
      hi[a] = std::max(hi[a], row[attrs[a]]);
    }
  }

  void Cleanup(Emitter<int64_t, std::vector<double>>& out) override {
    for (size_t c = 0; c < lo_.size(); ++c) {
      if (lo_[c].empty()) continue;
      std::vector<double> payload;
      // Emit payload (2 x attrs doubles), covered by the emitter charge.
      payload.reserve(lo_[c].size() * 2);  // NOLINT(p3c-untracked-hot-alloc)
      payload.insert(payload.end(), lo_[c].begin(), lo_[c].end());
      payload.insert(payload.end(), hi_[c].begin(), hi_[c].end());
      out.Emit(static_cast<int64_t>(c), std::move(payload));
    }
  }

 private:
  const TighteningJobConfig* config_;
  std::vector<std::vector<double>> lo_;
  std::vector<std::vector<double>> hi_;
};

class TighteningReducer
    : public Reducer<int64_t, std::vector<double>, KeyedDoubles> {
 public:
  void Reduce(const int64_t& key,
              std::span<const std::vector<double>> values,
              std::vector<KeyedDoubles>& out) override {
    if (values.empty()) return;
    const size_t half = values.front().size() / 2;
    std::vector<double> acc = values.front();
    for (size_t i = 1; i < values.size(); ++i) {
      for (size_t a = 0; a < half; ++a) {
        acc[a] = std::min(acc[a], values[i][a]);
        acc[half + a] = std::max(acc[half + a], values[i][half + a]);
      }
    }
    out.emplace_back(key, std::move(acc));
  }
};

// ---------------------------------------------------------------------------
// Support-set job (§6, map-only)
// ---------------------------------------------------------------------------

struct SupportSetJobConfig {
  const data::Dataset* dataset;
  const core::Rssc* rssc;
  size_t num_signatures;
};

class SupportSetMapper
    : public Mapper<Record, data::PointId, std::vector<uint32_t>> {
 public:
  explicit SupportSetMapper(const SupportSetJobConfig* config)
      : config_(config) {}

  void Map(const Record& record,
           Emitter<data::PointId, std::vector<uint32_t>>& out) override {
    config_->rssc->Match(config_->dataset->Row(record), bits_);
    ids_.clear();
    core::Rssc::BitsToIds(bits_, config_->num_signatures, ids_);
    if (!ids_.empty()) out.Emit(record, ids_);
  }

 private:
  const SupportSetJobConfig* config_;
  std::vector<uint64_t> bits_;
  std::vector<uint32_t> ids_;
};

}  // namespace

std::vector<Record> MakeRecords(const data::Dataset& dataset) {
  std::vector<Record> records(dataset.num_points());
  for (size_t i = 0; i < records.size(); ++i) {
    records[i] = static_cast<Record>(i);
  }
  return records;
}

Result<std::vector<stats::Histogram>> RunHistogramJob(
    LocalRunner& runner, const data::Dataset& dataset,
    stats::BinningRule rule) {
  const std::vector<Record> records = MakeRecords(dataset);
  const size_t bins = static_cast<size_t>(
      stats::NumBins(rule, std::max<uint64_t>(1, dataset.num_points())));
  HistogramJobConfig config{&dataset, bins};
  ShuffleOptions<int64_t> shuffle;
  shuffle.num_reducers = ReducersForKeys(runner, dataset.num_dims());
  auto run = runner.Run<Record, int64_t, std::vector<uint64_t>,
                        std::pair<int64_t, std::vector<uint64_t>>>(
      "histogram", records,
      [&config] { return std::make_unique<HistogramMapper>(&config); },
      [] { return std::make_unique<CountSumReducer>(); }, shuffle);
  if (!run.ok()) return run.status();
  auto& out = *run;
  std::vector<stats::Histogram> histograms(dataset.num_dims(),
                                           stats::Histogram(bins));
  for (auto& [attr, counts] : out) {
    histograms[static_cast<size_t>(attr)].counts() = std::move(counts);
  }
  return histograms;
}

Result<std::vector<uint64_t>> RunSupportJob(
    LocalRunner& runner, const data::Dataset& dataset,
    const std::vector<core::Signature>& signatures) {
  if (signatures.empty()) return std::vector<uint64_t>{};
  const std::vector<Record> records = MakeRecords(dataset);
  const core::Rssc rssc(signatures);  // "calculated by the main program"
  SupportJobConfig config{&dataset, &rssc};
  ShuffleOptions<int64_t> shuffle;
  shuffle.num_reducers = 1;  // the job emits a single key
  auto run = runner.Run<Record, int64_t, std::vector<uint64_t>,
                        std::pair<int64_t, std::vector<uint64_t>>>(
      "support-count", records,
      [&config] { return std::make_unique<SupportMapper>(&config); },
      [] { return std::make_unique<CountSumReducer>(); }, shuffle);
  if (!run.ok()) return run.status();
  auto& out = *run;
  std::vector<uint64_t> supports(signatures.size(), 0);
  for (auto& [key, counts] : out) {
    (void)key;
    for (size_t i = 0; i < supports.size() && i < counts.size(); ++i) {
      supports[i] += counts[i];
    }
  }
  return supports;
}

double SoftMembership::Contributions(
    data::PointId point, const linalg::Vector& x,
    std::vector<std::pair<uint32_t, double>>& out) const {
  (void)point;
  thread_local std::vector<double> r;
  thread_local linalg::Vector scratch;
  const double log_likelihood = evaluator_.EStep(x, r, scratch).log_likelihood;
  for (size_t c = 0; c < r.size(); ++c) {
    if (r[c] > 1e-12) out.emplace_back(static_cast<uint32_t>(c), r[c]);
  }
  return log_likelihood;
}

Result<MomentSums> RunMomentJob(LocalRunner& runner,
                                const data::Dataset& dataset,
                                const core::GmmModel& model,
                                const MembershipFn& membership,
                                const char* job_name) {
  const std::vector<Record> records = MakeRecords(dataset);
  MomentJobConfig config{&dataset, &model, &membership};
  ShuffleOptions<int64_t> shuffle;
  // k component keys plus the log-likelihood key.
  shuffle.num_reducers = ReducersForKeys(runner, model.num_components() + 1);
  auto run = runner.Run<Record, int64_t, std::vector<double>, KeyedDoubles>(
      job_name, records,
      [&config] { return std::make_unique<MomentMapper>(&config); },
      [] { return std::make_unique<VectorSumReducer>(); }, shuffle);
  if (!run.ok()) return run.status();
  auto& out = *run;
  MomentSums sums;
  // Driver-side fold of the job output: O(k x dim) doubles, deliberately
  // untracked — the kGmmMatrices scope covers the per-task copies.
  sums.w.assign(model.num_components(), 0.0);  // NOLINT(p3c-untracked-hot-alloc)
  sums.w2.assign(model.num_components(), 0.0);  // NOLINT(p3c-untracked-hot-alloc)
  sums.lsum.assign(  // NOLINT(p3c-untracked-hot-alloc)
      model.num_components(), linalg::Vector(model.dim(), 0.0));
  for (auto& [key, stats] : out) {
    if (key == kLogLikelihoodKey) {
      sums.log_likelihood = stats.empty() ? 0.0 : stats[0];
      continue;
    }
    const auto c = static_cast<size_t>(key);
    sums.w[c] = stats[0];
    sums.w2[c] = stats[1];
    for (size_t j = 0; j < model.dim(); ++j) sums.lsum[c][j] = stats[2 + j];
  }
  return sums;
}

Result<std::vector<linalg::Matrix>> RunCovarianceJob(
    LocalRunner& runner, const data::Dataset& dataset,
    const core::GmmModel& model, const MembershipFn& membership,
    const std::vector<linalg::Vector>& means, const char* job_name) {
  const std::vector<Record> records = MakeRecords(dataset);
  CovarianceJobConfig config{&dataset, &model, &membership, &means};
  ShuffleOptions<int64_t> shuffle;
  shuffle.num_reducers = ReducersForKeys(runner, model.num_components());
  auto run = runner.Run<Record, int64_t, std::vector<double>, KeyedDoubles>(
      job_name, records,
      [&config] { return std::make_unique<CovarianceMapper>(&config); },
      [] { return std::make_unique<VectorSumReducer>(); }, shuffle);
  if (!run.ok()) return run.status();
  auto& out = *run;
  const size_t dim = model.dim();
  std::vector<linalg::Matrix> sums(model.num_components(),
                                   linalg::Matrix(dim, dim));
  for (auto& [key, flat] : out) {
    if (key < 0) continue;
    linalg::Matrix& m = sums[static_cast<size_t>(key)];
    for (size_t i = 0; i < dim && i * dim < flat.size(); ++i) {
      for (size_t j = 0; j < dim; ++j) m(i, j) = flat[i * dim + j];
    }
  }
  return sums;
}

Result<std::vector<MvbBall>> RunMvbBallJob(
    LocalRunner& runner, const data::Dataset& dataset,
    const core::GmmModel& model, const core::GmmEvaluator& evaluator) {
  const std::vector<Record> records = MakeRecords(dataset);
  MvbBallJobConfig config{&dataset, &model, &evaluator};
  ShuffleOptions<int64_t> shuffle;
  shuffle.num_reducers = ReducersForKeys(runner, model.num_components());
  auto run = runner.Run<Record, int64_t, std::vector<double>, KeyedDoubles>(
      "mvb-ball", records,
      [&config] { return std::make_unique<MvbBallMapper>(&config); },
      [] { return std::make_unique<MvbBallReducer>(); }, shuffle);
  if (!run.ok()) return run.status();
  auto& out = *run;
  std::vector<MvbBall> balls(model.num_components());
  for (auto& [key, payload] : out) {
    if (key < 0 || payload.empty()) continue;
    MvbBall& ball = balls[static_cast<size_t>(key)];
    // Driver-side fold, O(k x dim) doubles — deliberately untracked.
    ball.center.assign(  // NOLINT(p3c-untracked-hot-alloc)
        payload.begin(), payload.end() - 1);
    ball.radius = payload.back();
  }
  return balls;
}

Result<std::vector<int32_t>> RunOdJob(
    LocalRunner& runner, const data::Dataset& dataset,
    const core::GmmModel& model, const core::GmmEvaluator& evaluator,
    const std::vector<linalg::Vector>& centers,
    const std::vector<linalg::Cholesky>& factors, double critical) {
  const std::vector<Record> records = MakeRecords(dataset);
  OdJobConfig config{&dataset, &model,   &evaluator,
                     &centers, &factors, critical};
  auto run = runner.RunMapOnly<Record, data::PointId, int32_t>(
      "outlier-detection", records,
      [&config] { return std::make_unique<OdMapper>(&config); });
  if (!run.ok()) return run.status();
  std::vector<int32_t> assignment(dataset.num_points(), -1);
  for (const auto& [point, cluster] : *run) assignment[point] = cluster;
  return assignment;
}

Result<std::vector<std::vector<stats::Histogram>>> RunClusterHistogramJob(
    LocalRunner& runner, const data::Dataset& dataset,
    const std::vector<int32_t>& membership, size_t num_clusters,
    const std::vector<size_t>& bins_per_cluster) {
  const std::vector<Record> records = MakeRecords(dataset);
  ClusterHistogramJobConfig config{&dataset, &membership, &bins_per_cluster};
  ShuffleOptions<int64_t> shuffle;
  shuffle.num_reducers =
      ReducersForKeys(runner, num_clusters * dataset.num_dims());
  auto run = runner.Run<Record, int64_t, std::vector<uint64_t>,
                        std::pair<int64_t, std::vector<uint64_t>>>(
      "cluster-histograms", records,
      [&config] { return std::make_unique<ClusterHistogramMapper>(&config); },
      [] { return std::make_unique<CountSumReducer>(); }, shuffle);
  if (!run.ok()) return run.status();
  auto& out = *run;
  const size_t d = dataset.num_dims();
  std::vector<std::vector<stats::Histogram>> histograms(num_clusters);
  for (size_t c = 0; c < num_clusters; ++c) {
    // Driver-side result histograms; the per-task copies are what the
    // kHistogramBins scope tracks (ClusterHistogramMapper charges them).
    histograms[c].assign(  // NOLINT(p3c-untracked-hot-alloc)
        d, stats::Histogram(bins_per_cluster[c]));
  }
  for (auto& [key, counts] : out) {
    const auto c = static_cast<size_t>(key / static_cast<int64_t>(d));
    const auto attr = static_cast<size_t>(key % static_cast<int64_t>(d));
    histograms[c][attr].counts() = std::move(counts);
  }
  return histograms;
}

Result<std::vector<std::vector<core::Interval>>> RunTighteningJob(
    LocalRunner& runner, const data::Dataset& dataset,
    const std::vector<int32_t>& membership,
    const std::vector<std::vector<size_t>>& attrs) {
  const std::vector<Record> records = MakeRecords(dataset);
  TighteningJobConfig config{&dataset, &membership, &attrs};
  ShuffleOptions<int64_t> shuffle;
  shuffle.num_reducers = ReducersForKeys(runner, attrs.size());
  auto run = runner.Run<Record, int64_t, std::vector<double>, KeyedDoubles>(
      "interval-tightening", records,
      [&config] { return std::make_unique<TighteningMapper>(&config); },
      [] { return std::make_unique<TighteningReducer>(); }, shuffle);
  if (!run.ok()) return run.status();
  auto& out = *run;
  std::vector<std::vector<core::Interval>> intervals(attrs.size());
  for (auto& [key, payload] : out) {
    if (key < 0) continue;
    const auto c = static_cast<size_t>(key);
    const size_t half = payload.size() / 2;
    // Driver-side result intervals, O(k x attrs) — deliberately untracked.
    intervals[c].resize(half);  // NOLINT(p3c-untracked-hot-alloc)
    for (size_t a = 0; a < half; ++a) {
      intervals[c][a] = core::Interval{attrs[c][a], payload[a],
                                       payload[half + a]};
    }
  }
  return intervals;
}

Result<SupportSetJobResult> RunSupportSetJob(
    LocalRunner& runner, const data::Dataset& dataset,
    const std::vector<core::Signature>& signatures) {
  SupportSetJobResult result;
  // Driver-side result: signature headers plus one int32 per point —
  // an order under the dataset's charged doubles; deliberately untracked.
  result.support_sets.resize(  // NOLINT(p3c-untracked-hot-alloc)
      signatures.size());
  result.unique_assignment.assign(  // NOLINT(p3c-untracked-hot-alloc)
      dataset.num_points(), -1);
  if (signatures.empty()) return result;
  const std::vector<Record> records = MakeRecords(dataset);
  const core::Rssc rssc(signatures);
  SupportSetJobConfig config{&dataset, &rssc, signatures.size()};
  auto run = runner.RunMapOnly<Record, data::PointId, std::vector<uint32_t>>(
      "support-sets", records,
      [&config] { return std::make_unique<SupportSetMapper>(&config); });
  if (!run.ok()) return run.status();
  for (auto& [point, ids] : *run) {
    for (uint32_t id : ids) result.support_sets[id].push_back(point);
    result.unique_assignment[point] =
        ids.size() == 1 ? static_cast<int32_t>(ids[0]) : -2;
  }
  return result;
}

}  // namespace p3c::mr
