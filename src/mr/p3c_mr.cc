#include "src/mr/p3c_mr.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <optional>

#include "src/common/logging.h"
#include "src/common/resource.h"
#include "src/common/stopwatch.h"
#include "src/common/string_util.h"
#include "src/common/trace.h"
#include "src/core/driver.h"
#include "src/core/gmm.h"
#include "src/core/rssc.h"
#include "src/linalg/cholesky.h"
#include "src/mr/checkpoint.h"
#include "src/mr/jobs.h"
#include "src/stats/chi_squared.h"

namespace p3c::mr {

bool IsRetryableJobFailure(const Status& status) {
  // kDeadlineExceeded: a task was killed for running past its wall-clock
  // deadline and exhausted its attempts — slowness is transient (a loaded
  // machine, a stuck disk), so the job is worth one more run. The phase
  // budget, not the retry policy, bounds how long the pipeline keeps
  // trying.
  return status.code() == StatusCode::kInternal ||
         status.code() == StatusCode::kIOError ||
         status.code() == StatusCode::kDeadlineExceeded;
}

namespace {

/// RAII memory-phase window on the global MemoryTracker. Repeated
/// windows with the same name (job retries, the EM loop) max-merge into
/// one mem.phase.<name>.peak_bytes gauge; inactive (tracker off) it is
/// two relaxed loads.
class PhaseMemWindow {
 public:
  explicit PhaseMemWindow(const char* phase) {
    if (resource::MemoryTracker::Global().enabled()) {
      active_ = true;
      resource::MemoryTracker::Global().BeginPhase(phase);
    }
  }
  ~PhaseMemWindow() {
    if (active_) resource::MemoryTracker::Global().EndPhase();
  }
  PhaseMemWindow(const PhaseMemWindow&) = delete;
  PhaseMemWindow& operator=(const PhaseMemWindow&) = delete;

 private:
  bool active_ = false;
};

/// Runs one MR job under the pipeline's job-retry policy: retryable
/// failures re-run the whole job (failed jobs leave no side effects, so
/// this is safe), fatal ones and exhausted policies surface a Status
/// naming the pipeline phase and the attempt count on top of the
/// engine's job/task detail. A phase that has already consumed
/// JobRetryPolicy::phase_budget_seconds of wall-clock time stops
/// retrying and fails with a phase-tagged kDeadlineExceeded — a
/// pathological phase (every attempt deadline-killed, every job re-run)
/// degrades into a bounded, explained failure instead of wedging the
/// caller.
template <typename Fn>
auto RunPipelineJob(const JobRetryPolicy& policy, const char* phase,
                    Fn&& fn) -> decltype(fn()) {
  // Phase span: the middle level of the trace hierarchy (pipeline →
  // phase → job → task attempt). One span per job run, so a job-level
  // retry shows as a second phase slice with the failure instant
  // between them.
  TraceSpan phase_span(std::string("phase:") + phase);
  PhaseMemWindow mem_window(phase);
  Stopwatch budget_watch;
  const size_t max_attempts = std::max<size_t>(1, policy.max_job_attempts);
  Status last;
  size_t attempts = 0;
  for (; attempts < max_attempts; ++attempts) {
    auto result = fn();
    if (result.ok()) return result;
    last = result.status();
    if (Tracer::Global().enabled()) {
      Tracer::Global().RecordInstant(
          StringPrintf("job-failed (phase %s)", phase),
          StringPrintf("{\"error\": \"%s\"}",
                       JsonEscape(last.message()).c_str()));
    }
    if (!IsRetryableJobFailure(last)) {
      ++attempts;
      break;
    }
    if (policy.phase_budget_seconds > 0.0 &&
        budget_watch.ElapsedSeconds() >= policy.phase_budget_seconds) {
      ++attempts;
      return Status::DeadlineExceeded(StringPrintf(
          "P3C+-MR phase '%s' exceeded its %.3fs wall-clock budget after "
          "%zu job attempt(s); last failure: %s",
          phase, policy.phase_budget_seconds, attempts,
          last.message().c_str()));
    }
  }
  return Status(last.code(),
                StringPrintf("P3C+-MR phase '%s' failed after %zu job "
                             "attempt(s): %s",
                             phase, attempts, last.message().c_str()));
}

/// Hard membership by cluster-core containment: a point contributes
/// weight 1 to every core whose support set contains it (EM init round 1,
/// §5.4).
class CoreMembership : public MembershipFn {
 public:
  CoreMembership(const data::Dataset& dataset,
                 const std::vector<core::Signature>& signatures)
      : dataset_(dataset), rssc_(signatures), k_(signatures.size()) {}

  double Contributions(
      data::PointId point, const linalg::Vector& x,
      std::vector<std::pair<uint32_t, double>>& out) const override {
    (void)x;
    thread_local std::vector<uint64_t> bits;
    thread_local std::vector<uint32_t> ids;
    rssc_.Match(dataset_.Row(point), bits);
    ids.clear();
    core::Rssc::BitsToIds(bits, k_, ids);
    for (uint32_t id : ids) out.emplace_back(id, 1.0);
    return 0.0;
  }

 private:
  const data::Dataset& dataset_;
  core::Rssc rssc_;
  size_t k_;
};

/// EM init round 2 (§5.4): support-set members as before, and points
/// outside every support set attach to the Mahalanobis-nearest core.
class OrphanAssigningMembership : public MembershipFn {
 public:
  OrphanAssigningMembership(const CoreMembership& cores,
                            const core::GmmEvaluator& evaluator)
      : cores_(cores), evaluator_(evaluator) {}

  double Contributions(
      data::PointId point, const linalg::Vector& x,
      std::vector<std::pair<uint32_t, double>>& out) const override {
    const size_t before = out.size();
    cores_.Contributions(point, x, out);
    if (out.size() != before) return 0.0;
    thread_local linalg::Vector scratch;
    out.emplace_back(
        static_cast<uint32_t>(evaluator_.MahalanobisNearest(x, scratch)),
        1.0);
    return 0.0;
  }

 private:
  const CoreMembership& cores_;
  const core::GmmEvaluator& evaluator_;
};

/// MVB in-ball membership: the point's argmax-posterior cluster, kept
/// only when the point lies inside that cluster's ball.
class BallMembership : public MembershipFn {
 public:
  BallMembership(const core::GmmEvaluator& evaluator,
                 const std::vector<MvbBall>& balls)
      : evaluator_(evaluator), balls_(balls) {}

  double Contributions(
      data::PointId point, const linalg::Vector& x,
      std::vector<std::pair<uint32_t, double>>& out) const override {
    (void)point;
    thread_local linalg::Vector scratch;
    const size_t c = evaluator_.HardAssign(x, scratch);
    const MvbBall& ball = balls_[c];
    if (ball.center.empty()) return 0.0;
    if (std::sqrt(linalg::SquaredDistance(x, ball.center)) <= ball.radius) {
      out.emplace_back(static_cast<uint32_t>(c), 1.0);
    }
    return 0.0;
  }

 private:
  const core::GmmEvaluator& evaluator_;
  const std::vector<MvbBall>& balls_;
};

/// Turns moment/covariance job sums into component parameters using the
/// paper's unbiased weighted covariance Sigma_C = wC / (wC^2 - wC2) *
/// sum w (x - mu)(x - mu)^T (§5.4); keeps the previous values when a
/// component received (almost) no mass.
void UpdateModel(const MomentSums& moments,
                 const std::vector<linalg::Matrix>& cov_sums,
                 core::GmmModel& model) {
  const size_t k = model.num_components();
  const size_t dim = model.dim();
  double total_w = 0.0;
  for (double w : moments.w) total_w += w;
  for (size_t c = 0; c < k; ++c) {
    core::GaussianComponent& comp = model.components[c];
    const double denom = moments.w[c] * moments.w[c] - moments.w2[c];
    if (moments.w[c] < 1e-9 || denom <= 1e-12) continue;  // keep previous
    comp.weight = total_w > 0.0 ? moments.w[c] / total_w
                                : 1.0 / static_cast<double>(k);
    for (size_t j = 0; j < dim; ++j) {
      comp.mean[j] = moments.lsum[c][j] / moments.w[c];
    }
    comp.cov = cov_sums[c].Scale(moments.w[c] / denom);
  }
}

std::vector<linalg::Vector> Means(const core::GmmModel& model) {
  std::vector<linalg::Vector> means;
  means.reserve(model.num_components());
  for (const auto& comp : model.components) means.push_back(comp.mean);
  return means;
}

Result<std::vector<linalg::Cholesky>> FactorizeAll(
    const std::vector<linalg::Matrix>& covs, double ridge) {
  std::vector<linalg::Cholesky> factors;
  factors.reserve(covs.size());
  for (const linalg::Matrix& cov : covs) {
    linalg::Matrix work = cov;
    Result<linalg::Cholesky> chol = linalg::Cholesky::Factorize(work);
    double eps = ridge;
    while (!chol.ok() && eps < 1.0) {
      work.AddToDiagonal(eps);
      chol = linalg::Cholesky::Factorize(work);
      eps *= 10.0;
    }
    if (!chol.ok()) {
      return Status::Internal("covariance not factorizable");
    }
    factors.push_back(std::move(chol).value());
  }
  return factors;
}

/// Decoded driver state of every phase a valid checkpoint completed.
/// All payloads are decoded up front: a single undecodable phase
/// discards the whole checkpoint (DiscardAll), so resume never mixes
/// restored and stale state.
struct ResumeState {
  std::optional<HistogramPhaseState> histogram;
  std::optional<CoresPhaseState> cores;
  std::optional<SupportSetsPhaseState> support_sets;  // light pipeline
  std::optional<GmmPhaseState> gmm;                   // full pipeline
  std::optional<MembershipPhaseState> od;             // full pipeline
  /// Framework counters persisted with the last completed phase.
  MetricBag counters;
};

/// Phase names in pipeline order. The parameter hash pins `light`, so a
/// validated manifest always belongs to the matching variant; the name
/// check below is defense in depth.
std::vector<std::string> ExpectedPhaseNames(bool light) {
  if (light) return {"histogram", "cluster-cores", "support-sets"};
  return {"histogram", "cluster-cores", "em-refinement",
          "outlier-detection"};
}

template <typename State>
Status DecodeInto(Result<State> decoded, std::optional<State>& slot,
                  MetricBag& counters) {
  if (!decoded.ok()) return decoded.status();
  slot = std::move(decoded).value();
  counters = slot->counters;
  return Status::OK();
}

ResumeState DecodeResumeState(CheckpointManager& ckpt, bool light,
                              size_t num_points, size_t num_dims) {
  ResumeState state;
  const std::vector<std::string> expected = ExpectedPhaseNames(light);
  if (ckpt.num_completed() > expected.size()) {
    ckpt.DiscardAll(StringPrintf(
        "manifest lists %zu phases but the pipeline has %zu",
        ckpt.num_completed(), expected.size()));
    return {};
  }
  for (size_t i = 0; i < ckpt.num_completed(); ++i) {
    const std::string& name = ckpt.PhaseName(i);
    if (name != expected[i]) {
      ckpt.DiscardAll(StringPrintf(
          "phase %zu is '%s' where '%s' was expected", i, name.c_str(),
          expected[i].c_str()));
      return {};
    }
    const std::string& payload = ckpt.PhasePayload(i);
    Status decode_status;
    if (name == "histogram") {
      decode_status = DecodeInto(DecodeHistogramState(payload),
                                 state.histogram, state.counters);
    } else if (name == "cluster-cores") {
      decode_status =
          DecodeInto(DecodeCoresState(payload), state.cores, state.counters);
    } else if (name == "support-sets") {
      decode_status = DecodeInto(DecodeSupportSetsState(payload),
                                 state.support_sets, state.counters);
    } else if (name == "em-refinement") {
      decode_status =
          DecodeInto(DecodeGmmState(payload), state.gmm, state.counters);
    } else {  // "outlier-detection"
      decode_status =
          DecodeInto(DecodeMembershipState(payload), state.od, state.counters);
    }
    if (!decode_status.ok()) {
      ckpt.DiscardAll(StringPrintf("phase '%s' payload undecodable: %s",
                                   name.c_str(),
                                   decode_status.ToString().c_str()));
      return {};
    }
  }
  // Cross-phase consistency: every restored structure must agree with
  // the dataset shape and with the other phases. The checksums already
  // reject accidental corruption; these checks reject a checkpoint that
  // is internally coherent but wrong for this run.
  std::string inconsistency;
  if (state.histogram && state.histogram->histograms.size() != num_dims) {
    inconsistency = "histogram count disagrees with the dataset dims";
  }
  const size_t k = state.cores ? state.cores->cores.size() : 0;
  if (inconsistency.empty() && state.support_sets &&
      (state.support_sets->unique_assignment.size() != num_points ||
       state.support_sets->support_sets.size() != k)) {
    inconsistency = "support-sets state disagrees with dataset/cores";
  }
  if (inconsistency.empty() && state.gmm && state.cores &&
      (state.gmm->model.components.size() != k ||
       state.gmm->model.arel !=
           core::RelevantAttributeUnion(state.cores->cores))) {
    inconsistency = "EM model disagrees with the restored cores";
  }
  if (inconsistency.empty() && state.od &&
      state.od->membership.size() != num_points) {
    inconsistency = "membership size disagrees with the dataset";
  }
  if (!inconsistency.empty()) {
    ckpt.DiscardAll(inconsistency);
    return {};
  }
  return state;
}

/// The MapReduce executor: every pass is one MR job on the LocalRunner,
/// run under the job-retry policy. It also owns everything durable: the
/// checkpoint phases ("histogram", "cluster-cores", then "support-sets"
/// or "em-refinement" + "outlier-detection") are restored from `resume`
/// or committed as they finish, each commit followed by the fault
/// injector's phase hook and a cancellation poll.
class MrExecutor final : public core::PassExecutor {
 public:
  MrExecutor(LocalRunner& runner, const data::Dataset& dataset,
             const P3CMROptions& options, Counters& counters,
             CheckpointManager& ckpt, ResumeState& resume)
      : runner_(runner),
        dataset_(dataset),
        options_(options),
        counters_(counters),
        ckpt_(ckpt),
        resume_(resume),
        completed_(ckpt.num_completed()) {}

  uint64_t num_points() const override { return dataset_.num_points(); }
  ThreadPool* pool() override { return &runner_.pool(); }

  /// Cooperative shutdown: between phases the driver's own token is the
  /// cancellation authority (task-level tokens stop individual attempts;
  /// this stops the pipeline). Polled right after each commit, so a
  /// SIGTERM'd run exits with every finished phase already durable.
  Status CheckCancel(const char* after_phase) const {
    if (!options_.cancel.cancelled()) return Status::OK();
    return Status::Cancelled(StringPrintf(
        "pipeline cancelled after phase '%s'%s", after_phase,
        ckpt_.enabled() ? "; completed phases are checkpointed and the run "
                          "can resume from the checkpoint directory"
                        : ""));
  }

  Result<std::vector<stats::Histogram>> Histograms(
      stats::BinningRule rule) override {
    if (completed_ >= 1) return std::move(resume_.histogram->histograms);
    auto histograms = Job("histogram", [&] {
      return RunHistogramJob(runner_, dataset_, rule);
    });
    if (!histograms.ok()) return histograms;
    P3C_RETURN_NOT_OK(EndPhase("histogram", [&] {
      return EncodeHistogramState({*histograms, counters_.Snapshot()});
    }));
    return histograms;
  }

  Result<std::vector<uint64_t>> CountSupports(
      const std::vector<core::Signature>& sigs) override {
    // Polled per batch, so a mid-generation SIGTERM stops at the next
    // batch instead of grinding through the remaining proving rounds.
    if (options_.cancel.cancelled()) {
      return Status::Cancelled("pipeline cancelled during support counting");
    }
    return Job("support-count",
               [&] { return RunSupportJob(runner_, dataset_, sigs); });
  }

  /// The whole candidate-generation / support-counting / core-detection
  /// block checkpoints as one "cluster-cores" phase: its state (the
  /// proven cores and their stats) is small, while mid-generation state
  /// (the A-priori lattice frontier) is not worth persisting.
  Result<core::CoreDetectionResult> ClusterCores(
      const std::function<Result<core::CoreDetectionResult>()>& generate)
      override {
    if (completed_ >= 2) {
      return core::CoreDetectionResult{std::move(resume_.cores->cores),
                                       resume_.cores->stats};
    }
    Result<core::CoreDetectionResult> detection = generate();
    if (!detection.ok()) return detection;
    P3C_RETURN_NOT_OK(EndPhase("cluster-cores", [&] {
      return EncodeCoresState(
          {detection->stats, detection->cores, counters_.Snapshot()});
    }));
    return detection;
  }

  Result<std::vector<uint64_t>> LightMembership(
      const std::vector<core::Signature>& signatures) override {
    if (completed_ >= 3) {
      reported_ = std::move(resume_.support_sets->support_sets);
      membership_ = std::move(resume_.support_sets->unique_assignment);
    } else {
      auto sets = Job("support-sets", [&] {
        return RunSupportSetJob(runner_, dataset_, signatures);
      });
      if (!sets.ok()) return sets.status();
      reported_ = std::move(sets->support_sets);
      membership_ = std::move(sets->unique_assignment);
      P3C_RETURN_NOT_OK(EndPhase("support-sets", [&] {
        return EncodeSupportSetsState(
            {reported_, membership_, counters_.Snapshot()});
      }));
    }
    // m': multi-core points carry -2 and are excluded from histograms and
    // tightening by the jobs' `c < 0` guard.
    return MemberCounts(signatures.size());
  }

  Result<std::vector<uint64_t>> Refine(
      const std::vector<core::ClusterCore>& cores) override {
    const size_t k = cores.size();
    if (completed_ >= 4) {
      // Both refinement phases checkpointed: attribute inspection and
      // tightening run on the membership alone, the model is not needed.
      membership_ = std::move(resume_.od->membership);
    } else {
      // Resume after 'em-refinement': the converged model was persisted
      // and outlier detection runs live.
      Result<core::GmmModel> model =
          completed_ >= 3
              ? Result<core::GmmModel>(std::move(resume_.gmm->model))
              : FitModel(cores);
      if (!model.ok()) return model.status();
      auto od = DetectOutliers(*model);
      if (!od.ok()) return od.status();
      membership_ = std::move(od).value();
      P3C_RETURN_NOT_OK(EndPhase("outlier-detection", [&] {
        return EncodeMembershipState({membership_, counters_.Snapshot()});
      }));
    }
    reported_ = core::GroupByCluster(membership_, k);
    return MemberCounts(k);
  }

  Result<std::vector<std::vector<stats::Histogram>>> MemberHistograms(
      const std::vector<size_t>& bins) override {
    return Job("cluster-histograms", [&] {
      return RunClusterHistogramJob(runner_, dataset_, membership_,
                                    bins.size(), bins);
    });
  }

  Result<std::vector<std::vector<core::Interval>>> Tighten(
      const std::vector<std::vector<size_t>>& attrs) override {
    return Job("interval-tightening", [&] {
      return RunTighteningJob(runner_, dataset_, membership_, attrs);
    });
  }

  std::vector<std::vector<data::PointId>> TakeReported() {
    return std::move(reported_);
  }

 private:
  template <typename Fn>
  auto Job(const char* phase, Fn&& fn) -> decltype(fn()) {
    return RunPipelineJob(options_.retry, phase, std::forward<Fn>(fn));
  }

  /// Commits one finished phase (when checkpointing) and then gives the
  /// fault injector its crash point: the checkpoint is durable when the
  /// hook fires, so an injected failure here models a driver killed at
  /// the phase boundary. Then polls cancellation.
  template <typename Encode>
  Status EndPhase(const char* name, const Encode& encode) {
    if (ckpt_.enabled()) {
      P3C_RETURN_NOT_OK(ckpt_.CommitPhase(name, encode()));
      if (options_.runner.fault_injector != nullptr) {
        const std::string phase_name(name);
        P3C_RETURN_NOT_OK(options_.runner.fault_injector->OnPhaseCommit(
            PhaseCommit{phase_name, ckpt_.num_completed() - 1}));
      }
    }
    return CheckCancel(name);
  }

  std::vector<uint64_t> MemberCounts(size_t k) const {
    std::vector<uint64_t> counts(k, 0);
    for (int32_t c : membership_) {
      if (c >= 0) ++counts[static_cast<size_t>(c)];
    }
    return counts;
  }

  /// One EM round of §5.4 (EM-init rounds 1 and 2, and every EM step):
  /// the moment job, interim means for the components that received
  /// mass (w >= 1e-9), the covariance job around those means,
  /// UpdateModel, and finally the interim means written back — so a
  /// component with mass but a degenerate weight denominator (denom <=
  /// 1e-12, which UpdateModel skips) still moves its mean. Returns the
  /// moment sums (the EM loop reads their log-likelihood).
  Result<MomentSums> EmRound(const char* phase, const MembershipFn& membership,
                             const char* moment_job, const char* cov_job,
                             core::GmmModel& model) {
    auto moments = Job(phase, [&] {
      return RunMomentJob(runner_, dataset_, model, membership, moment_job);
    });
    if (!moments.ok()) return moments;
    const MomentSums& m = *moments;
    core::GmmModel interim = model;
    for (size_t c = 0; c < model.num_components(); ++c) {
      if (m.w[c] < 1e-9) continue;
      for (size_t j = 0; j < model.dim(); ++j) {
        interim.components[c].mean[j] = m.lsum[c][j] / m.w[c];
      }
    }
    auto covs = Job(phase, [&] {
      return RunCovarianceJob(runner_, dataset_, interim, membership,
                              Means(interim), cov_job);
    });
    if (!covs.ok()) return covs.status();
    UpdateModel(m, *covs, model);
    for (size_t c = 0; c < model.num_components(); ++c) {
      if (m.w[c] >= 1e-9) model.components[c].mean = interim.components[c].mean;
    }
    return moments;
  }

  /// EM initialization (two rounds of two jobs) and EM steps (two jobs
  /// each) of §5.4, committed as the "em-refinement" phase.
  Result<core::GmmModel> FitModel(const std::vector<core::ClusterCore>& cores) {
    const core::P3CParams& params = options_.params;
    const size_t k = cores.size();
    core::GmmModel model;
    model.arel = core::RelevantAttributeUnion(cores);
    const size_t dim = model.dim();
    model.components.assign(
        k, core::GaussianComponent{linalg::Vector(dim, 0.5),
                                   linalg::Matrix::Identity(dim).Scale(1e-2),
                                   1.0 / static_cast<double>(k)});

    std::vector<core::Signature> signatures;
    for (const auto& core : cores) signatures.push_back(core.signature);
    CoreMembership core_membership(dataset_, signatures);
    auto m1 = EmRound("em-init", core_membership, "em-init-1a", "em-init-1b",
                      model);
    if (!m1.ok()) return m1.status();
    Result<core::GmmEvaluator> eval1 =
        core::GmmEvaluator::Make(model, params.covariance_ridge);
    if (!eval1.ok()) return eval1.status();
    OrphanAssigningMembership full_membership(core_membership, *eval1);
    auto m2 = EmRound("em-init", full_membership, "em-init-2a", "em-init-2b",
                      model);
    if (!m2.ok()) return m2.status();

    double prev_ll = -std::numeric_limits<double>::infinity();
    for (size_t iter = 0; iter < params.max_em_iterations; ++iter) {
      Result<core::GmmEvaluator> evaluator =
          core::GmmEvaluator::Make(model, params.covariance_ridge);
      if (!evaluator.ok()) return evaluator.status();
      SoftMembership soft(*evaluator);
      auto moments =
          EmRound("em-step", soft, "em-step-means", "em-step-covs", model);
      if (!moments.ok()) return moments.status();
      const double denom = std::fabs(prev_ll) + 1e-12;
      if (iter > 0 && std::fabs(moments->log_likelihood - prev_ll) / denom <
                          params.em_tolerance) {
        break;
      }
      prev_ll = moments->log_likelihood;
    }

    P3C_RETURN_NOT_OK(EndPhase("em-refinement", [&] {
      return EncodeGmmState({model, counters_.Snapshot()});
    }));
    return model;
  }

  /// §5.5: naive or MVB statistics (ball job + two statistics jobs:
  /// "three MR jobs"), then the map-only OD job. Returns the per-point
  /// membership, -1 for outliers.
  Result<std::vector<int32_t>> DetectOutliers(const core::GmmModel& model) {
    const core::P3CParams& params = options_.params;
    const size_t k = model.num_components();
    const size_t dim = model.dim();
    Result<core::GmmEvaluator> evaluator =
        core::GmmEvaluator::Make(model, params.covariance_ridge);
    if (!evaluator.ok()) return evaluator.status();
    const double critical = stats::ChiSquaredQuantile(
        1.0 - params.outlier_alpha, static_cast<double>(dim));

    std::vector<linalg::Vector> centers;
    std::vector<linalg::Matrix> covs;
    if (params.outlier == core::OutlierMode::kNaive) {
      centers = Means(model);
      covs.reserve(k);
      for (const auto& comp : model.components) covs.push_back(comp.cov);
    } else {
      auto balls_result = Job("mvb", [&] {
        return RunMvbBallJob(runner_, dataset_, model, *evaluator);
      });
      if (!balls_result.ok()) return balls_result.status();
      const std::vector<MvbBall>& balls = *balls_result;
      BallMembership ball_membership(*evaluator, balls);
      auto mb_result = Job("mvb", [&] {
        return RunMomentJob(runner_, dataset_, model, ball_membership,
                            "mvb-means");
      });
      if (!mb_result.ok()) return mb_result.status();
      const MomentSums& mb = *mb_result;
      centers.assign(k, linalg::Vector(dim, 0.5));
      for (size_t c = 0; c < k; ++c) {
        if (mb.w[c] < 1e-9) {
          centers[c] = balls[c].center.empty() ? model.components[c].mean
                                               : balls[c].center;
          continue;
        }
        for (size_t j = 0; j < dim; ++j) {
          centers[c][j] = mb.lsum[c][j] / mb.w[c];
        }
      }
      auto cov_sums = Job("mvb", [&] {
        return RunCovarianceJob(runner_, dataset_, model, ball_membership,
                                centers, "mvb-covs");
      });
      if (!cov_sums.ok()) return cov_sums.status();
      covs.assign(k, linalg::Matrix::Identity(dim).Scale(1e-2));
      for (size_t c = 0; c < k; ++c) {
        const double denom = mb.w[c] * mb.w[c] - mb.w2[c];
        if (mb.w[c] >= 1e-9 && denom > 1e-12) {
          covs[c] = (*cov_sums)[c].Scale(mb.w[c] / denom);
        }
        core::ApplyMvbConsistencyCorrection(covs[c], dim);
      }
    }
    Result<std::vector<linalg::Cholesky>> factors =
        FactorizeAll(covs, params.covariance_ridge);
    if (!factors.ok()) return factors.status();
    return Job("outlier-detection", [&] {
      return RunOdJob(runner_, dataset_, model, *evaluator, centers, *factors,
                      critical);
    });
  }

  LocalRunner& runner_;
  const data::Dataset& dataset_;
  const P3CMROptions& options_;
  Counters& counters_;
  CheckpointManager& ckpt_;
  ResumeState& resume_;
  const size_t completed_;
  std::vector<int32_t> membership_;  // per point: cluster or negative
  std::vector<std::vector<data::PointId>> reported_;
};

}  // namespace

P3CMR::P3CMR(P3CMROptions options) : options_(std::move(options)) {
  options_.runner.metrics = &metrics_;
  options_.runner.counters = &counters_;
  runner_ = std::make_unique<LocalRunner>(options_.runner);
}

Result<core::ClusteringResult> P3CMR::Cluster(const data::Dataset& dataset) {
  Stopwatch watch;
  TraceSpan pipeline_span(
      options_.params.light ? "pipeline:p3c+-mr-light" : "pipeline:p3c+-mr",
      Tracer::Global().enabled()
          ? StringPrintf("{\"points\": %zu, \"dims\": %zu}",
                         dataset.num_points(), dataset.num_dims())
          : std::string());
  metrics_.Clear();
  counters_.Clear();
  driver_metrics_.Clear();
  // Memory run boundary: clear peaks/phase windows from any previous
  // run, and export the run's gauges into driver_metrics_ on every exit
  // path (success and failure alike — a failed run's peaks still matter).
  if (resource::MemoryTracker::Global().enabled()) {
    resource::MemoryTracker::Global().ResetRun();
  }
  struct GaugeExportOnExit {
    MetricBag* bag;
    LocalRunner* runner;
    ~GaugeExportOnExit() {
      if (resource::MemoryTracker::Global().enabled()) {
        resource::MemoryTracker::Global().ExportGauges(bag);
      }
      // Worker-backend observability (DESIGN.md §16): spawn/respawn/
      // kill counters and the peak worker RSS gauge land next to the
      // checkpoint and memory bookkeeping — driver-side only, never in
      // the deterministic job counters. Empty on the in-process
      // backend.
      bag->MergeFrom(runner->SnapshotWorkerMetrics());
    }
  } gauge_export{&driver_metrics_, runner_.get()};
  if (dataset.num_points() == 0 || dataset.num_dims() == 0) {
    return Status::InvalidArgument("dataset is empty");
  }
  if (!dataset.IsNormalized()) {
    return Status::InvalidArgument(
        "dataset must be normalized to [0, 1]; call NormalizeMinMax first");
  }
  const core::P3CParams& params = options_.params;
  if (!params.light && params.outlier == core::OutlierMode::kMCD) {
    return Status::NotImplemented(
        "OutlierMode::kMCD is serial-only (its concentration steps are not "
        "record-parallel); use core::P3CPipeline, or kMVB here");
  }

  // ---- Checkpoint scan (DESIGN.md §13) ------------------------------------
  CheckpointManager::Options ckpt_options;
  ckpt_options.dir = options_.checkpoint_dir;
  if (!options_.checkpoint_dir.empty()) {
    ckpt_options.dataset_fingerprint = DatasetFingerprint(dataset);
    ckpt_options.params_hash = ParamsHash(params);
  }
  ckpt_options.driver_metrics = &driver_metrics_;
  CheckpointManager ckpt(ckpt_options);
  ckpt.Initialize();
  ResumeState resume = DecodeResumeState(ckpt, params.light,
                                         dataset.num_points(),
                                         dataset.num_dims());
  const size_t completed = ckpt.num_completed();
  if (completed > 0) {
    // Replay the framework-counter snapshot persisted with the last
    // completed phase, so the skipped phases' counters are present and
    // the final counter JSON matches an uninterrupted run's byte for
    // byte. The resume bookkeeping itself goes to driver_metrics_ only.
    const std::string& last = ckpt.PhaseName(completed - 1);
    counters_.MergeBag(resume.counters);
    driver_metrics_.SetGauge("checkpoint.resumed_from_phase",
                             static_cast<double>(completed));
    if (Tracer::Global().enabled()) {
      Tracer::Global().RecordInstant(
          "checkpoint-resume",
          StringPrintf("{\"completed_phases\": %zu, \"last_phase\": \"%s\"}",
                       completed, last.c_str()));
    }
    P3C_LOG(kInfo) << "resuming from checkpoint: skipping " << completed
                   << " completed phase(s), continuing after '" << last
                   << "'";
  }

  MrExecutor executor(*runner_, dataset, options_, counters_, ckpt, resume);
  P3C_RETURN_NOT_OK(executor.CheckCancel("<none>"));
  Result<core::ModelResult> model = core::RunP3C(params, executor);
  if (!model.ok()) return model.status();
  core::ClusteringResult result = core::ToClusteringResult(
      std::move(model).value(), executor.TakeReported());
  result.seconds = watch.ElapsedSeconds();
  return result;
}

}  // namespace p3c::mr
