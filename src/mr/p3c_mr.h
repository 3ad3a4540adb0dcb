#ifndef P3C_MR_P3C_MR_H_
#define P3C_MR_P3C_MR_H_

#include <memory>
#include <string>

#include "src/common/cancellation.h"
#include "src/common/counters.h"
#include "src/common/status.h"
#include "src/core/params.h"
#include "src/core/result.h"
#include "src/data/dataset.h"
#include "src/mapreduce/counters.h"
#include "src/mapreduce/metrics.h"
#include "src/mapreduce/runner.h"

namespace p3c::mr {

/// Job-level retry policy of the pipeline driver — the analog of
/// resubmitting a failed Hadoop job. Task-level retries inside a job are
/// RunnerOptions::max_attempts; this policy re-runs a *whole job* whose
/// tasks exhausted those attempts, which is safe because failed jobs
/// have no side effects (no counters, no metrics double-counting — the
/// failed run is recorded as its own JobMetrics entry with
/// succeeded=false).
struct JobRetryPolicy {
  /// Total runs of one job, including the first (1 = no job-level retry).
  size_t max_job_attempts = 2;
  /// Wall-clock budget per pipeline phase (0 disables): once a phase
  /// has spent this long across its job attempts, the driver stops
  /// retrying and fails the pipeline with a phase-tagged
  /// kDeadlineExceeded Status. The backstop above task deadlines — a
  /// pathological phase degrades into a bounded, explained failure
  /// instead of wedging the caller. A successfully finishing job is
  /// never failed by the budget.
  double phase_budget_seconds = 0.0;
};

/// True for failures worth re-running a job on: kInternal (crashed /
/// injected task faults) and kIOError (transient storage). Anything
/// else — invalid arguments, not-implemented, precondition violations —
/// is deterministic and fails the pipeline immediately.
bool IsRetryableJobFailure(const Status& status);

/// Configuration of the MapReduce pipelines.
struct P3CMROptions {
  /// Model parameters. `params.light = true` selects P3C+-MR-Light (§6);
  /// `params.outlier` selects the MVB or naive variant of P3C+-MR;
  /// `params.multilevel_candidates` defaults to true here (the Tc
  /// heuristic of §5.3 exists to save MR jobs).
  core::P3CParams params;
  /// Engine knobs (threads, split size, reducers, task retry).
  RunnerOptions runner;
  /// Job-level recovery: how often the driver re-runs a job whose
  /// failure IsRetryableJobFailure() before failing the pipeline.
  JobRetryPolicy retry;
  /// Durable checkpoint/resume (DESIGN.md §13): when non-empty, the
  /// driver persists its state into this directory after every
  /// completed pipeline phase and, on the next Cluster call against the
  /// same dataset and parameters, skips the completed phases and
  /// resumes at the first incomplete one. Any corruption or mismatch in
  /// the directory is logged, counted, and degrades to a fresh run.
  std::string checkpoint_dir;
  /// Driver-level cancellation: polled at phase boundaries and between
  /// support-count batches. When it fires, the pipeline stops with
  /// kCancelled after its last completed phase's checkpoint is already
  /// durable — a SIGTERM'd run loses at most the phase in flight.
  CancellationToken cancel;

  P3CMROptions() {
    params.multilevel_candidates = true;
    // "The optimal setting of Tc depends on the available cluster" (§5.3):
    // the paper's 3e4 amortizes Hadoop's ~tens-of-seconds job overhead;
    // the in-process engine's per-job overhead is microseconds, so a much
    // smaller batch bound is optimal here (see bench_candidate_collection).
    params.t_c = 2000;
  }
};

/// P3C+-MR (§5) and P3C+-MR-Light (§6): core::RunP3C over the MapReduce
/// executor, one job per record pass on the in-process engine: histogram
/// → batched support-count jobs (Tc heuristic) → EM init (2x2 jobs) →
/// EM steps (2 jobs each) → [MVB ball + 2 stats jobs] → map-only OD (Light:
/// the support-set job instead) → cluster-histograms → AI support-count
/// → tightening.
///
/// Job-level statistics of the most recent run are available via
/// metrics(); the runtime figure (Fig. 7) and the job-count analysis of
/// §7.5.2 are generated from them.
class P3CMR {
 public:
  explicit P3CMR(P3CMROptions options = {});

  const core::P3CParams& params() const { return options_.params; }

  /// Runs the pipeline. Same contract as core::P3CPipeline::Cluster.
  /// On an unrecoverable job failure the Status names the phase, the
  /// failing job/task, and how many job attempts were made.
  Result<core::ClusteringResult> Cluster(const data::Dataset& dataset);

  /// Per-job execution log of the most recent Cluster call.
  const MetricsRegistry& metrics() const { return metrics_; }
  /// Merged framework counters of the most recent Cluster call.
  const Counters& counters() const { return counters_; }
  /// Driver-side observability of the most recent Cluster call:
  /// checkpoint corruption counter, `resumed_from_phase` gauge, and
  /// per-phase `checkpoint.write_seconds.*` gauges. Kept apart from
  /// counters() so resume bookkeeping never perturbs the deterministic
  /// framework-counter JSON.
  const MetricBag& driver_metrics() const { return driver_metrics_; }

 private:
  P3CMROptions options_;
  MetricsRegistry metrics_;
  Counters counters_;
  MetricBag driver_metrics_;
  std::unique_ptr<LocalRunner> runner_;
};

}  // namespace p3c::mr

#endif  // P3C_MR_P3C_MR_H_
