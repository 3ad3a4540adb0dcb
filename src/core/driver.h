#ifndef P3C_CORE_DRIVER_H_
#define P3C_CORE_DRIVER_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "src/common/status.h"
#include "src/common/threadpool.h"
#include "src/core/core_detection.h"
#include "src/core/interval.h"
#include "src/core/params.h"
#include "src/core/result.h"
#include "src/stats/histogram.h"

namespace p3c::core {

/// How the P3C+ driver reaches the data. Each method is one record pass
/// (Refine: a fixed sequence of them); the executor keeps whatever it
/// needs between passes (membership, point lists, min/max tables). See
/// DESIGN.md "One model, three executors" for the in-memory, MapReduce
/// and block-stream implementations.
class PassExecutor {
 public:
  virtual ~PassExecutor() = default;

  virtual uint64_t num_points() const = 0;
  /// Pool for parallel candidate generation; null runs it serially.
  virtual ThreadPool* pool() { return nullptr; }

  /// §5.1: per-attribute histograms with NumBins(rule, n) bins.
  virtual Result<std::vector<stats::Histogram>> Histograms(
      stats::BinningRule rule) = 0;
  /// §5.3 / §4.2.3: Supp(S) for every signature, parallel to `sigs`.
  virtual Result<std::vector<uint64_t>> CountSupports(
      const std::vector<Signature>& sigs) = 0;
  /// Envelope around cluster-core generation: an executor with durable
  /// state may return restored cores instead, or persist the result.
  virtual Result<CoreDetectionResult> ClusterCores(
      const std::function<Result<CoreDetectionResult>()>& generate) {
    return generate();
  }
  /// §6 membership: support sets of the core signatures plus the m'
  /// rule (a point belongs to a core only if it matches no other).
  /// Returns m' counts per core.
  virtual Result<std::vector<uint64_t>> LightMembership(
      const std::vector<Signature>& signatures) = 0;
  /// §5.4-§5.5 membership: EM refinement and outlier detection. Returns
  /// member (non-outlier) counts per core.
  virtual Result<std::vector<uint64_t>> Refine(
      const std::vector<ClusterCore>& cores) = 0;
  /// §5.6: per-core member histograms with `bins[c]` bins.
  virtual Result<std::vector<std::vector<stats::Histogram>>>
  MemberHistograms(const std::vector<size_t>& bins) = 0;
  /// §5.7: per core, the members' [min, max] on each of `attrs[c]`.
  virtual Result<std::vector<std::vector<Interval>>> Tighten(
      const std::vector<std::vector<size_t>>& attrs) = 0;
};

/// The model before points are attached; `clusters` and `members` are
/// parallel to detection.cores (cluster points left empty).
struct ModelResult {
  CoreDetectionResult detection;
  std::vector<ProjectedCluster> clusters;
  std::vector<uint64_t> members;
};

/// Runs P3C+ (§4; Light per §6 when params.light) over `executor`: the
/// one place that orders histograms, relevant intervals, cluster cores,
/// membership, member histograms, AI suggest + prove, tightening and
/// cluster assembly. The first failing pass ends the run.
Result<ModelResult> RunP3C(const P3CParams& params, PassExecutor& executor);

/// The in-memory result: `reported[c]` become core c's points; cores
/// that report no point are dropped.
ClusteringResult ToClusteringResult(
    ModelResult model, std::vector<std::vector<data::PointId>> reported);

/// Point lists per cluster of a per-point assignment (negative = none).
std::vector<std::vector<data::PointId>> GroupByCluster(
    const std::vector<int32_t>& assignment, size_t k);

}  // namespace p3c::core

#endif  // P3C_CORE_DRIVER_H_
