#include "src/core/driver.h"

#include "src/core/attribute_inspection.h"
#include "src/core/gmm.h"
#include "src/core/relevant_intervals.h"

namespace p3c::core {

Result<ModelResult> RunP3C(const P3CParams& params, PassExecutor& executor) {
  ModelResult model;
  const SupportCountFn counter = [&executor](const std::vector<Signature>& s) {
    return executor.CountSupports(s);
  };

  // ---- Histograms, relevant intervals, cluster cores (§5.1-§5.3) --------
  Result<std::vector<stats::Histogram>> histograms =
      executor.Histograms(params.binning);
  if (!histograms.ok()) return histograms.status();
  Result<CoreDetectionResult> detection = executor.ClusterCores([&] {
    return GenerateClusterCores(
        FindAllRelevantIntervals(*histograms, params.alpha_chi2),
        executor.num_points(), params, counter, executor.pool());
  });
  if (!detection.ok()) return detection.status();
  model.detection = std::move(detection).value();
  const std::vector<ClusterCore>& cores = model.detection.cores;
  const size_t k = cores.size();
  if (k == 0) return model;

  // ---- Membership: the Light m' rule (§6) or EM + OD (§5.4, §5.5) ------
  std::vector<Signature> signatures;
  for (const ClusterCore& core : cores) signatures.push_back(core.signature);
  Result<std::vector<uint64_t>> members =
      params.light ? executor.LightMembership(signatures)
                   : executor.Refine(cores);
  if (!members.ok()) return members.status();
  model.members = std::move(members).value();

  // ---- Attribute inspection: suggest, then prove (§4.2.3, §5.6) ---------
  std::vector<size_t> bins(k);
  for (size_t c = 0; c < k; ++c) {
    bins[c] = MemberHistogramBins(params.binning, model.members[c]);
  }
  Result<std::vector<std::vector<stats::Histogram>>> member_histograms =
      executor.MemberHistograms(bins);
  if (!member_histograms.ok()) return member_histograms.status();
  std::vector<std::vector<Interval>> suggestions(k);
  for (size_t c = 0; c < k; ++c) {
    if (model.members[c] == 0) continue;
    suggestions[c] = SuggestNewIntervals(
        cores[c].signature, (*member_histograms)[c], params.alpha_chi2);
  }
  Result<std::vector<std::vector<Interval>>> accepted =
      ProveSuggestedIntervals(cores, suggestions, params, counter);
  if (!accepted.ok()) return accepted.status();

  // ---- Interval tightening (§5.7) and cluster assembly -------------------
  std::vector<std::vector<size_t>> attrs(k);
  for (size_t c = 0; c < k; ++c) {
    attrs[c] = FinalAttributes(cores[c].signature, (*accepted)[c]);
  }
  Result<std::vector<std::vector<Interval>>> tightened =
      executor.Tighten(attrs);
  if (!tightened.ok()) return tightened.status();
  model.clusters.resize(k);
  for (size_t c = 0; c < k; ++c) {
    ProjectedCluster& cluster = model.clusters[c];
    if (model.members[c] == 0) {
      // Every point of the core is shared with another core (Light) or
      // an outlier (full): nothing to inspect or tighten with, so the
      // core's own signature is the output.
      cluster.attrs = cores[c].signature.attrs();
      cluster.intervals = cores[c].signature.intervals();
    } else {
      cluster.attrs = std::move(attrs[c]);
      cluster.intervals = std::move((*tightened)[c]);
    }
  }
  return model;
}

ClusteringResult ToClusteringResult(
    ModelResult model, std::vector<std::vector<data::PointId>> reported) {
  ClusteringResult result;
  result.core_stats = model.detection.stats;
  result.cores = std::move(model.detection.cores);
  if (result.cores.empty()) return result;
  result.arel = RelevantAttributeUnion(result.cores);
  for (size_t c = 0; c < result.cores.size(); ++c) {
    if (reported[c].empty()) continue;
    ProjectedCluster cluster = std::move(model.clusters[c]);
    cluster.points = std::move(reported[c]);
    result.clusters.push_back(std::move(cluster));
  }
  return result;
}

std::vector<std::vector<data::PointId>> GroupByCluster(
    const std::vector<int32_t>& assignment, size_t k) {
  std::vector<std::vector<data::PointId>> groups(k);
  for (size_t i = 0; i < assignment.size(); ++i) {
    if (assignment[i] >= 0) {
      groups[static_cast<size_t>(assignment[i])].push_back(
          static_cast<data::PointId>(i));
    }
  }
  return groups;
}

}  // namespace p3c::core
