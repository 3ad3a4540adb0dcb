#ifndef P3C_CORE_ATTRIBUTE_INSPECTION_H_
#define P3C_CORE_ATTRIBUTE_INSPECTION_H_

#include <vector>

#include "src/core/core_detection.h"
#include "src/core/params.h"
#include "src/core/signature.h"
#include "src/data/dataset.h"
#include "src/stats/histogram.h"

namespace p3c::core {

/// Bin count of one cluster's member histograms (§5.6): `rule` applied
/// to the member count, at least one member so an empty cluster still
/// gets a histogram.
size_t MemberHistogramBins(stats::BinningRule rule, uint64_t members);

/// Builds, for one cluster, the per-attribute histograms of its members
/// (outliers removed) with `num_bins` bins each — the per-cluster
/// histogram job of §5.6; `num_bins` is MemberHistogramBins of the
/// member count.
std::vector<stats::Histogram> BuildMemberHistograms(
    const data::Dataset& dataset, const std::vector<data::PointId>& members,
    size_t num_bins);

/// Phase A of attribute inspection (§4.2.3): runs the relevant-interval
/// marking loop on the member histograms of attributes NOT already in the
/// core's signature and returns the suggested new intervals (possibly
/// several per attribute).
std::vector<Interval> SuggestNewIntervals(
    const Signature& core_signature,
    const std::vector<stats::Histogram>& member_histograms,
    double alpha_chi2);

/// Phase B — AI proving (§4.2.3): tests every suggested interval I_new of
/// every cluster with the Eq. 1 test against the core signature:
/// Supp(K ∪ I_new), counted over the FULL dataset in one batched
/// `count_supports` call (one MR job in the MR pipeline), must
/// significantly exceed Supp(K) * width(I_new) — plus the effect-size
/// gate in Combined mode. Returns, per cluster, the accepted intervals
/// (at most one per attribute: the one with the largest effect size).
///
/// When `params.ai_proving` is false (original P3C), every suggestion is
/// accepted (still at most one per attribute, by member support). A
/// failing `count_supports` call is returned as-is.
Result<std::vector<std::vector<Interval>>> ProveSuggestedIntervals(
    const std::vector<ClusterCore>& cores,
    const std::vector<std::vector<Interval>>& suggestions,
    const P3CParams& params, const SupportCountFn& count_supports);

/// Final relevant attribute set of a cluster: core attributes plus the
/// attributes of the accepted AI intervals, sorted.
std::vector<size_t> FinalAttributes(const Signature& core_signature,
                                    const std::vector<Interval>& accepted);

}  // namespace p3c::core

#endif  // P3C_CORE_ATTRIBUTE_INSPECTION_H_
