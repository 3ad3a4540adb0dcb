#ifndef P3C_CORE_CORE_DETECTION_H_
#define P3C_CORE_CORE_DETECTION_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "src/common/status.h"
#include "src/common/threadpool.h"
#include "src/core/interval.h"
#include "src/core/params.h"
#include "src/core/signature.h"

namespace p3c::core {

/// A cluster core (Definition 5) with its measured and expected support.
struct ClusterCore {
  Signature signature;
  uint64_t support = 0;
  /// Global expected support n * prod(width) (Eq. 7); the denominator of
  /// the redundancy interestingness ratio (Eq. 6).
  double expected_support = 0.0;

  double InterestRatio() const {
    return expected_support > 0.0
               ? static_cast<double>(support) / expected_support
               : (support > 0 ? 1e300 : 0.0);
  }
};

/// Diagnostics of one cluster-core generation run; several benches plot
/// these directly (Figure 5 uses num_maximal and num_after_redundancy).
struct CoreDetectionStats {
  size_t num_levels = 0;
  uint64_t num_candidates_generated = 0;
  uint64_t num_signatures_counted = 0;
  uint64_t num_proven = 0;
  /// Proving rounds; in the MR pipeline each round is one support job,
  /// which is what the Tc heuristic of §5.3 economizes.
  size_t num_support_batches = 0;
  /// Maximal proven signatures, before the redundancy filter.
  size_t num_maximal = 0;
  /// Set when the expansion stopped early because a level exceeded
  /// P3CParams::max_candidates_per_level.
  bool truncated = false;
  /// After the redundancy filter (== num_maximal when disabled).
  size_t num_after_redundancy = 0;
};

struct CoreDetectionResult {
  std::vector<ClusterCore> cores;
  CoreDetectionStats stats;
};

/// Backend that counts Supp(S) for a batch of signatures over the data:
/// one record pass of the executor under the P3C+ driver (an RSSC scan
/// in memory, the support-counting job of §5.3, or a block-stream pass).
/// A failed pass (I/O error, exhausted job retries, cancellation) is
/// returned as-is and stops the caller.
using SupportCountFn = std::function<Result<std::vector<uint64_t>>(
    const std::vector<Signature>&)>;

/// Cluster-core generation (Algorithm 1) on top of an abstract support
/// counter.
///
/// Proving follows Definition 5 recursively (DESIGN.md §5.1): a
/// p-signature is proven iff all its (p-1)-sub-signatures are proven and,
/// for every interval I, Supp(S) exceeds Supp(S \ I) * width(I)
/// significantly (Poisson at alpha_poisson) — and, in Combined mode, with
/// effect size >= theta_cc. Sub-signatures missing from the A-priori
/// lattice are counted in the same batch (downward closure), so the test
/// is exact.
///
/// With params.multilevel_candidates, proving is deferred per the §5.3
/// heuristic: candidates accumulate across levels until
/// |Cand_j| == 0 or (csum > Tc and |Cand_j| > |Cand_{j-1}|),
/// then one batch proves them all — fewer support jobs at the price of
/// weaker A-priori pruning.
///
/// After proving, non-maximal signatures are dropped (Definition 5(2):
/// keep S only if no proven strict superset exists) and, when
/// params.redundancy_filter is set, redundant signatures are removed per
/// Eq. 5/6. The first failing `count_supports` call ends the run with
/// its Status.
Result<CoreDetectionResult> GenerateClusterCores(
    const std::vector<Interval>& relevant_intervals, uint64_t num_points,
    const P3CParams& params, const SupportCountFn& count_supports,
    ThreadPool* pool);

/// The redundancy filter of §4.2.1 in isolation (exposed for tests and
/// the Figure 5 bench): returns the subset of `cores` that is not
/// redundant, preserving order. A core S is redundant iff the union of
/// the intervals of all cores with strictly larger interestingness ratio
/// covers S (Eq. 5).
std::vector<ClusterCore> FilterRedundant(const std::vector<ClusterCore>& cores);

}  // namespace p3c::core

#endif  // P3C_CORE_CORE_DETECTION_H_
