#ifndef P3C_BOW_BOW_H_
#define P3C_BOW_BOW_H_

#include <cstdint>
#include <memory>

#include "src/common/status.h"
#include "src/core/params.h"
#include "src/core/result.h"
#include "src/data/dataset.h"

namespace p3c::bow {

/// Which clusterer runs inside each BoW data block — the two variants the
/// paper evaluates (Fig. 6/7): "BoW (Light)" plugs in P3C+-Light,
/// "BoW (MVB)" the full P3C+ with the MVB outlier detector.
enum class PluginVariant {
  kLight,
  kMVB,
};

/// Configuration of the BoW baseline.
struct BoWOptions {
  /// Base model parameters handed to the per-block plug-in clusterer
  /// (light / outlier mode are overridden per `variant`).
  core::P3CParams params;
  PluginVariant variant = PluginVariant::kLight;
  /// Block size: "the number of samples per reducer in the BoW variant
  /// was set to 100.000" (§7.3). The benches scale this down together
  /// with the data sizes.
  size_t samples_per_reducer = 100000;
  /// BoW's sampling mode (§2: "different strategies as well for sampling
  /// ... which can either reduce the number of computations or reduce
  /// the I/O overhead"): each block's clusterer runs on this fraction of
  /// the block only (1.0 = full block, the default). The merge and final
  /// assignment still cover all points.
  double sample_fraction = 1.0;
  /// Random partitioning seed.
  uint64_t seed = 97;
  /// Worker threads for the per-block "reducers"; 0 = hardware.
  size_t num_threads = 0;
};

/// BoW baseline (Cordeiro et al., KDD 2011) as described and evaluated
/// by this paper (§2, §7.5).
///
/// SUBSTITUTION (DESIGN.md §2): the original implementation is not
/// available; this reimplementation follows the framework description:
/// the data is split into random blocks of `samples_per_reducer` points,
/// the plug-in clusterer runs independently per block (in parallel, like
/// the reducers of the original), and the partial results are combined
/// by merging intersecting hyperrectangles into larger ones until a
/// fixpoint. Two block clusters merge when they agree on the relevant
/// attribute set and their rectangles intersect on all of it (DESIGN.md
/// §5). Points are finally assigned to the smallest-volume merged
/// rectangle containing them.
class BoW {
 public:
  explicit BoW(BoWOptions options = {});

  const BoWOptions& options() const { return options_; }

  /// Runs BoW over a normalized dataset. The returned result's
  /// `core_stats` aggregates the per-block core statistics; `seconds` is
  /// end-to-end wall time.
  Result<core::ClusteringResult> Cluster(const data::Dataset& dataset);

  /// Number of blocks the most recent run used.
  size_t num_blocks() const { return num_blocks_; }
  /// Points the per-block clusterers ran on in the most recent run,
  /// summed over blocks: n in full mode, ~sample_fraction * n sampled.
  size_t num_points_clustered() const { return num_points_clustered_; }
  /// Number of rectangle merges the stitching phase performed.
  size_t num_merges() const { return num_merges_; }

 private:
  BoWOptions options_;
  size_t num_blocks_ = 0;
  size_t num_points_clustered_ = 0;
  size_t num_merges_ = 0;
};

}  // namespace p3c::bow

#endif  // P3C_BOW_BOW_H_
