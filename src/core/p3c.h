#ifndef P3C_CORE_P3C_H_
#define P3C_CORE_P3C_H_

#include <memory>

#include "src/common/status.h"
#include "src/common/threadpool.h"
#include "src/core/params.h"
#include "src/core/result.h"
#include "src/data/dataset.h"

namespace p3c::core {

/// In-memory P3C family: core::RunP3C over the in-memory executor (range-
/// parallel scans of the loaded dataset on this instance's pool). One
/// class covers the lattice of variants via P3CParams presets:
///
///   * `P3CParams{}`          — P3C+ (the paper's improved model, §4)
///   * `OriginalP3CParams()`  — P3C   (Moise et al., §3)
///   * `LightParams()`        — P3C+-Light (§6, no EM / outlier steps)
///
/// Thread-safe for concurrent Cluster() calls only through separate
/// instances (each instance owns one thread pool).
class P3CPipeline {
 public:
  /// `num_threads` = 0 uses hardware concurrency; 1 forces serial
  /// execution paths.
  explicit P3CPipeline(P3CParams params = {}, size_t num_threads = 0);

  const P3CParams& params() const { return params_; }

  /// Runs the full pipeline on a dataset normalized to [0, 1]. Fails for
  /// empty or non-normalized input. An outcome with zero clusters (no
  /// cluster cores survive the statistical tests) is a valid result, not
  /// an error.
  Result<ClusteringResult> Cluster(const data::Dataset& dataset);

 private:
  P3CParams params_;
  std::unique_ptr<ThreadPool> pool_;
};

}  // namespace p3c::core

#endif  // P3C_CORE_P3C_H_
