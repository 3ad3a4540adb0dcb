#ifndef P3C_CORE_STREAMING_H_
#define P3C_CORE_STREAMING_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "src/common/status.h"
#include "src/core/core_detection.h"
#include "src/core/interval.h"
#include "src/core/params.h"
#include "src/data/dataset.h"
#include "src/data/io.h"

namespace p3c::core {

/// Bounded-memory block reader over the binary container written by
/// data::WriteBinary. Each pass re-opens the file and streams it in row
/// blocks, so arbitrarily large files can be processed with O(block)
/// memory — the out-of-core substrate for data sets that motivated the
/// paper (0.2 TB for the 10^9-point run).
class BinaryDatasetReader {
 public:
  /// Validates the header and that the file holds exactly the payload
  /// the header promises (rejecting truncated or padded files with a
  /// descriptive Status); the payload itself is read lazily per pass.
  static Result<BinaryDatasetReader> Open(const std::string& path);

  uint64_t num_points() const { return header_.num_points; }
  uint64_t num_dims() const { return header_.num_dims; }

  /// One sequential pass: invokes `fn(first_row_id, block)` for
  /// consecutive blocks of up to `block_rows` rows. Stops at the first
  /// failing callback. A pass that streams the whole payload also
  /// verifies the container checksum (version >= 2) and fails with a
  /// descriptive Status on corrupt data.
  Status ForEachBlock(
      size_t block_rows,
      const std::function<Status(data::PointId, const data::Dataset&)>& fn)
      const;

 private:
  BinaryDatasetReader(std::string path, data::BinaryHeader header)
      : path_(std::move(path)), header_(header) {}

  std::string path_;
  data::BinaryHeader header_;
};

/// A cluster reported by the streaming pipeline. Point lists are NOT
/// materialized (that would be O(n) memory); membership can be written
/// to a file instead (ClusterAndAssign).
struct StreamingCluster {
  Signature core;                 ///< the generating cluster core
  std::vector<size_t> attrs;      ///< final relevant attributes
  std::vector<Interval> intervals;  ///< tightened output signature
  uint64_t support = 0;           ///< |SuppSet(core)|
  uint64_t unique_members = 0;    ///< points matching only this core (m')
};

struct StreamingLightResult {
  std::vector<StreamingCluster> clusters;
  CoreDetectionStats core_stats;
  uint64_t num_points = 0;
  uint64_t num_dims = 0;
  /// Full sequential scans over the file the run needed.
  size_t passes = 0;
  double seconds = 0.0;
};

/// Out-of-core P3C+-Light: core::RunP3C (Light, §6) over the block-stream
/// executor, a constant number of sequential passes over a binary file
/// with memory O(histograms + candidate signatures + block), whatever n:
///
///   pass 1            Histograms (bins from the header's n)
///   passes 2..b+1     CountSupports, one scan per proving batch
///   pass b+2          LightMembership: per-core m' counts
///   pass b+3          MemberHistograms, fused with per-attribute min/max
///   pass b+4          CountSupports for AI proving (when suggested)
///   (none)            Tighten reads the min/max of pass b+3
///
/// The result matches core::P3CPipeline{params} with params.light on the
/// same data, except that point lists are summarized as counts.
class StreamingLightPipeline {
 public:
  explicit StreamingLightPipeline(P3CParams params = StreamingLightParams(),
                                  size_t block_rows = 65536);

  /// Clusters the file at `binary_path` (data::WriteBinary format).
  Result<StreamingLightResult> Cluster(const std::string& binary_path);

  /// Cluster() plus one extra pass writing a per-point assignment CSV
  /// ("point,cluster" with -1 = no core, -2 = several cores).
  Result<StreamingLightResult> ClusterAndAssign(
      const std::string& binary_path, const std::string& assignment_csv);

  /// Test-only fault-injection seam (the streaming analog of
  /// mapreduce's FaultInjector): invoked immediately before every
  /// support-counting scan. The regression test for the once
  /// silently-dropped scan Status corrupts the file here, *between*
  /// passes — the only point where a mid-run I/O failure can appear.
  void set_before_support_scan_hook_for_test(std::function<void()> hook) {
    before_support_scan_hook_ = std::move(hook);
  }

 private:
  Result<StreamingLightResult> Run(const std::string& binary_path,
                                   const std::string* assignment_csv);

  P3CParams params_;
  size_t block_rows_;
  std::function<void()> before_support_scan_hook_;
};

}  // namespace p3c::core

#endif  // P3C_CORE_STREAMING_H_
