#ifndef P3C_MR_CHECKPOINT_H_
#define P3C_MR_CHECKPOINT_H_

// Durable phase checkpoints for the P3C+-MR pipeline (DESIGN.md §13).
//
// The driver persists its state after every completed pipeline phase so
// a killed run resumes at the first incomplete phase instead of
// restarting from scratch — the in-process analog of Hadoop keeping
// each job's output on HDFS. The on-disk layout is one directory:
//
//   MANIFEST.p3ck                 commit point; lists the completed
//                                 phases with their file checksums
//   phase-<i>-<name>.p3ck         serialized driver state of phase i
//
// All files are checksummed P3CK blobs (src/data/io.h) written through
// the atomic temp+fsync+rename writer, and the manifest additionally
// binds the dataset fingerprint, the parameter hash, the checkpoint
// format version, and each phase file's payload checksum. Validation is
// all-or-nothing: any corruption, truncation, version skew, or
// fingerprint/parameter mismatch is logged, counted, and discards the
// whole checkpoint — the run degrades to a clean fresh execution, never
// a crash and never a resume from stale state.
//
// Payload bytes (headers and phase states) are written with the
// project's one byte codec, wire::WireWriter/WireReader
// (src/mapreduce/wire.h): doubles are stored as bit patterns, so every
// value round-trips exactly — the resume-determinism contract depends
// on it — and a hostile length is a located decode error, never an
// over-read.

#include <cstdint>
#include <string>
#include <vector>

#include "src/common/counters.h"
#include "src/common/status.h"
#include "src/core/core_detection.h"
#include "src/core/gmm.h"
#include "src/core/params.h"
#include "src/data/dataset.h"
#include "src/stats/histogram.h"

namespace p3c::mr {

/// Version of the checkpoint payload schema. Bumped whenever any
/// encoder below changes shape; a manifest carrying a different version
/// is discarded as unusable (version skew), not misparsed.
inline constexpr uint32_t kCheckpointFormatVersion = 1;

/// P3CK blob kind tags of the two checkpoint file types (see
/// data::WriteBlobFile). Public so tests can craft hostile files.
inline constexpr uint32_t kManifestBlobKind = 0x4d414e49;  // "MANI"
inline constexpr uint32_t kPhaseBlobKind = 0x50484153;     // "PHAS"

/// Name of the commit-point file inside a checkpoint directory.
inline constexpr char kManifestFilename[] = "MANIFEST.p3ck";

/// FNV-1a over (n, d, raw values): identifies the exact dataset a
/// checkpoint was taken against.
uint64_t DatasetFingerprint(const data::Dataset& dataset);

/// FNV-1a over every P3CParams field (including `light`, which selects
/// the pipeline variant). Engine knobs (threads, reducers, splits) are
/// deliberately excluded: the engine's determinism contract makes them
/// irrelevant to pipeline output, so resuming under a different thread
/// count is sound.
uint64_t ParamsHash(const core::P3CParams& params);

// ---- Per-phase driver state -----------------------------------------------
//
// Every payload carries the cumulative framework-counter snapshot at
// the instant the phase completed, so a resumed run restores the
// counters of the skipped phases and its final counter JSON is
// byte-identical to an uninterrupted run's.

struct HistogramPhaseState {
  std::vector<stats::Histogram> histograms;
  MetricBag counters;
};

struct CoresPhaseState {
  core::CoreDetectionStats stats;
  std::vector<core::ClusterCore> cores;
  MetricBag counters;
};

struct SupportSetsPhaseState {
  std::vector<std::vector<data::PointId>> support_sets;
  std::vector<int32_t> unique_assignment;
  MetricBag counters;
};

struct GmmPhaseState {
  core::GmmModel model;
  MetricBag counters;
};

struct MembershipPhaseState {
  std::vector<int32_t> membership;
  MetricBag counters;
};

std::string EncodeHistogramState(const HistogramPhaseState& state);
Result<HistogramPhaseState> DecodeHistogramState(const std::string& payload);

std::string EncodeCoresState(const CoresPhaseState& state);
Result<CoresPhaseState> DecodeCoresState(const std::string& payload);

std::string EncodeSupportSetsState(const SupportSetsPhaseState& state);
Result<SupportSetsPhaseState> DecodeSupportSetsState(
    const std::string& payload);

std::string EncodeGmmState(const GmmPhaseState& state);
Result<GmmPhaseState> DecodeGmmState(const std::string& payload);

std::string EncodeMembershipState(const MembershipPhaseState& state);
Result<MembershipPhaseState> DecodeMembershipState(
    const std::string& payload);

/// Owns one checkpoint directory for one pipeline run.
///
/// Lifecycle: construct with the run's identity, call Initialize() to
/// scan and validate any existing checkpoint, consult num_completed() /
/// PhaseName() / PhasePayload() to skip finished phases, and call
/// CommitPhase() after each phase the run executes live. Disabled
/// (empty dir) it is inert: every query says "nothing completed" and
/// commits are no-ops.
class CheckpointManager {
 public:
  struct Options {
    /// Checkpoint directory; empty disables checkpointing entirely.
    std::string dir;
    uint64_t dataset_fingerprint = 0;
    uint64_t params_hash = 0;
    /// Driver-side observability sink (corruption counter, resume
    /// gauge, per-phase write timings). Kept separate from the
    /// framework-counter sink so resume bookkeeping never perturbs the
    /// deterministic counter JSON. May be null.
    MetricBag* driver_metrics = nullptr;
  };

  /// Name of the counter incremented once per discarded checkpoint.
  static constexpr const char* kCorruptCounter =
      "checkpoint.corrupt_total";

  explicit CheckpointManager(Options options);

  [[nodiscard]] bool enabled() const { return !options_.dir.empty(); }

  /// Creates the directory if needed and validates any existing
  /// manifest chain. A missing manifest is a normal fresh start; every
  /// validation failure logs its reason, increments kCorruptCounter,
  /// and leaves the manager in the fresh state. Never fails the run —
  /// only CommitPhase can do that.
  void Initialize();

  /// Completed, fully validated phases available for resume.
  [[nodiscard]] size_t num_completed() const { return phases_.size(); }
  [[nodiscard]] const std::string& PhaseName(size_t index) const {
    return phases_[index].name;
  }
  /// Decoded payload of completed phase `index`.
  [[nodiscard]] const std::string& PhasePayload(size_t index) const {
    return phases_[index].payload;
  }

  /// Serializes `payload` as the next completed phase: writes the phase
  /// state blob, then the manifest, both atomically — the manifest
  /// rename is the commit point. Failures propagate: the caller asked
  /// for durability, so an unwritable checkpoint is a real error.
  Status CommitPhase(const std::string& name, const std::string& payload);

  /// Driver-side fallback hook: a payload that validated here can still
  /// fail the driver's phase-specific decode (schema drift inside one
  /// phase). Logs `reason`, increments kCorruptCounter, and resets to
  /// the fresh state so the run re-executes — and re-commits — every
  /// phase. No-op while disabled.
  void DiscardAll(const std::string& reason) {
    if (enabled()) Discard(reason);
  }

 private:
  struct PhaseEntry {
    std::string name;
    std::string filename;
    uint64_t payload_checksum = 0;
    std::string payload;  ///< inner phase payload (decoded from the blob)
  };

  /// Logs `reason`, bumps the corruption counter, and resets to fresh.
  void Discard(const std::string& reason);
  Status WriteManifest();
  [[nodiscard]] std::string ManifestPath() const;

  Options options_;
  std::vector<PhaseEntry> phases_;
};

}  // namespace p3c::mr

#endif  // P3C_MR_CHECKPOINT_H_
