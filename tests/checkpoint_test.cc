// Kill-and-resume suite for the durable checkpoint/resume machinery
// (DESIGN.md §13), built as its own binary so the checkpoint-smoke
// ctest label (tools/run_sanitizers.sh checkpoint-smoke) can run it in
// isolation under the Sanitize/Tsan build types. Three pillars:
//
//   1. Determinism: a run killed at any phase boundary and resumed
//      from its checkpoint directory produces byte-identical clustering
//      output and framework-counter JSON to an uninterrupted run.
//   2. Hostility: every corrupted-checkpoint scenario — truncation,
//      bit flips, version skew, parameter/dataset mismatch, a
//      directory from a different run — is detected, logged, counted,
//      and degrades to a clean fresh run with correct output.
//   3. Plumbing: the atomic writer's durable-replace protocol, and a
//      golden pin of the checkpoint bytes (format version 1) so a
//      codec change cannot silently orphan existing checkpoints.

#include "src/mr/checkpoint.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "src/common/atomic_file.h"
#include "src/common/cancellation.h"
#include "src/common/logging.h"
#include "src/common/status.h"
#include "src/core/params.h"
#include "src/data/generator.h"
#include "src/data/io.h"
#include "src/mapreduce/fault.h"
#include "src/mapreduce/wire.h"
#include "src/mr/p3c_mr.h"

namespace p3c::mr {
namespace {

namespace fs = std::filesystem;

// ---------------------------------------------------------------------------
// Helpers
// ---------------------------------------------------------------------------

data::SyntheticData MakeData(uint64_t seed, size_t n = 4000,
                             size_t dims = 30) {
  data::GeneratorConfig config;
  config.num_points = n;
  config.num_dims = dims;
  config.num_clusters = 3;
  config.noise_fraction = 0.10;
  config.seed = seed;
  return data::GenerateSynthetic(config).value();
}

/// Fresh, empty per-test scratch directory.
std::string TempDir(const std::string& name) {
  const fs::path dir = fs::temp_directory_path() / ("p3c_ckpt_" + name);
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir.string();
}

P3CMROptions MakeOptions(bool light, const std::string& checkpoint_dir) {
  P3CMROptions options;
  options.params.light = light;
  options.checkpoint_dir = checkpoint_dir;
  return options;
}

/// Canonical text form of everything the pipeline's output contract
/// covers (timing excluded): the resume-determinism assertions compare
/// these byte for byte.
std::string Canonical(const core::ClusteringResult& r) {
  std::string out = "arel:";
  for (size_t a : r.arel) out += " " + std::to_string(a);
  out += "\ncores:";
  for (const auto& core : r.cores) {
    out += "\n  " + core.signature.ToString() + " support=" +
           std::to_string(core.support);
  }
  for (const auto& cluster : r.clusters) {
    out += "\ncluster attrs:";
    for (size_t a : cluster.attrs) out += " " + std::to_string(a);
    out += " intervals:";
    for (const auto& iv : cluster.intervals) out += " " + iv.ToString();
    out += " points:";
    for (data::PointId p : cluster.points) out += " " + std::to_string(p);
  }
  return out;
}

struct RunOutput {
  Status status = Status::OK();
  std::string canonical;
  std::string counters_json;
};

RunOutput RunPipeline(const data::Dataset& dataset, P3CMROptions options,
                      FaultInjector* injector = nullptr,
                      MetricBag* driver_metrics = nullptr) {
  options.runner.fault_injector = injector;
  P3CMR pipeline{options};
  auto result = pipeline.Cluster(dataset);
  RunOutput out;
  if (driver_metrics != nullptr) *driver_metrics = pipeline.driver_metrics();
  if (!result.ok()) {
    out.status = result.status();
    return out;
  }
  out.canonical = Canonical(*result);
  out.counters_json = pipeline.counters().Snapshot().ToJson();
  return out;
}

bool LogsContain(const std::vector<std::string>& lines,
                 const std::string& needle) {
  for (const auto& line : lines) {
    if (line.find(needle) != std::string::npos) return true;
  }
  return false;
}

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

void WriteFileBytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/// The checkpointed phase file of phase `index` in `dir`, via the
/// manifest-independent naming convention.
std::string PhaseFile(const std::string& dir, size_t index,
                      const std::string& name) {
  return dir + "/phase-" + std::to_string(index) + "-" + name + ".p3ck";
}

const std::vector<std::string>& FullPhases() {
  static const std::vector<std::string> kPhases = {
      "histogram", "cluster-cores", "em-refinement", "outlier-detection"};
  return kPhases;
}

const std::vector<std::string>& LightPhases() {
  static const std::vector<std::string> kPhases = {
      "histogram", "cluster-cores", "support-sets"};
  return kPhases;
}

// ---------------------------------------------------------------------------
// Atomic writer
// ---------------------------------------------------------------------------

TEST(AtomicFileWriter, CommitReplacesAtomicallyAndLeavesNoTemp) {
  const std::string dir = TempDir("atomic_commit");
  const std::string path = dir + "/out.txt";
  ASSERT_TRUE(AtomicWriteFile(path, "first").ok());
  ASSERT_TRUE(AtomicWriteFile(path, "second").ok());
  EXPECT_EQ(ReadFileBytes(path), "second");
  // The temp file was renamed away: the directory holds exactly the
  // target.
  size_t entries = 0;
  for (const auto& entry : fs::directory_iterator(dir)) {
    (void)entry;
    ++entries;
  }
  EXPECT_EQ(entries, 1u);
}

TEST(AtomicFileWriter, AbandonLeavesTargetUntouched) {
  const std::string dir = TempDir("atomic_abandon");
  const std::string path = dir + "/out.txt";
  ASSERT_TRUE(AtomicWriteFile(path, "keep me").ok());
  {
    AtomicFileWriter writer(path);
    ASSERT_TRUE(writer.Open().ok());
    ASSERT_TRUE(writer.Append("partial garbage").ok());
    // Destructor abandons: simulates a crash between Open and Commit.
  }
  EXPECT_EQ(ReadFileBytes(path), "keep me");
  size_t entries = 0;
  for (const auto& entry : fs::directory_iterator(dir)) {
    (void)entry;
    ++entries;
  }
  EXPECT_EQ(entries, 1u);
}

TEST(AtomicFileWriter, StreamedWritesReachTheFile) {
  const std::string dir = TempDir("atomic_stream");
  const std::string path = dir + "/out.txt";
  AtomicFileWriter writer(path);
  ASSERT_TRUE(writer.Open().ok());
  std::fprintf(writer.stream(), "%d,%s\n", 7, "x");
  ASSERT_TRUE(writer.Append("tail").ok());
  ASSERT_TRUE(writer.Commit().ok());
  EXPECT_EQ(ReadFileBytes(path), "7,x\ntail");
}

// ---------------------------------------------------------------------------
// Blob container + checkpoint format
// ---------------------------------------------------------------------------

TEST(BlobFile, RoundTripsAndRejectsCorruption) {
  const std::string dir = TempDir("blob");
  const std::string path = dir + "/x.p3ck";
  const std::string payload = "some payload bytes \x01\x02\x03";
  ASSERT_TRUE(data::WriteBlobFile(path, kPhaseBlobKind, payload).ok());
  auto read = data::ReadBlobFile(path, kPhaseBlobKind);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(*read, payload);

  // Wrong kind tag.
  EXPECT_FALSE(data::ReadBlobFile(path, kManifestBlobKind).ok());

  // Truncation.
  const std::string bytes = ReadFileBytes(path);
  WriteFileBytes(path, bytes.substr(0, bytes.size() - 3));
  EXPECT_FALSE(data::ReadBlobFile(path, kPhaseBlobKind).ok());

  // Single flipped payload bit.
  std::string flipped = bytes;
  flipped[flipped.size() - 1] = static_cast<char>(flipped.back() ^ 0x40);
  WriteFileBytes(path, flipped);
  EXPECT_FALSE(data::ReadBlobFile(path, kPhaseBlobKind).ok());
}

/// One small fixed instance of every byte string a checkpoint holds:
/// the five phase-state payloads, plus the manifest and phase-file
/// headers of a one-phase checkpoint written to `dir`.
std::vector<std::pair<std::string, std::string>> GoldenPayloads(
    const std::string& dir) {
  MetricBag counters;
  counters.Increment("records", 42);
  counters.SetGauge("peak", 17.5);
  counters.Observe("sizes", 3.0);
  counters.Observe("sizes", 1000.0);

  HistogramPhaseState histogram;
  histogram.histograms = {stats::Histogram(3), stats::Histogram(2)};
  histogram.histograms[0].counts() = {1, 2, 3};
  histogram.histograms[1].counts() = {0, 5};
  histogram.counters = counters;

  CoresPhaseState cores;
  cores.stats.num_levels = 2;
  cores.stats.num_candidates_generated = 17;
  cores.stats.num_signatures_counted = 11;
  cores.stats.num_proven = 4;
  cores.stats.num_support_batches = 3;
  cores.stats.num_maximal = 2;
  cores.stats.truncated = true;
  cores.stats.num_after_redundancy = 1;
  core::ClusterCore first;
  first.signature =
      core::Signature::Make({{4, 0.0, 0.125}, {1, 0.25, 0.5}}).value();
  first.support = 120;
  first.expected_support = 7.5;
  core::ClusterCore second;
  second.signature = core::Signature::Single({2, 0.5, 0.75});
  second.support = 40;
  second.expected_support = 3.25;
  cores.cores = {first, second};
  cores.counters = counters;

  SupportSetsPhaseState support_sets;
  support_sets.support_sets = {{0, 2, 5}, {}, {1}};
  support_sets.unique_assignment = {0, 2, -1, 0, -1, 0};
  support_sets.counters = counters;

  GmmPhaseState gmm;
  gmm.model.arel = {1, 4};
  core::GaussianComponent component;
  component.mean = {0.25, 0.75};
  component.cov = linalg::Matrix(2, 2);
  component.cov.data() = {1.0, 0.5, 0.5, 2.0};
  component.weight = 0.625;
  gmm.model.components = {component, core::GaussianComponent{}};
  gmm.counters = counters;

  MembershipPhaseState membership;
  membership.membership = {0, -1, 1, 1};
  membership.counters = counters;

  std::vector<std::pair<std::string, std::string>> out = {
      {"histogram", EncodeHistogramState(histogram)},
      {"cluster-cores", EncodeCoresState(cores)},
      {"support-sets", EncodeSupportSetsState(support_sets)},
      {"em-refinement", EncodeGmmState(gmm)},
      {"outlier-detection", EncodeMembershipState(membership)},
  };

  CheckpointManager::Options options;
  options.dir = dir;
  options.dataset_fingerprint = 0x0123456789abcdefULL;
  options.params_hash = ParamsHash(core::P3CParams{});
  CheckpointManager manager(options);
  manager.Initialize();
  if (!manager.CommitPhase("histogram", out[0].second).ok()) return {};
  out.emplace_back("manifest",
                   data::ReadBlobFile(dir + "/" + kManifestFilename,
                                      kManifestBlobKind)
                       .value());
  out.emplace_back("phase file",
                   data::ReadBlobFile(PhaseFile(dir, 0, "histogram"),
                                      kPhaseBlobKind)
                       .value());
  return out;
}

TEST(CheckpointFormat, GoldenBytesAreUnchanged) {
  // Sizes and FNV-1a hashes of GoldenPayloads() under format version 1.
  // A change to any of them orphans every checkpoint already on disk:
  // bump kCheckpointFormatVersion (so old manifests are discarded as
  // version skew) rather than editing a constant.
  struct Golden {
    const char* name;
    size_t size;
    uint64_t fnv;
  };
  const std::vector<Golden> kGolden = {
      {"histogram", 988, 0x74a9325aa4786cf5ULL},
      {"cluster-cores", 1112, 0xe394521b846daf91ULL},
      {"support-sets", 1004, 0xf756604bd7457ddcULL},
      {"em-refinement", 1068, 0xd21a9977b05cfec4ULL},
      {"outlier-detection", 948, 0x283a837eea937a77ULL},
      {"manifest", 83, 0x821cfdac4fe1fe14ULL},
      {"phase file", 1041, 0xab3f36f0e61418d4ULL},
  };
  EXPECT_EQ(kCheckpointFormatVersion, 1u);
  EXPECT_EQ(ParamsHash(core::P3CParams{}), 0x4dd4f85f9a911291ULL);
  const auto payloads = GoldenPayloads(TempDir("golden"));
  ASSERT_EQ(payloads.size(), kGolden.size());
  for (size_t i = 0; i < kGolden.size(); ++i) {
    SCOPED_TRACE(kGolden[i].name);
    const std::string& bytes = payloads[i].second;
    EXPECT_EQ(payloads[i].first, kGolden[i].name);
    EXPECT_EQ(bytes.size(), kGolden[i].size);
    EXPECT_EQ(data::Fnv1a64(bytes.data(), bytes.size()), kGolden[i].fnv);
  }

  // The decoders read the pinned bytes back to the same states.
  EXPECT_EQ(EncodeHistogramState(*DecodeHistogramState(payloads[0].second)),
            payloads[0].second);
  EXPECT_EQ(EncodeCoresState(*DecodeCoresState(payloads[1].second)),
            payloads[1].second);
  EXPECT_EQ(
      EncodeSupportSetsState(*DecodeSupportSetsState(payloads[2].second)),
      payloads[2].second);
  EXPECT_EQ(EncodeGmmState(*DecodeGmmState(payloads[3].second)),
            payloads[3].second);
  EXPECT_EQ(EncodeMembershipState(*DecodeMembershipState(payloads[4].second)),
            payloads[4].second);
}

// ---------------------------------------------------------------------------
// Kill-and-resume determinism
// ---------------------------------------------------------------------------

class KillResumeTest : public ::testing::TestWithParam<bool> {};

TEST_P(KillResumeTest, ResumeAtEveryBoundaryIsByteIdentical) {
  const bool light = GetParam();
  const auto data = MakeData(101);
  const RunOutput baseline = RunPipeline(data.dataset, MakeOptions(light, ""));
  ASSERT_TRUE(baseline.status.ok());

  const auto& phases = light ? LightPhases() : FullPhases();
  for (size_t i = 0; i < phases.size(); ++i) {
    SCOPED_TRACE("killed after phase " + phases[i]);
    const std::string dir =
        TempDir((light ? std::string("kr_light_") : std::string("kr_full_")) +
                std::to_string(i));

    // Run 1: die right after phase i's checkpoint is durable. The
    // injected error stands in for a kill: the driver stops with the
    // checkpoint already committed.
    ScriptedFaultInjector injector;
    injector.FailAfterPhase(phases[i]);
    const RunOutput killed =
        RunPipeline(data.dataset, MakeOptions(light, dir), &injector);
    ASSERT_FALSE(killed.status.ok());
    EXPECT_NE(killed.status.ToString().find(phases[i]), std::string::npos);
    EXPECT_TRUE(fs::exists(dir + "/" + kManifestFilename));
    EXPECT_TRUE(fs::exists(PhaseFile(dir, i, phases[i])));

    // Run 2: resume. Output and counter JSON must match the
    // uninterrupted run byte for byte.
    MetricBag driver_metrics;
    const RunOutput resumed =
        RunPipeline(data.dataset, MakeOptions(light, dir), nullptr, &driver_metrics);
    ASSERT_TRUE(resumed.status.ok());
    EXPECT_EQ(resumed.canonical, baseline.canonical);
    EXPECT_EQ(resumed.counters_json, baseline.counters_json);
    EXPECT_EQ(driver_metrics.GetGauge("checkpoint.resumed_from_phase"),
              static_cast<double>(i + 1));
    EXPECT_EQ(driver_metrics.Get(CheckpointManager::kCorruptCounter), 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(FullAndLight, KillResumeTest,
                         ::testing::Values(false, true),
                         [](const ::testing::TestParamInfo<bool>& variant) {
                           return variant.param ? "Light" : "Full";
                         });

TEST(CheckpointResume, CheckpointingItselfDoesNotPerturbOutput) {
  const auto data = MakeData(102);
  const RunOutput plain = RunPipeline(data.dataset, MakeOptions(false, ""));
  ASSERT_TRUE(plain.status.ok());
  const std::string dir = TempDir("no_perturb");
  MetricBag driver_metrics;
  const RunOutput checkpointed =
      RunPipeline(data.dataset, MakeOptions(false, dir), nullptr, &driver_metrics);
  ASSERT_TRUE(checkpointed.status.ok());
  EXPECT_EQ(checkpointed.canonical, plain.canonical);
  EXPECT_EQ(checkpointed.counters_json, plain.counters_json);
  // Observability of the live commits: one write-timing gauge per phase.
  for (const auto& phase : FullPhases()) {
    EXPECT_NE(driver_metrics.Find("checkpoint.write_seconds." + phase),
              nullptr)
        << phase;
  }
}

TEST(CheckpointResume, FullyCheckpointedRunResumesPastAllPhases) {
  const auto data = MakeData(103);
  const std::string dir = TempDir("full_resume");
  const RunOutput first = RunPipeline(data.dataset, MakeOptions(false, dir));
  ASSERT_TRUE(first.status.ok());
  MetricBag driver_metrics;
  const RunOutput second =
      RunPipeline(data.dataset, MakeOptions(false, dir), nullptr, &driver_metrics);
  ASSERT_TRUE(second.status.ok());
  EXPECT_EQ(second.canonical, first.canonical);
  EXPECT_EQ(second.counters_json, first.counters_json);
  EXPECT_EQ(driver_metrics.GetGauge("checkpoint.resumed_from_phase"),
            static_cast<double>(FullPhases().size()));
}

TEST(CheckpointResume, CancelledRunReportsKCancelled) {
  const auto data = MakeData(104);
  const std::string dir = TempDir("cancelled");
  CancellationSource source;
  source.Cancel();
  P3CMROptions options = MakeOptions(false, dir);
  options.cancel = source.token();
  P3CMR pipeline{options};
  auto result = pipeline.Cluster(data.dataset);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kCancelled);
}

TEST(CheckpointResume, CancellationIsNotRetriedAsAJobFailure) {
  EXPECT_FALSE(IsRetryableJobFailure(Status::Cancelled("stop")));
}

// ---------------------------------------------------------------------------
// Hostile checkpoints: every corruption falls back to a clean fresh run
// ---------------------------------------------------------------------------

/// Runs the pipeline against `dir` after `corrupt` has sabotaged it and
/// checks the fallback contract: a warning is logged, the corruption
/// counter increments, no resume gauge is set, and the output is
/// byte-identical to the uninterrupted baseline.
void ExpectCleanFallback(const data::Dataset& dataset,
                         const RunOutput& baseline, const std::string& dir,
                         const std::string& scenario) {
  SCOPED_TRACE(scenario);
  MetricBag driver_metrics;
  std::vector<std::string> log_lines;
  RunOutput rerun;
  {
    ScopedLogCapture capture;
    rerun = RunPipeline(dataset, MakeOptions(false, dir), nullptr, &driver_metrics);
    log_lines = capture.lines();
  }
  ASSERT_TRUE(rerun.status.ok());
  EXPECT_EQ(rerun.canonical, baseline.canonical);
  EXPECT_EQ(rerun.counters_json, baseline.counters_json);
  EXPECT_GE(driver_metrics.Get(CheckpointManager::kCorruptCounter), 1u);
  EXPECT_EQ(driver_metrics.GetGauge("checkpoint.resumed_from_phase"), 0.0);
  EXPECT_TRUE(LogsContain(log_lines, "checkpoint"));
}

class HostileCheckpointTest : public ::testing::Test {
 protected:
  void SetUp() override {
    data_ = MakeData(105);
    baseline_ = RunPipeline(data_.dataset, MakeOptions(false, ""));
    ASSERT_TRUE(baseline_.status.ok());
  }

  /// A complete, valid checkpoint of the full pipeline in a fresh dir.
  std::string MakeCheckpoint(const std::string& name) {
    const std::string dir = TempDir(name);
    const RunOutput seeded = RunPipeline(data_.dataset, MakeOptions(false, dir));
    EXPECT_TRUE(seeded.status.ok());
    return dir;
  }

  data::SyntheticData data_;
  RunOutput baseline_;
};

TEST_F(HostileCheckpointTest, TruncatedPhaseFile) {
  const std::string dir = MakeCheckpoint("trunc_phase");
  const std::string path = PhaseFile(dir, 1, "cluster-cores");
  const std::string bytes = ReadFileBytes(path);
  ASSERT_FALSE(bytes.empty());
  WriteFileBytes(path, bytes.substr(0, bytes.size() / 2));
  ExpectCleanFallback(data_.dataset, baseline_, dir, "truncated phase file");
}

TEST_F(HostileCheckpointTest, BitFlippedPhasePayload) {
  const std::string dir = MakeCheckpoint("bitflip_phase");
  const std::string path = PhaseFile(dir, 0, "histogram");
  std::string bytes = ReadFileBytes(path);
  ASSERT_GT(bytes.size(), 64u);
  bytes[bytes.size() / 2] = static_cast<char>(bytes[bytes.size() / 2] ^ 0x01);
  WriteFileBytes(path, bytes);
  ExpectCleanFallback(data_.dataset, baseline_, dir, "bit-flipped payload");
}

TEST_F(HostileCheckpointTest, TruncatedManifest) {
  const std::string dir = MakeCheckpoint("trunc_manifest");
  const std::string path = dir + "/" + kManifestFilename;
  const std::string bytes = ReadFileBytes(path);
  WriteFileBytes(path, bytes.substr(0, bytes.size() - 5));
  ExpectCleanFallback(data_.dataset, baseline_, dir, "truncated manifest");
}

TEST_F(HostileCheckpointTest, VersionSkewedManifest) {
  const std::string dir = MakeCheckpoint("version_skew");
  // A structurally valid blob whose payload announces a future format
  // version: must be rejected as skew, not misparsed.
  wire::WireWriter w;
  w.PutU32(kCheckpointFormatVersion + 1);
  ASSERT_TRUE(data::WriteBlobFile(dir + "/" + kManifestFilename,
                                  kManifestBlobKind, w.Take())
                  .ok());
  ExpectCleanFallback(data_.dataset, baseline_, dir,
                      "version-skewed manifest");
}

TEST_F(HostileCheckpointTest, HostileStringLengthInPhaseFile) {
  // The phase file's name string claims 2^64 - 8 bytes; the blob and the
  // manifest are re-checksummed so only the payload decoder can object.
  // A length check written as `pos + n > size` wraps here.
  const std::string dir = MakeCheckpoint("hostile_length");
  const std::string path = PhaseFile(dir, 0, "histogram");
  std::string payload = data::ReadBlobFile(path, kPhaseBlobKind).value();
  const uint64_t old_checksum = data::Fnv1a64(payload.data(), payload.size());
  const uint64_t hostile_length = ~uint64_t{0} - 7;
  constexpr size_t kNameLengthOffset = 4 + 8;  // after version + index
  std::memcpy(payload.data() + kNameLengthOffset, &hostile_length,
              sizeof(hostile_length));
  const uint64_t new_checksum = data::Fnv1a64(payload.data(), payload.size());
  ASSERT_TRUE(data::WriteBlobFile(path, kPhaseBlobKind, payload).ok());

  const std::string manifest_path = dir + "/" + kManifestFilename;
  std::string manifest =
      data::ReadBlobFile(manifest_path, kManifestBlobKind).value();
  const size_t at = manifest.find(std::string(
      reinterpret_cast<const char*>(&old_checksum), sizeof(old_checksum)));
  ASSERT_NE(at, std::string::npos);
  std::memcpy(manifest.data() + at, &new_checksum, sizeof(new_checksum));
  ASSERT_TRUE(
      data::WriteBlobFile(manifest_path, kManifestBlobKind, manifest).ok());
  ExpectCleanFallback(data_.dataset, baseline_, dir,
                      "hostile string length in a phase file");
}

TEST_F(HostileCheckpointTest, ParameterMismatch) {
  const std::string dir = MakeCheckpoint("params_mismatch");
  MetricBag driver_metrics;
  P3CMROptions options = MakeOptions(false, dir);
  options.params.theta_cc = options.params.theta_cc * 0.5;  // different run
  RunOutput rerun;
  std::vector<std::string> log_lines;
  {
    ScopedLogCapture capture;
    rerun = RunPipeline(data_.dataset, options, nullptr, &driver_metrics);
    log_lines = capture.lines();
  }
  ASSERT_TRUE(rerun.status.ok());
  EXPECT_GE(driver_metrics.Get(CheckpointManager::kCorruptCounter), 1u);
  EXPECT_EQ(driver_metrics.GetGauge("checkpoint.resumed_from_phase"), 0.0);
  EXPECT_TRUE(LogsContain(log_lines, "checkpoint"));
}

TEST_F(HostileCheckpointTest, DatasetMismatch) {
  const std::string dir = MakeCheckpoint("dataset_mismatch");
  const auto other = MakeData(106);
  const RunOutput other_baseline = RunPipeline(other.dataset, MakeOptions(false, ""));
  ASSERT_TRUE(other_baseline.status.ok());
  ExpectCleanFallback(other.dataset, other_baseline, dir,
                      "checkpoint from a different dataset");
}

TEST_F(HostileCheckpointTest, DirectoryFromADifferentPipelineVariant) {
  // A light-pipeline checkpoint resumed by a full run: the params hash
  // covers `light`, so this is a different run — discard and redo.
  const std::string dir = TempDir("variant_mismatch");
  const RunOutput light_seeded =
      RunPipeline(data_.dataset, MakeOptions(true, dir));
  ASSERT_TRUE(light_seeded.status.ok());
  ExpectCleanFallback(data_.dataset, baseline_, dir,
                      "checkpoint from the light variant");
}

TEST_F(HostileCheckpointTest, MissingManifestIsAFreshStartNotCorruption) {
  const std::string dir = TempDir("fresh_start");
  MetricBag driver_metrics;
  const RunOutput rerun =
      RunPipeline(data_.dataset, MakeOptions(false, dir), nullptr, &driver_metrics);
  ASSERT_TRUE(rerun.status.ok());
  EXPECT_EQ(rerun.canonical, baseline_.canonical);
  EXPECT_EQ(driver_metrics.Get(CheckpointManager::kCorruptCounter), 0u);
}

TEST_F(HostileCheckpointTest, CorruptionDoesNotStickAcrossRecommit) {
  // After a fallback run re-executed and re-committed every phase, the
  // directory is healthy again: a third run resumes cleanly.
  const std::string dir = MakeCheckpoint("recommit");
  const std::string path = PhaseFile(dir, 0, "histogram");
  std::string bytes = ReadFileBytes(path);
  bytes[bytes.size() / 2] = static_cast<char>(bytes[bytes.size() / 2] ^ 0x10);
  WriteFileBytes(path, bytes);
  ExpectCleanFallback(data_.dataset, baseline_, dir, "first fallback");
  MetricBag driver_metrics;
  const RunOutput resumed =
      RunPipeline(data_.dataset, MakeOptions(false, dir), nullptr, &driver_metrics);
  ASSERT_TRUE(resumed.status.ok());
  EXPECT_EQ(resumed.canonical, baseline_.canonical);
  EXPECT_EQ(driver_metrics.Get(CheckpointManager::kCorruptCounter), 0u);
  EXPECT_EQ(driver_metrics.GetGauge("checkpoint.resumed_from_phase"),
            static_cast<double>(FullPhases().size()));
}

}  // namespace
}  // namespace p3c::mr
