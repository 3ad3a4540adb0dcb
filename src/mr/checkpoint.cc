#include "src/mr/checkpoint.h"

#include <sys/stat.h>
#include <sys/types.h>

#include <cerrno>
#include <cstring>
#include <utility>

#include "src/common/logging.h"
#include "src/common/stopwatch.h"
#include "src/common/string_util.h"
#include "src/common/trace.h"
#include "src/core/interval.h"
#include "src/core/signature.h"
#include "src/data/io.h"
#include "src/mapreduce/wire.h"

namespace p3c::mr {

namespace {

/// Bound on manifest/payload element counts: no real pipeline has more
/// than a handful of phases, and hostile payloads must not drive
/// multi-gigabyte allocations before validation finishes.
constexpr uint64_t kMaxPhases = 64;

Status MakeDirectories(const std::string& dir) {
  // mkdir -p: create each prefix, tolerating ones that already exist.
  std::string prefix;
  prefix.reserve(dir.size());
  for (size_t i = 0; i <= dir.size(); ++i) {
    if (i < dir.size() && dir[i] != '/') {
      prefix.push_back(dir[i]);
      continue;
    }
    if (!prefix.empty() &&
        ::mkdir(prefix.c_str(), 0777) != 0 && errno != EEXIST) {
      return Status::IOError("cannot create checkpoint directory: " + prefix +
                             ": " + std::strerror(errno));
    }
    if (i < dir.size()) prefix.push_back('/');
  }
  return Status::OK();
}

bool FileExists(const std::string& path) {
  struct stat st;
  return ::stat(path.c_str(), &st) == 0;
}

}  // namespace

uint64_t DatasetFingerprint(const data::Dataset& dataset) {
  const uint64_t n = dataset.num_points();
  const uint64_t d = dataset.num_dims();
  uint64_t h = data::Fnv1a64(&n, sizeof(n));
  h = data::Fnv1a64(&d, sizeof(d), h);
  const auto& values = dataset.values();
  return data::Fnv1a64(values.data(), values.size() * sizeof(double), h);
}

uint64_t ParamsHash(const core::P3CParams& params) {
  // Serialize every field through the exact encoder the checkpoints
  // use, then hash the bytes. Adding a parameter to P3CParams and to
  // this list invalidates old checkpoints automatically — the safe
  // default for a knob that changes pipeline output.
  wire::WireWriter w;
  w.PutU32(kCheckpointFormatVersion);
  w.PutU32(static_cast<uint32_t>(params.binning));
  w.PutDouble(params.alpha_chi2);
  w.PutDouble(params.alpha_poisson);
  w.PutU32(static_cast<uint32_t>(params.proving));
  w.PutDouble(params.theta_cc);
  w.PutU32(params.redundancy_filter ? 1 : 0);
  w.PutU32(params.multilevel_candidates ? 1 : 0);
  w.PutU64(params.t_c);
  w.PutU64(params.t_gen);
  w.PutU64(params.max_candidates_per_level);
  w.PutU64(params.max_join_pairs);
  w.PutU64(params.max_em_iterations);
  w.PutDouble(params.em_tolerance);
  w.PutDouble(params.covariance_ridge);
  w.PutU32(static_cast<uint32_t>(params.outlier));
  w.PutDouble(params.outlier_alpha);
  w.PutU32(params.ai_proving ? 1 : 0);
  w.PutU32(params.light ? 1 : 0);
  const std::string bytes = w.Take();
  return data::Fnv1a64(bytes.data(), bytes.size());
}

// ---- Phase state codecs ----------------------------------------------------

namespace {

// Arel (a std::vector<size_t>) goes through the typed vector form,
// which memcpy's its elements; the format stores them as u64.
static_assert(sizeof(size_t) == sizeof(uint64_t),
              "checkpoint format stores size_t as u64");

void EncodeSignature(const core::Signature& signature,
                     wire::WireWriter& writer) {
  writer.PutU64(signature.intervals().size());
  for (const core::Interval& interval : signature.intervals()) {
    writer.PutU64(interval.attr);
    writer.PutDouble(interval.lower);
    writer.PutDouble(interval.upper);
  }
}

Result<core::Signature> DecodeSignature(wire::WireReader& reader) {
  const uint64_t n = reader.GetU64();
  std::vector<core::Interval> intervals;
  for (uint64_t i = 0; i < n && reader.status().ok(); ++i) {
    core::Interval interval;
    interval.attr = static_cast<size_t>(reader.GetU64());
    interval.lower = reader.GetDouble();
    interval.upper = reader.GetDouble();
    intervals.push_back(interval);
  }
  P3C_RETURN_NOT_OK(reader.status());
  return core::Signature::Make(std::move(intervals));
}

/// Decodes the trailing counter snapshot into `counters` and checks
/// that nothing follows it.
Status FinishWithCounters(wire::WireReader& reader, MetricBag& counters) {
  Result<MetricBag> decoded = wire::DecodeMetricBag(reader);
  P3C_RETURN_NOT_OK(decoded.status());
  counters = std::move(decoded).value();
  return reader.Finish();
}

}  // namespace

std::string EncodeHistogramState(const HistogramPhaseState& state) {
  wire::WireWriter w;
  w.PutU64(state.histograms.size());
  for (const stats::Histogram& h : state.histograms) w.Put(h.counts());
  wire::EncodeMetricBag(state.counters, w);
  return w.Take();
}

Result<HistogramPhaseState> DecodeHistogramState(const std::string& payload) {
  wire::WireReader r(payload, "histogram state");
  HistogramPhaseState state;
  std::vector<std::vector<uint64_t>> counts;
  r.Get(&counts);
  for (std::vector<uint64_t>& bins : counts) {
    stats::Histogram h;
    h.counts() = std::move(bins);
    state.histograms.push_back(std::move(h));
  }
  P3C_RETURN_NOT_OK(FinishWithCounters(r, state.counters));
  return state;
}

std::string EncodeCoresState(const CoresPhaseState& state) {
  wire::WireWriter w;
  w.PutU64(state.stats.num_levels);
  w.PutU64(state.stats.num_candidates_generated);
  w.PutU64(state.stats.num_signatures_counted);
  w.PutU64(state.stats.num_proven);
  w.PutU64(state.stats.num_support_batches);
  w.PutU64(state.stats.num_maximal);
  w.PutU32(state.stats.truncated ? 1 : 0);
  w.PutU64(state.stats.num_after_redundancy);
  w.PutU64(state.cores.size());
  for (const core::ClusterCore& core : state.cores) {
    EncodeSignature(core.signature, w);
    w.PutU64(core.support);
    w.PutDouble(core.expected_support);
  }
  wire::EncodeMetricBag(state.counters, w);
  return w.Take();
}

Result<CoresPhaseState> DecodeCoresState(const std::string& payload) {
  wire::WireReader r(payload, "cluster-cores state");
  CoresPhaseState state;
  state.stats.num_levels = static_cast<size_t>(r.GetU64());
  state.stats.num_candidates_generated = r.GetU64();
  state.stats.num_signatures_counted = r.GetU64();
  state.stats.num_proven = r.GetU64();
  state.stats.num_support_batches = static_cast<size_t>(r.GetU64());
  state.stats.num_maximal = static_cast<size_t>(r.GetU64());
  state.stats.truncated = r.GetU32() != 0;
  state.stats.num_after_redundancy = static_cast<size_t>(r.GetU64());
  const uint64_t n = r.GetU64();
  for (uint64_t i = 0; i < n && r.status().ok(); ++i) {
    Result<core::Signature> signature = DecodeSignature(r);
    if (!signature.ok()) return signature.status();
    core::ClusterCore core;
    core.signature = std::move(signature).value();
    core.support = r.GetU64();
    core.expected_support = r.GetDouble();
    state.cores.push_back(std::move(core));
  }
  P3C_RETURN_NOT_OK(FinishWithCounters(r, state.counters));
  return state;
}

std::string EncodeSupportSetsState(const SupportSetsPhaseState& state) {
  wire::WireWriter w;
  w.Put(state.support_sets);
  w.Put(state.unique_assignment);
  wire::EncodeMetricBag(state.counters, w);
  return w.Take();
}

Result<SupportSetsPhaseState> DecodeSupportSetsState(
    const std::string& payload) {
  wire::WireReader r(payload, "support-sets state");
  SupportSetsPhaseState state;
  r.Get(&state.support_sets);
  r.Get(&state.unique_assignment);
  P3C_RETURN_NOT_OK(FinishWithCounters(r, state.counters));
  return state;
}

std::string EncodeGmmState(const GmmPhaseState& state) {
  wire::WireWriter w;
  w.Put(state.model.arel);
  w.PutU64(state.model.components.size());
  for (const core::GaussianComponent& comp : state.model.components) {
    w.Put(comp.mean);
    w.PutU64(comp.cov.rows());
    w.PutU64(comp.cov.cols());
    for (double v : comp.cov.data()) w.PutDouble(v);
    w.PutDouble(comp.weight);
  }
  wire::EncodeMetricBag(state.counters, w);
  return w.Take();
}

Result<GmmPhaseState> DecodeGmmState(const std::string& payload) {
  wire::WireReader r(payload, "em-refinement state");
  GmmPhaseState state;
  r.Get(&state.model.arel);
  const uint64_t k = r.GetU64();
  for (uint64_t c = 0; c < k && r.status().ok(); ++c) {
    core::GaussianComponent comp;
    r.Get(&comp.mean);
    const uint64_t rows = r.GetU64();
    const uint64_t cols = r.GetU64();
    if (!r.status().ok()) break;
    // Not a length prefix: the element count is a product, so bound
    // each factor and the product before allocating the matrix.
    if (rows > payload.size() || cols > payload.size() ||
        (rows != 0 && rows * cols / rows != cols) ||
        rows * cols * sizeof(double) > payload.size()) {
      return Status::IOError(
          "em-refinement state: implausible covariance shape");
    }
    linalg::Matrix cov(static_cast<size_t>(rows), static_cast<size_t>(cols));
    for (double& v : cov.data()) v = r.GetDouble();
    comp.cov = std::move(cov);
    comp.weight = r.GetDouble();
    state.model.components.push_back(std::move(comp));
  }
  P3C_RETURN_NOT_OK(FinishWithCounters(r, state.counters));
  return state;
}

std::string EncodeMembershipState(const MembershipPhaseState& state) {
  wire::WireWriter w;
  w.Put(state.membership);
  wire::EncodeMetricBag(state.counters, w);
  return w.Take();
}

Result<MembershipPhaseState> DecodeMembershipState(
    const std::string& payload) {
  wire::WireReader r(payload, "outlier-detection state");
  MembershipPhaseState state;
  r.Get(&state.membership);
  P3C_RETURN_NOT_OK(FinishWithCounters(r, state.counters));
  return state;
}

// ---- CheckpointManager -----------------------------------------------------

CheckpointManager::CheckpointManager(Options options)
    : options_(std::move(options)) {}

std::string CheckpointManager::ManifestPath() const {
  return options_.dir + "/" + kManifestFilename;
}

void CheckpointManager::Discard(const std::string& reason) {
  P3C_LOG(kWarning) << "discarding checkpoint in '" << options_.dir
                   << "' and starting fresh: " << reason;
  if (options_.driver_metrics != nullptr) {
    options_.driver_metrics->Increment(kCorruptCounter);
  }
  phases_.clear();
}

void CheckpointManager::Initialize() {
  phases_.clear();
  if (!enabled()) return;
  Status mkdir_status = MakeDirectories(options_.dir);
  if (!mkdir_status.ok()) {
    // Leave the manager "fresh"; the first CommitPhase will surface the
    // unusable directory as a real error.
    P3C_LOG(kWarning) << mkdir_status.ToString();
    return;
  }
  const std::string manifest_path = ManifestPath();
  if (!FileExists(manifest_path)) {
    P3C_LOG(kInfo) << "no checkpoint manifest in '" << options_.dir
                  << "'; starting fresh";
    return;
  }
  Result<std::string> blob =
      data::ReadBlobFile(manifest_path, kManifestBlobKind);
  if (!blob.ok()) {
    Discard("manifest unreadable: " + blob.status().ToString());
    return;
  }
  wire::WireReader r(*blob, manifest_path);
  const uint32_t version = r.GetU32();
  const uint64_t fingerprint = r.GetU64();
  const uint64_t params_hash = r.GetU64();
  const uint64_t num_phases = r.GetU64();
  if (!r.status().ok()) {
    Discard("manifest truncated: " + r.status().ToString());
    return;
  }
  if (version != kCheckpointFormatVersion) {
    Discard(StringPrintf(
        "checkpoint format version skew (manifest %u, this build %u)",
        version, kCheckpointFormatVersion));
    return;
  }
  if (fingerprint != options_.dataset_fingerprint) {
    Discard(StringPrintf(
        "dataset fingerprint mismatch (manifest %016llx, this run %016llx) — "
        "checkpoint belongs to different data",
        static_cast<unsigned long long>(fingerprint),
        static_cast<unsigned long long>(options_.dataset_fingerprint)));
    return;
  }
  if (params_hash != options_.params_hash) {
    Discard(StringPrintf(
        "parameter hash mismatch (manifest %016llx, this run %016llx) — "
        "checkpoint belongs to a different configuration",
        static_cast<unsigned long long>(params_hash),
        static_cast<unsigned long long>(options_.params_hash)));
    return;
  }
  if (num_phases > kMaxPhases) {
    Discard(StringPrintf("manifest lists an implausible %llu phases",
                         static_cast<unsigned long long>(num_phases)));
    return;
  }
  std::vector<PhaseEntry> loaded;
  for (uint64_t i = 0; i < num_phases; ++i) {
    PhaseEntry entry;
    entry.name = r.GetString();
    entry.filename = r.GetString();
    entry.payload_checksum = r.GetU64();
    if (!r.status().ok()) {
      Discard("manifest truncated: " + r.status().ToString());
      return;
    }
    if (entry.name.empty() || entry.filename.empty() ||
        entry.filename.find('/') != std::string::npos) {
      Discard(StringPrintf("manifest entry %llu is malformed",
                           static_cast<unsigned long long>(i)));
      return;
    }
    const std::string path = options_.dir + "/" + entry.filename;
    Result<std::string> state_blob =
        data::ReadBlobFile(path, kPhaseBlobKind);
    if (!state_blob.ok()) {
      Discard("phase state unreadable: " + state_blob.status().ToString());
      return;
    }
    const uint64_t checksum =
        data::Fnv1a64(state_blob->data(), state_blob->size());
    if (checksum != entry.payload_checksum) {
      Discard(StringPrintf(
          "phase file '%s' does not match the manifest (checksum %016llx vs "
          "recorded %016llx) — stale file from another run",
          entry.filename.c_str(), static_cast<unsigned long long>(checksum),
          static_cast<unsigned long long>(entry.payload_checksum)));
      return;
    }
    wire::WireReader state_reader(*state_blob, path);
    const uint32_t state_version = state_reader.GetU32();
    const uint64_t state_index = state_reader.GetU64();
    const std::string state_name = state_reader.GetString();
    const uint64_t state_fingerprint = state_reader.GetU64();
    const uint64_t state_params = state_reader.GetU64();
    entry.payload = state_reader.GetString();
    Status state_status = state_reader.Finish();
    if (!state_status.ok()) {
      Discard("phase state malformed: " + state_status.ToString());
      return;
    }
    if (state_version != kCheckpointFormatVersion || state_index != i ||
        state_name != entry.name ||
        state_fingerprint != options_.dataset_fingerprint ||
        state_params != options_.params_hash) {
      Discard(StringPrintf(
          "phase file '%s' header disagrees with the manifest chain",
          entry.filename.c_str()));
      return;
    }
    loaded.push_back(std::move(entry));
  }
  Status trailing = r.Finish();
  if (!trailing.ok()) {
    Discard("manifest malformed: " + trailing.ToString());
    return;
  }
  phases_ = std::move(loaded);
  if (!phases_.empty()) {
    P3C_LOG(kInfo) << "checkpoint in '" << options_.dir << "' is valid: "
                  << phases_.size() << " completed phase(s), last '"
                  << phases_.back().name << "'";
  }
}

Status CheckpointManager::WriteManifest() {
  wire::WireWriter w;
  w.PutU32(kCheckpointFormatVersion);
  w.PutU64(options_.dataset_fingerprint);
  w.PutU64(options_.params_hash);
  w.PutU64(phases_.size());
  for (const PhaseEntry& entry : phases_) {
    w.PutString(entry.name);
    w.PutString(entry.filename);
    w.PutU64(entry.payload_checksum);
  }
  return data::WriteBlobFile(ManifestPath(), kManifestBlobKind, w.Take());
}

Status CheckpointManager::CommitPhase(const std::string& name,
                                      const std::string& payload) {
  if (!enabled()) return Status::OK();
  TraceSpan span(Tracer::Global().enabled()
                     ? std::string("checkpoint:write:") + name
                     : std::string());
  Stopwatch watch;
  const size_t index = phases_.size();
  PhaseEntry entry;
  entry.name = name;
  entry.filename = StringPrintf("phase-%zu-%s.p3ck", index, name.c_str());
  wire::WireWriter state;
  state.PutU32(kCheckpointFormatVersion);
  state.PutU64(index);
  state.PutString(name);
  state.PutU64(options_.dataset_fingerprint);
  state.PutU64(options_.params_hash);
  state.PutString(payload);
  std::string state_blob = state.Take();
  entry.payload_checksum =
      data::Fnv1a64(state_blob.data(), state_blob.size());
  entry.payload = payload;
  P3C_RETURN_NOT_OK(data::WriteBlobFile(options_.dir + "/" + entry.filename,
                                        kPhaseBlobKind, state_blob));
  phases_.push_back(std::move(entry));
  // The manifest rename is the commit point: a crash before it leaves
  // the previous manifest (which simply does not list the new file), a
  // crash after it leaves a fully committed phase.
  Status manifest_status = WriteManifest();
  if (!manifest_status.ok()) {
    phases_.pop_back();
    return manifest_status;
  }
  if (options_.driver_metrics != nullptr) {
    options_.driver_metrics->SetGauge(
        "checkpoint.write_seconds." + name, watch.ElapsedSeconds());
  }
  return Status::OK();
}

}  // namespace p3c::mr
