#include "src/core/streaming.h"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <limits>
#include <memory>

#include "src/common/atomic_file.h"
#include "src/common/stopwatch.h"
#include "src/core/driver.h"
#include "src/core/rssc.h"

namespace p3c::core {

Result<BinaryDatasetReader> BinaryDatasetReader::Open(
    const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    return Status::IOError("cannot open " + path + ": " +
                           std::strerror(errno));
  }
  Result<data::BinaryHeader> header = data::ReadBinaryHeader(f, path);
  long file_size = -1;
  if (header.ok() && std::fseek(f, 0, SEEK_END) == 0) {
    file_size = std::ftell(f);
  }
  std::fclose(f);
  if (!header.ok()) return header.status();
  if (file_size < 0) return Status::IOError("cannot stat: " + path);
  P3C_RETURN_NOT_OK(data::ValidateBinarySize(
      *header, static_cast<uint64_t>(file_size), path));
  return BinaryDatasetReader(path, *header);
}

Status BinaryDatasetReader::ForEachBlock(
    size_t block_rows,
    const std::function<Status(data::PointId, const data::Dataset&)>& fn)
    const {
  if (block_rows == 0) {
    return Status::InvalidArgument("block_rows must be positive");
  }
  std::FILE* f = std::fopen(path_.c_str(), "rb");
  if (f == nullptr) {
    return Status::IOError("cannot open " + path_ + ": " +
                           std::strerror(errno));
  }
  if (std::fseek(f, static_cast<long>(header_.header_bytes), SEEK_SET) != 0) {
    std::fclose(f);
    return Status::IOError("seek failed: " + path_);
  }
  Status status;
  uint64_t row = 0;
  // Running payload checksum: whole-file corruption detection amortized
  // over the pass, verified only when the pass reaches the end (a
  // callback abort leaves the tail unread).
  data::PayloadVerifier verifier(header_);
  std::vector<double> buffer;
  while (row < header_.num_points) {
    const uint64_t rows =
        std::min<uint64_t>(block_rows, header_.num_points - row);
    buffer.resize(static_cast<size_t>(rows * header_.num_dims));
    if (std::fread(buffer.data(), sizeof(double), buffer.size(), f) !=
        buffer.size()) {
      status = Status::IOError("truncated payload: " + path_);
      break;
    }
    verifier.Update(buffer.data(), buffer.size() * sizeof(double));
    Result<data::Dataset> block = data::Dataset::FromRowMajor(
        std::move(buffer), static_cast<size_t>(header_.num_dims));
    if (!block.ok()) {
      status = block.status();
      break;
    }
    status = fn(static_cast<data::PointId>(row), *block);
    if (!status.ok()) break;
    buffer = std::vector<double>();  // FromRowMajor consumed it
    row += rows;
  }
  if (status.ok() && row >= header_.num_points) {
    status = verifier.Verify(path_);
  }
  std::fclose(f);
  return status;
}

namespace {

/// The block-stream executor: every pass is one sequential
/// BinaryDatasetReader scan, so memory stays O(block + per-core
/// histograms) whatever n is. Light only: nothing point-sized is kept
/// between passes, just the m' counts and, from the member-histogram
/// pass, per-core min/max tables that make tightening free.
class BlockStreamExecutor final : public PassExecutor {
 public:
  BlockStreamExecutor(const BinaryDatasetReader& reader, size_t block_rows,
                      const std::function<void()>& before_support_scan)
      : reader_(reader),
        block_rows_(block_rows),
        d_(static_cast<size_t>(reader.num_dims())),
        before_support_scan_(before_support_scan) {}

  uint64_t num_points() const override { return reader_.num_points(); }
  /// Full sequential scans over the file so far.
  size_t passes() const { return passes_; }

  Result<std::vector<stats::Histogram>> Histograms(
      stats::BinningRule rule) override {
    std::vector<stats::Histogram> histograms(
        d_, stats::Histogram(
                static_cast<size_t>(stats::NumBins(rule, num_points()))));
    P3C_RETURN_NOT_OK(Pass([&](data::PointId, const data::Dataset& block) {
      if (!block.IsNormalized()) {
        return Status::InvalidArgument(
            "file contains values outside [0, 1]; normalize before writing");
      }
      // Column-at-a-time over the row-major block (stride = d) so each
      // attribute's whole batch goes through one kernel call.
      const double* values = block.values().data();
      for (size_t j = 0; j < d_; ++j) {
        histograms[j].AddStrided(values + j, block.num_points(), d_);
      }
      return Status::OK();
    }));
    return histograms;
  }

  Result<std::vector<uint64_t>> CountSupports(
      const std::vector<Signature>& sigs) override {
    std::vector<uint64_t> supports(sigs.size(), 0);
    if (sigs.empty()) return supports;
    if (before_support_scan_) before_support_scan_();
    const Rssc index(sigs);
    // Accumulate straight into the result: Rssc::Accumulate only needs
    // one counter per live signature (no padded-lane copy-out).
    P3C_RETURN_NOT_OK(Pass([&](data::PointId, const data::Dataset& block) {
      std::vector<uint64_t> scratch;
      for (size_t i = 0; i < block.num_points(); ++i) {
        index.Accumulate(block.Row(static_cast<data::PointId>(i)), scratch,
                         supports);
      }
      return Status::OK();
    }));
    return supports;
  }

  Result<std::vector<uint64_t>> LightMembership(
      const std::vector<Signature>& signatures) override {
    index_ = std::make_unique<Rssc>(signatures);
    k_ = signatures.size();
    std::vector<uint64_t> unique_counts(k_, 0);
    P3C_RETURN_NOT_OK(MatchPass([&](uint64_t, const auto&, int c) {
      if (c >= 0) ++unique_counts[static_cast<size_t>(c)];
    }));
    return unique_counts;
  }

  Result<std::vector<uint64_t>> Refine(
      const std::vector<ClusterCore>&) override {
    return Status::NotImplemented(
        "the block-stream executor runs P3C+-Light only");
  }

  Result<std::vector<std::vector<stats::Histogram>>> MemberHistograms(
      const std::vector<size_t>& bins) override {
    std::vector<std::vector<stats::Histogram>> histograms(k_);
    for (size_t c = 0; c < k_; ++c) {
      histograms[c].assign(d_, stats::Histogram(bins[c]));
    }
    // The same pass records per-attribute min/max of the m' members, so
    // tightening needs no pass of its own.
    constexpr double kInf = std::numeric_limits<double>::infinity();
    mins_.assign(k_, std::vector<double>(d_, kInf));
    maxs_.assign(k_, std::vector<double>(d_, -kInf));
    P3C_RETURN_NOT_OK(MatchPass([&](uint64_t, const auto& row, int c) {
      if (c < 0) return;
      for (size_t j = 0; j < d_; ++j) {
        histograms[c][j].Add(row[j]);
        mins_[c][j] = std::min(mins_[c][j], row[j]);
        maxs_[c][j] = std::max(maxs_[c][j], row[j]);
      }
    }));
    return histograms;
  }

  Result<std::vector<std::vector<Interval>>> Tighten(
      const std::vector<std::vector<size_t>>& attrs) override {
    std::vector<std::vector<Interval>> intervals(k_);
    for (size_t c = 0; c < k_; ++c) {
      for (size_t attr : attrs[c]) {
        intervals[c].push_back(Interval{attr, mins_[c][attr], maxs_[c][attr]});
      }
    }
    return intervals;
  }

  /// One more pass writing "point,cluster" per point: the matching
  /// core, -1 for none, -2 for several.
  Status WriteAssignments(const std::string& path) {
    AtomicFileWriter writer(path);
    P3C_RETURN_NOT_OK(writer.Open());
    std::FILE* out = writer.stream();
    std::fprintf(out, "point,cluster\n");
    P3C_RETURN_NOT_OK(MatchPass([&](uint64_t point, const auto&, int c) {
      std::fprintf(out, "%llu,%d\n", static_cast<unsigned long long>(point),
                   c);
    }));
    return writer.Commit();
  }

 private:
  template <typename Fn>
  Status Pass(const Fn& fn) {
    P3C_RETURN_NOT_OK(reader_.ForEachBlock(block_rows_, fn));
    ++passes_;
    return Status::OK();
  }

  /// One pass calling `fn(point, row, c)` for every row, where c is the
  /// only core the row matches, -1 for none and -2 for several (m').
  template <typename Fn>
  Status MatchPass(const Fn& fn) {
    return Pass([&](data::PointId first, const data::Dataset& block) {
      std::vector<uint64_t> bits;
      std::vector<uint32_t> ids;
      for (size_t i = 0; i < block.num_points(); ++i) {
        const auto row = block.Row(static_cast<data::PointId>(i));
        index_->Match(row, bits);
        ids.clear();
        Rssc::BitsToIds(bits, k_, ids);
        const int c = ids.empty()       ? -1
                      : ids.size() == 1 ? static_cast<int>(ids[0])
                                        : -2;
        fn(first + i, row, c);
      }
      return Status::OK();
    });
  }

  const BinaryDatasetReader& reader_;
  const size_t block_rows_;
  const size_t d_;
  const std::function<void()>& before_support_scan_;
  size_t passes_ = 0;
  size_t k_ = 0;
  std::unique_ptr<Rssc> index_;
  std::vector<std::vector<double>> mins_;
  std::vector<std::vector<double>> maxs_;
};

}  // namespace

StreamingLightPipeline::StreamingLightPipeline(P3CParams params,
                                               size_t block_rows)
    : params_(params), block_rows_(std::max<size_t>(1, block_rows)) {
  params_.light = true;  // this pipeline IS the Light model
}

Result<StreamingLightResult> StreamingLightPipeline::Cluster(
    const std::string& binary_path) {
  return Run(binary_path, nullptr);
}

Result<StreamingLightResult> StreamingLightPipeline::ClusterAndAssign(
    const std::string& binary_path, const std::string& assignment_csv) {
  return Run(binary_path, &assignment_csv);
}

Result<StreamingLightResult> StreamingLightPipeline::Run(
    const std::string& binary_path, const std::string* assignment_csv) {
  Stopwatch watch;
  Result<BinaryDatasetReader> reader = BinaryDatasetReader::Open(binary_path);
  if (!reader.ok()) return reader.status();
  if (reader->num_points() == 0 || reader->num_dims() == 0) {
    return Status::InvalidArgument("file is empty");
  }
  BlockStreamExecutor executor(*reader, block_rows_,
                               before_support_scan_hook_);
  Result<ModelResult> model = RunP3C(params_, executor);
  if (!model.ok()) return model.status();

  StreamingLightResult result;
  result.num_points = reader->num_points();
  result.num_dims = reader->num_dims();
  result.core_stats = model->detection.stats;
  const std::vector<ClusterCore>& cores = model->detection.cores;
  for (size_t c = 0; c < cores.size(); ++c) {
    result.clusters.push_back(StreamingCluster{
        cores[c].signature, std::move(model->clusters[c].attrs),
        std::move(model->clusters[c].intervals), cores[c].support,
        model->members[c]});
  }
  if (assignment_csv != nullptr && !cores.empty()) {
    P3C_RETURN_NOT_OK(executor.WriteAssignments(*assignment_csv));
  }
  result.passes = executor.passes();
  result.seconds = watch.ElapsedSeconds();
  return result;
}

}  // namespace p3c::core
