#include "src/bow/bow.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <utility>

#include "src/common/random.h"
#include "src/common/stopwatch.h"
#include "src/common/threadpool.h"
#include "src/core/interval_tightening.h"
#include "src/core/p3c.h"

namespace p3c::bow {

namespace {

/// A hyperrectangle in a subspace: the unit BoW's merge phase works on.
struct Rect {
  std::vector<size_t> attrs;                    // sorted
  std::vector<core::Interval> intervals;        // parallel to attrs

  double Volume() const {
    double v = 1.0;
    for (const core::Interval& i : intervals) v *= i.width();
    return v;
  }

  bool Contains(std::span<const double> row) const {
    for (const core::Interval& i : intervals) {
      if (!i.Contains(row[i.attr])) return false;
    }
    return true;
  }
};

/// True when the rectangles live in the same subspace and intersect on
/// every attribute of it.
bool CanMerge(const Rect& a, const Rect& b) {
  if (a.attrs != b.attrs) return false;
  for (size_t i = 0; i < a.intervals.size(); ++i) {
    if (!a.intervals[i].Overlaps(b.intervals[i])) return false;
  }
  return true;
}

Rect MergeRects(const Rect& a, const Rect& b) {
  Rect out = a;
  for (size_t i = 0; i < out.intervals.size(); ++i) {
    out.intervals[i].lower =
        std::min(out.intervals[i].lower, b.intervals[i].lower);
    out.intervals[i].upper =
        std::max(out.intervals[i].upper, b.intervals[i].upper);
  }
  return out;
}

}  // namespace

BoW::BoW(BoWOptions options) : options_(std::move(options)) {}

Result<core::ClusteringResult> BoW::Cluster(const data::Dataset& dataset) {
  Stopwatch watch;
  const size_t n = dataset.num_points();
  if (n == 0 || dataset.num_dims() == 0) {
    return Status::InvalidArgument("dataset is empty");
  }
  if (!dataset.IsNormalized()) {
    return Status::InvalidArgument("dataset must be normalized to [0, 1]");
  }

  // ---- Random partitioning into blocks ----------------------------------
  const size_t block_size = std::max<size_t>(1, options_.samples_per_reducer);
  const size_t num_blocks = (n + block_size - 1) / block_size;
  num_blocks_ = num_blocks;
  std::vector<data::PointId> permutation(n);
  std::iota(permutation.begin(), permutation.end(), data::PointId{0});
  Rng rng(options_.seed);
  rng.Shuffle(permutation);

  // ---- Per-block clustering (the "reducers") -----------------------------
  core::P3CParams block_params = options_.params;
  if (options_.variant == PluginVariant::kLight) {
    block_params.light = true;
  } else {
    block_params.light = false;
    block_params.outlier = core::OutlierMode::kMVB;
  }

  ThreadPool pool(options_.num_threads);
  std::vector<std::vector<Rect>> block_rects(num_blocks);
  std::vector<core::CoreDetectionStats> block_stats(num_blocks);
  std::vector<Status> block_status(num_blocks);
  const double sample_fraction =
      options_.sample_fraction > 0.0 && options_.sample_fraction <= 1.0
          ? options_.sample_fraction
          : 1.0;
  // The [begin, end) of block b's points the plug-in clusters.
  const auto clustered_range = [&](size_t b) {
    const size_t begin = b * block_size;
    size_t end = std::min(n, begin + block_size);
    if (sample_fraction < 1.0) {
      // Sampling mode: cluster only a prefix of the (already random)
      // block; merging and assignment still see every point.
      const auto sampled = static_cast<size_t>(
          static_cast<double>(end - begin) * sample_fraction);
      end = begin + std::max<size_t>(1, sampled);
    }
    return std::pair{begin, end};
  };
  num_points_clustered_ = 0;
  for (size_t b = 0; b < num_blocks; ++b) {
    const auto [begin, end] = clustered_range(b);
    num_points_clustered_ += end - begin;
  }
  pool.ParallelFor(num_blocks, [&](size_t b) {
    const auto [begin, end] = clustered_range(b);
    std::vector<data::PointId> ids(permutation.begin() + begin,
                                   permutation.begin() + end);
    const data::Dataset block = dataset.Select(ids);
    // Single-threaded per block: parallelism comes from concurrent blocks,
    // exactly like one reducer per block in the original.
    core::P3CPipeline pipeline(block_params, /*num_threads=*/1);
    Result<core::ClusteringResult> result = pipeline.Cluster(block);
    if (!result.ok()) {
      block_status[b] = result.status();
      return;
    }
    block_stats[b] = result->core_stats;
    for (const core::ProjectedCluster& cluster : result->clusters) {
      Rect rect;
      rect.attrs = cluster.attrs;
      rect.intervals = cluster.intervals;
      block_rects[b].push_back(std::move(rect));
    }
  });
  for (const Status& st : block_status) {
    P3C_RETURN_NOT_OK(st);
  }

  // ---- Merge phase: stitch intersecting hyperrectangles ------------------
  std::vector<Rect> rects;
  for (auto& br : block_rects) {
    rects.insert(rects.end(), std::make_move_iterator(br.begin()),
                 std::make_move_iterator(br.end()));
  }
  num_merges_ = 0;
  bool changed = true;
  while (changed) {
    changed = false;
    for (size_t i = 0; i < rects.size() && !changed; ++i) {
      for (size_t j = i + 1; j < rects.size(); ++j) {
        if (CanMerge(rects[i], rects[j])) {
          rects[i] = MergeRects(rects[i], rects[j]);
          rects.erase(rects.begin() + static_cast<long>(j));
          ++num_merges_;
          changed = true;
          break;
        }
      }
    }
  }

  // ---- Final assignment: smallest containing rectangle wins --------------
  core::ClusteringResult result;
  for (const core::CoreDetectionStats& s : block_stats) {
    result.core_stats.num_candidates_generated += s.num_candidates_generated;
    result.core_stats.num_proven += s.num_proven;
    result.core_stats.num_support_batches += s.num_support_batches;
    result.core_stats.num_maximal += s.num_maximal;
    result.core_stats.num_after_redundancy += s.num_after_redundancy;
    result.core_stats.num_levels =
        std::max(result.core_stats.num_levels, s.num_levels);
  }
  if (rects.empty()) {
    result.seconds = watch.ElapsedSeconds();
    return result;
  }

  // Sort by volume so "first containing rect" is the most specific one.
  std::sort(rects.begin(), rects.end(), [](const Rect& a, const Rect& b) {
    return a.Volume() < b.Volume();
  });
  std::vector<std::vector<data::PointId>> members(rects.size());
  {
    std::vector<std::vector<std::vector<data::PointId>>> local(
        NumTasks(n, &pool),
        std::vector<std::vector<data::PointId>>(rects.size()));
    ForEachRange(n, &pool, [&](size_t task, size_t begin, size_t end) {
      for (size_t i = begin; i < end; ++i) {
        const auto row = dataset.Row(static_cast<data::PointId>(i));
        for (size_t r = 0; r < rects.size(); ++r) {
          if (rects[r].Contains(row)) {
            local[task][r].push_back(static_cast<data::PointId>(i));
            break;
          }
        }
      }
    });
    for (auto& task_local : local) {
      for (size_t r = 0; r < rects.size(); ++r) {
        members[r].insert(members[r].end(), task_local[r].begin(),
                          task_local[r].end());
      }
    }
  }

  std::vector<size_t> arel;
  for (size_t r = 0; r < rects.size(); ++r) {
    if (members[r].empty()) continue;
    core::ProjectedCluster cluster;
    cluster.points = std::move(members[r]);
    cluster.attrs = rects[r].attrs;
    cluster.intervals =
        core::TightenIntervals(dataset, cluster.points, cluster.attrs);
    arel.insert(arel.end(), cluster.attrs.begin(), cluster.attrs.end());
    result.clusters.push_back(std::move(cluster));
  }
  std::sort(arel.begin(), arel.end());
  arel.erase(std::unique(arel.begin(), arel.end()), arel.end());
  result.arel = std::move(arel);
  result.seconds = watch.ElapsedSeconds();
  return result;
}

}  // namespace p3c::bow
