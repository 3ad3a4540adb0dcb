#include "src/core/support_counter.h"

#include <algorithm>

#include "src/common/resource.h"

namespace p3c::core {

namespace {

/// Per-task support counters, charged to the support-partials scope
/// through the allocator itself — the type is local to this file, so
/// the cross-allocator-move caveat of TrackedAllocator never applies.
using TrackedCounts =
    std::vector<uint64_t, resource::TrackedAllocator<uint64_t>>;

TrackedCounts MakeTrackedCounts(size_t k) {
  return TrackedCounts(k, 0,
                       resource::TrackedAllocator<uint64_t>(
                           resource::MemScope::kSupportPartials));
}

/// Range-parallel per-signature counts over every row of `dataset`:
/// `count_row(row, scratch, local)` adds the row's matches to `local`.
template <typename CountRow>
std::vector<uint64_t> SumCounts(const data::Dataset& dataset, size_t k,
                                ThreadPool* pool, const CountRow& count_row) {
  const size_t n = dataset.num_points();
  // One counter per live signature — Rssc::Accumulate never touches the
  // padding lanes of its last word (see rssc.h).
  std::vector<TrackedCounts> partials(NumTasks(n, pool), MakeTrackedCounts(k));
  ForEachRange(n, pool, [&](size_t task, size_t begin, size_t end) {
    std::vector<uint64_t> scratch;
    auto& local = partials[task];
    for (size_t i = begin; i < end; ++i) {
      count_row(dataset.Row(static_cast<data::PointId>(i)), scratch, local);
    }
  });
  std::vector<uint64_t> supports(k, 0);
  for (const auto& local : partials) {
    for (size_t j = 0; j < k; ++j) supports[j] += local[j];
  }
  return supports;
}

}  // namespace

std::vector<uint64_t> CountSupports(const data::Dataset& dataset,
                                    const std::vector<Signature>& signatures,
                                    ThreadPool* pool) {
  if (signatures.empty()) return {};
  const Rssc index(signatures);
  return SumCounts(dataset, signatures.size(), pool,
                   [&](auto row, auto& scratch, auto& local) {
                     index.Accumulate(row, scratch, local);
                   });
}

std::vector<uint64_t> CountSupportsNaive(
    const data::Dataset& dataset, const std::vector<Signature>& signatures,
    ThreadPool* pool) {
  if (signatures.empty()) return {};
  return SumCounts(dataset, signatures.size(), pool,
                   [&](auto row, auto&, auto& local) {
                     for (size_t j = 0; j < signatures.size(); ++j) {
                       if (signatures[j].Contains(row)) ++local[j];
                     }
                   });
}

std::vector<std::vector<data::PointId>> ComputeSupportSets(
    const data::Dataset& dataset, const std::vector<Signature>& signatures,
    ThreadPool* pool) {
  const size_t k = signatures.size();
  std::vector<std::vector<data::PointId>> sets(k);
  if (k == 0) return sets;
  const Rssc index(signatures);
  const size_t n = dataset.num_points();
  std::vector<std::vector<std::vector<data::PointId>>> partials(
      NumTasks(n, pool), std::vector<std::vector<data::PointId>>(k));
  ForEachRange(n, pool, [&](size_t task, size_t begin, size_t end) {
    std::vector<uint64_t> bits;
    std::vector<uint32_t> ids;
    auto& local = partials[task];
    for (size_t i = begin; i < end; ++i) {
      index.Match(dataset.Row(static_cast<data::PointId>(i)), bits);
      ids.clear();
      Rssc::BitsToIds(bits, k, ids);
      for (uint32_t id : ids) {
        local[id].push_back(static_cast<data::PointId>(i));
      }
    }
  });
  // Tasks own contiguous ascending ranges, so concatenation in task order
  // keeps each set sorted.
  resource::ScopedBytes partials_charge(
      resource::MemScope::kSupportPartials);
  if (resource::MemoryTracker::Global().enabled()) {
    int64_t bytes = 0;
    for (const auto& local : partials) {
      for (const auto& ids : local) {
        bytes +=
            static_cast<int64_t>(ids.capacity() * sizeof(data::PointId));
      }
    }
    partials_charge.Set(bytes);
  }
  for (auto& local : partials) {
    for (size_t j = 0; j < k; ++j) {
      sets[j].insert(sets[j].end(), local[j].begin(), local[j].end());
    }
  }
  return sets;
}

std::vector<int32_t> UniqueAssignments(
    const data::Dataset& dataset, const std::vector<Signature>& signatures,
    ThreadPool* pool) {
  const size_t n = dataset.num_points();
  std::vector<int32_t> assignment(n, -1);
  if (signatures.empty()) return assignment;
  const Rssc index(signatures);
  ForEachRange(n, pool, [&](size_t task, size_t begin, size_t end) {
    (void)task;
    std::vector<uint64_t> bits;
    std::vector<uint32_t> ids;
    for (size_t i = begin; i < end; ++i) {
      index.Match(dataset.Row(static_cast<data::PointId>(i)), bits);
      ids.clear();
      Rssc::BitsToIds(bits, signatures.size(), ids);
      if (ids.size() == 1) {
        assignment[i] = static_cast<int32_t>(ids[0]);
      } else if (ids.size() > 1) {
        assignment[i] = -2;
      }
    }
  });
  return assignment;
}

}  // namespace p3c::core
