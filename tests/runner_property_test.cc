// Property suite for the MapReduce engine: a randomized keyed-sum job
// must agree exactly with a direct single-threaded reference computation
// for every (threads, split size, reducers) configuration.

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <span>

#include "src/common/random.h"
#include "src/mapreduce/runner.h"

namespace p3c::mr {
namespace {

struct KeyedRecord {
  int key;
  int64_t value;
};

class KeyedSumMapper : public Mapper<KeyedRecord, int, int64_t> {
 public:
  void Map(const KeyedRecord& record, Emitter<int, int64_t>& out) override {
    out.Emit(record.key, record.value);
  }
};

class Int64SumReducer
    : public Reducer<int, int64_t, std::pair<int, int64_t>> {
 public:
  void Reduce(const int& key, std::span<const int64_t> values,
              std::vector<std::pair<int, int64_t>>& out) override {
    int64_t total = 0;
    for (int64_t v : values) total += v;
    out.emplace_back(key, total);
  }
};

class Int64SumCombiner : public Combiner<int, int64_t> {
 public:
  int64_t Combine(const int& key, std::span<const int64_t> values) override {
    (void)key;
    int64_t total = 0;
    for (int64_t v : values) total += v;
    return total;
  }
};

using Param = std::tuple<uint64_t /*seed*/, size_t /*threads*/,
                         size_t /*split*/, bool /*combiner*/>;

class RunnerProperties : public ::testing::TestWithParam<Param> {};

TEST_P(RunnerProperties, KeyedSumMatchesReference) {
  const auto [seed, threads, split, with_combiner] = GetParam();
  Rng rng(seed);
  const size_t n = 500 + rng.UniformInt(2000);
  std::vector<KeyedRecord> records(n);
  std::map<int, int64_t> reference;
  for (auto& record : records) {
    record.key = static_cast<int>(rng.UniformInt(40));
    record.value = static_cast<int64_t>(rng.UniformInt(1000)) - 500;
    reference[record.key] += record.value;
  }

  RunnerOptions options;
  options.num_threads = threads;
  options.records_per_split = split;
  options.num_reducers = threads;
  LocalRunner runner(options);
  const auto mapper = [] { return std::make_unique<KeyedSumMapper>(); };
  const auto reducer = [] { return std::make_unique<Int64SumReducer>(); };
  const auto result =
      with_combiner
          ? runner.RunWithCombiner<KeyedRecord, int, int64_t,
                                   std::pair<int, int64_t>>(
                "keyed-sum", records, mapper, reducer,
                [] { return std::make_unique<Int64SumCombiner>(); })
          : runner.Run<KeyedRecord, int, int64_t, std::pair<int, int64_t>>(
                "keyed-sum", records, mapper, reducer);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const auto& out = *result;

  ASSERT_EQ(out.size(), reference.size());
  size_t i = 0;
  for (const auto& [key, total] : reference) {
    EXPECT_EQ(out[i].first, key);
    EXPECT_EQ(out[i].second, total);
    ++i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, RunnerProperties,
    ::testing::Combine(::testing::Values(1u, 2u, 3u),
                       ::testing::Values(1u, 4u),
                       ::testing::Values(1u, 7u, 1000u),
                       ::testing::Bool()));

// Straggler-control variant of the property: with a (non-firing)
// deadline armed, every attempt is registered with the watchdog — and
// the output must STILL match the reference exactly. This is the
// determinism argument of DESIGN.md §11 exercised as a property.
class StragglerRunnerProperties : public ::testing::TestWithParam<Param> {};

TEST_P(StragglerRunnerProperties, KeyedSumMatchesReferenceWithDeadlineArmed) {
  const auto [seed, threads, split, with_combiner] = GetParam();
  Rng rng(seed);
  const size_t n = 500 + rng.UniformInt(2000);
  std::vector<KeyedRecord> records(n);
  std::map<int, int64_t> reference;
  for (auto& record : records) {
    record.key = static_cast<int>(rng.UniformInt(40));
    record.value = static_cast<int64_t>(rng.UniformInt(1000)) - 500;
    reference[record.key] += record.value;
  }

  RunnerOptions options;
  options.num_threads = threads;
  options.records_per_split = split;
  options.num_reducers = threads;
  options.task_deadline_seconds = 30.0;  // armed, but healthy tasks fit
  LocalRunner runner(options);
  const auto mapper = [] { return std::make_unique<KeyedSumMapper>(); };
  const auto reducer = [] { return std::make_unique<Int64SumReducer>(); };
  const auto result =
      with_combiner
          ? runner.RunWithCombiner<KeyedRecord, int, int64_t,
                                   std::pair<int, int64_t>>(
                "keyed-sum", records, mapper, reducer,
                [] { return std::make_unique<Int64SumCombiner>(); })
          : runner.Run<KeyedRecord, int, int64_t, std::pair<int, int64_t>>(
                "keyed-sum", records, mapper, reducer);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const auto& out = *result;

  ASSERT_EQ(out.size(), reference.size());
  size_t i = 0;
  for (const auto& [key, total] : reference) {
    EXPECT_EQ(out[i].first, key);
    EXPECT_EQ(out[i].second, total);
    ++i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    StragglerGrid, StragglerRunnerProperties,
    ::testing::Combine(::testing::Values(1u, 2u),
                       ::testing::Values(1u, 4u),
                       ::testing::Values(7u, 200u),
                       ::testing::Bool()));

}  // namespace
}  // namespace p3c::mr
