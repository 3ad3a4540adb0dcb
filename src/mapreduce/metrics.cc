#include "src/mapreduce/metrics.h"

#include <cmath>

#include "src/common/string_util.h"

namespace p3c::mr {

double MetricsRegistry::TotalSeconds() const {
  double acc = 0.0;
  for (const auto& j : jobs_) acc += j.total_seconds;
  return acc;
}

uint64_t MetricsRegistry::TotalShuffleBytes() const {
  uint64_t acc = 0;
  for (const auto& j : jobs_) acc += j.shuffle_bytes;
  return acc;
}

uint64_t MetricsRegistry::TotalTaskFailures() const {
  uint64_t acc = 0;
  for (const auto& j : jobs_) acc += j.task_failures;
  return acc;
}

uint64_t MetricsRegistry::TotalRetriedTasks() const {
  uint64_t acc = 0;
  for (const auto& j : jobs_) acc += j.retried_tasks;
  return acc;
}

uint64_t MetricsRegistry::TotalKilledAttempts() const {
  uint64_t acc = 0;
  for (const auto& j : jobs_) acc += j.killed_attempts;
  return acc;
}

uint64_t MetricsRegistry::TotalDeadlineExceeded() const {
  uint64_t acc = 0;
  for (const auto& j : jobs_) acc += j.deadline_exceeded;
  return acc;
}

uint64_t MetricsRegistry::TotalInputRecords() const {
  uint64_t acc = 0;
  for (const auto& j : jobs_) acc += j.input_records;
  return acc;
}

MetricBag MetricsRegistry::MergedCounters() const {
  MetricBag merged;
  for (const auto& j : jobs_) merged.MergeFrom(j.counters);
  return merged;
}

std::string MetricsRegistry::ToString() const {
  std::string out = StringPrintf(
      "%-34s %8s %6s %12s %12s %6s %6s %6s %6s %6s %6s %10s\n", "job",
      "splits", "red.", "input", "shuffled(B)", "att.", "fail.", "retr.",
      "kill.", "ddl.", "skew", "time(s)");
  for (const auto& j : jobs_) {
    // Map-only jobs have no shuffle partitions; print "-" instead of a
    // meaningless 0.00 skew so the column stays readable either way.
    const std::string skew = j.partition_records.empty()
                                 ? std::string("     -")
                                 : StringPrintf("%6.2f", j.partition_skew);
    out += StringPrintf(
        "%-34s %8zu %6zu %12llu %12llu %6llu %6llu %6llu %6llu %6llu %s "
        "%10.4f%s\n",
        j.job_name.c_str(), j.num_splits, j.num_reducers,
        static_cast<unsigned long long>(j.input_records),
        static_cast<unsigned long long>(j.shuffle_bytes),
        static_cast<unsigned long long>(j.task_attempts),
        static_cast<unsigned long long>(j.task_failures),
        static_cast<unsigned long long>(j.retried_tasks),
        static_cast<unsigned long long>(j.killed_attempts),
        static_cast<unsigned long long>(j.deadline_exceeded), skew.c_str(),
        j.total_seconds, j.succeeded ? "" : "  FAILED");
  }
  out += StringPrintf("TOTAL: %zu jobs, %llu input records, %llu shuffle "
                      "bytes, %llu failed attempts, %llu retried tasks, "
                      "%llu killed, %llu deadline, %.4f s\n",
                      jobs_.size(),
                      static_cast<unsigned long long>(TotalInputRecords()),
                      static_cast<unsigned long long>(TotalShuffleBytes()),
                      static_cast<unsigned long long>(TotalTaskFailures()),
                      static_cast<unsigned long long>(TotalRetriedTasks()),
                      static_cast<unsigned long long>(TotalKilledAttempts()),
                      static_cast<unsigned long long>(
                          TotalDeadlineExceeded()),
                      TotalSeconds());
  const MetricBag merged = MergedCounters();
  if (!merged.empty()) {
    out += "counters:\n";
    out += merged.ToString("  ");
  }
  return out;
}

namespace {

template <typename T, typename Fn>
std::string JsonArray(const std::vector<T>& values, Fn&& render) {
  std::string out = "[";
  for (size_t i = 0; i < values.size(); ++i) {
    if (i > 0) out += ", ";
    out += render(values[i]);
  }
  out += "]";
  return out;
}

}  // namespace

std::string MetricsRegistry::ToJson(const MetricBag* driver) const {
  std::string out = "{\n  \"jobs\": [";
  for (size_t i = 0; i < jobs_.size(); ++i) {
    const JobMetrics& j = jobs_[i];
    out += i == 0 ? "\n" : ",\n";
    out += StringPrintf(
        "    {\"job_name\": \"%s\", \"num_splits\": %zu, "
        "\"num_reducers\": %zu, \"input_records\": %llu, "
        "\"map_output_records\": %llu, \"shuffle_bytes\": %llu, "
        "\"output_records\": %llu, \"task_attempts\": %llu, "
        "\"task_failures\": %llu, \"retried_tasks\": %llu, "
        "\"killed_attempts\": %llu, \"deadline_exceeded\": %llu, "
        "\"succeeded\": %s, \"map_seconds\": %.6f, "
        "\"shuffle_seconds\": %.6f, \"reduce_seconds\": %.6f, "
        "\"total_seconds\": %.6f, \"partition_skew\": %.6f, "
        "\"partition_records\": %s, \"partition_shuffle_seconds\": %s, "
        "\"counters\": %s}",
        JsonEscape(j.job_name).c_str(), j.num_splits, j.num_reducers,
        static_cast<unsigned long long>(j.input_records),
        static_cast<unsigned long long>(j.map_output_records),
        static_cast<unsigned long long>(j.shuffle_bytes),
        static_cast<unsigned long long>(j.output_records),
        static_cast<unsigned long long>(j.task_attempts),
        static_cast<unsigned long long>(j.task_failures),
        static_cast<unsigned long long>(j.retried_tasks),
        static_cast<unsigned long long>(j.killed_attempts),
        static_cast<unsigned long long>(j.deadline_exceeded),
        j.succeeded ? "true" : "false", j.map_seconds, j.shuffle_seconds,
        j.reduce_seconds, j.total_seconds, j.partition_skew,
        JsonArray(j.partition_records,
                  [](uint64_t r) {
                    return StringPrintf(
                        "%llu", static_cast<unsigned long long>(r));
                  })
            .c_str(),
        JsonArray(j.partition_shuffle_seconds,
                  [](double s) { return StringPrintf("%.6f", s); })
            .c_str(),
        j.counters.ToJson().c_str());
  }
  out += StringPrintf(
      "\n  ],\n"
      "  \"num_jobs\": %zu,\n"
      "  \"total_seconds\": %.6f,\n"
      "  \"total_shuffle_bytes\": %llu,\n"
      "  \"total_input_records\": %llu,\n"
      "  \"total_task_failures\": %llu,\n"
      "  \"total_retried_tasks\": %llu,\n"
      "  \"total_killed_attempts\": %llu,\n"
      "  \"total_deadline_exceeded\": %llu,\n"
      "  \"counters\": %s\n}\n",
      jobs_.size(), TotalSeconds(),
      static_cast<unsigned long long>(TotalShuffleBytes()),
      static_cast<unsigned long long>(TotalInputRecords()),
      static_cast<unsigned long long>(TotalTaskFailures()),
      static_cast<unsigned long long>(TotalRetriedTasks()),
      static_cast<unsigned long long>(TotalKilledAttempts()),
      static_cast<unsigned long long>(TotalDeadlineExceeded()),
      MergedCounters().ToJson().c_str());
  if (driver != nullptr && !driver->empty()) {
    // Splice the driver bag in before the closing "\n}\n", keeping the
    // no-driver serialization byte-identical to what it always was.
    out.erase(out.find_last_of('}') - 1);
    out += StringPrintf(",\n  \"driver\": %s\n}\n",
                        driver->ToJson().c_str());
  }
  return out;
}

}  // namespace p3c::mr
