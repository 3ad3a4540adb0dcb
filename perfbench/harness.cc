// perfbench_harness — in-process file-to-clusters benchmark over libp3c.
//
//   perfbench_harness setup --workload W --seed N --dir D [--tiny]
//   perfbench_harness run   --workload W --seed N --dir D --seconds S
//                           [--trace 0|1] [--tiny] [--tamper]
//
// `setup` generates the workload's input file (and the hidden-cluster
// truth file used for E4SC) from the seed, kSetupRepeats times, and
// reports the median time. `run` receives only those files. It times whole
// operations — open the input file, cluster, write the per-point
// assignments and the clusters file, as `p3c_cli cluster --out
// --clusters-out` does — and checks every operation's output against
// the first (untimed) operation's, after printing a `provenance` line.
// Both end with one JSON object on stdout. perfbench/run.py drives them.
//
// Layers are timed from outside, around calls into their public
// functions; with --trace 1 the library's Tracer and MemoryTracker are
// enabled too and the per-layer breakdown is reported instead of the
// end-to-end numbers.

#include <sched.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <numeric>
#include <optional>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "src/common/atomic_file.h"
#include "src/common/resource.h"
#include "src/common/status.h"
#include "src/common/stopwatch.h"
#include "src/common/trace.h"
#include "src/core/kernels/kernels.h"
#include "src/core/p3c.h"
#include "src/core/params.h"
#include "src/core/streaming.h"
#include "src/data/generator.h"
#include "src/data/io.h"
#include "src/eval/e4sc.h"
#include "src/eval/serialization.h"
#include "src/mr/p3c_mr.h"

namespace {

using namespace p3c;  // NOLINT(build/namespaces)

// ---- Workloads ---------------------------------------------------------------

enum class Engine { kPoolLight, kMrLight, kMrFull, kStreamLight };

struct Workload {
  const char* name;
  Engine engine;
  bool csv;            ///< input format: CSV, else the .p3cd container
  size_t points;       ///< measured size
  size_t tiny_points;  ///< --tiny size (benchmark self-test)
};

// Why each workload exists is recorded beside it in BENCHMARK.json and
// perfbench/README.md.
constexpr Workload kWorkloads[] = {
    {"csv-light", Engine::kPoolLight, true, 20000, 3000},
    {"mr-light", Engine::kMrLight, false, 200000, 4000},
    {"mr-full", Engine::kMrFull, false, 50000, 3000},
    {"stream-light", Engine::kStreamLight, false, 200000, 4000},
};

constexpr size_t kStreamBlockRows = 65536;

// Set-ups per run; setup_s is their median.
constexpr int kSetupRepeats = 5;

// Every workload clusters one fixed dataset per size, generated with
// kDataSeed (the ROADMAP baseline's seed); the benchmark's --seed only
// shuffles its row order. Seeds therefore change every input byte but
// not the multiset of points, so the work clustering takes (histograms,
// candidate signatures, EM steps) and its memory stay the same from
// seed to seed and runs over different seeds can be compared. (With
// seed-drawn points, ~1 seed in 5 counted 2.5x the candidate signatures
// and ran ~25% slower.)
constexpr uint64_t kDataSeed = 7;

/// The workload's input: `points` rows (50 dims, 5 clusters, 10% noise)
/// generated with kDataSeed, in an order shuffled by `seed`, with the
/// hidden clusters renumbered to match (labels and noise lists are left
/// empty: nothing here reads them).
Result<data::SyntheticData> Generate(size_t points, uint64_t seed) {
  data::GeneratorConfig config;
  config.num_points = points;
  config.num_dims = 50;
  config.num_clusters = 5;
  config.noise_fraction = 0.10;
  config.seed = kDataSeed;
  Result<data::SyntheticData> generated = data::GenerateSynthetic(config);
  if (!generated.ok()) return generated.status();

  // order[i] is the generated row written as row i.
  std::vector<data::PointId> order(points);
  std::iota(order.begin(), order.end(), data::PointId{0});
  std::mt19937_64 rng(seed);
  for (size_t i = 0; i + 1 < points; ++i) {
    std::uniform_int_distribution<size_t> pick(i, points - 1);
    std::swap(order[i], order[pick(rng)]);
  }

  data::SyntheticData out;
  out.dataset = data::Dataset(points, config.num_dims);
  std::vector<data::PointId> new_id(points);
  for (size_t i = 0; i < points; ++i) {
    new_id[order[i]] = static_cast<data::PointId>(i);
    const auto row = generated->dataset.Row(order[i]);
    for (size_t j = 0; j < config.num_dims; ++j) {
      out.dataset.Set(static_cast<data::PointId>(i), j, row[j]);
    }
  }
  out.clusters = std::move(generated->clusters);
  for (data::HiddenCluster& c : out.clusters) {
    for (data::PointId& p : c.points) p = new_id[p];
    std::sort(c.points.begin(), c.points.end());
  }
  return out;
}

// ---- Small utilities ---------------------------------------------------------

size_t CoresAvailable() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    return static_cast<size_t>(CPU_COUNT(&set));
  }
  return std::max<size_t>(1, std::thread::hardware_concurrency());
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t m = v.size() / 2;
  return v.size() % 2 == 1 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

double Max(const std::vector<double>& v) {
  return v.empty() ? 0.0 : *std::max_element(v.begin(), v.end());
}

template <typename Fn>
auto Timed(double* seconds, Fn&& fn) {
  Stopwatch watch;
  auto result = fn();
  *seconds += watch.ElapsedSeconds();
  return result;
}

Result<std::string> ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IOError("cannot open " + path);
  std::ostringstream bytes;
  bytes << in.rdbuf();
  return bytes.str();
}

uint64_t FileSize(const std::string& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  return in ? static_cast<uint64_t>(in.tellg()) : 0;
}

std::string JsonNumber(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

class Args {
 public:
  Args(int argc, char** argv) {
    for (int i = 2; i < argc; ++i) {
      std::string key = argv[i];
      if (key.rfind("--", 0) != 0) continue;
      key = key.substr(2);
      if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
        values_[key] = argv[++i];
      } else {
        values_[key] = "1";
      }
    }
  }
  std::string Get(const std::string& key, const std::string& fallback) const {
    auto it = values_.find(key);
    return it == values_.end() ? fallback : it->second;
  }
  bool Has(const std::string& key) const { return values_.count(key) > 0; }

 private:
  std::map<std::string, std::string> values_;
};

/// One named metric with its unit, in emission order.
struct Metrics {
  std::vector<std::pair<std::string, std::pair<double, std::string>>> rows;
  void Add(const std::string& name, double value, const std::string& unit) {
    rows.push_back({name, {value, unit}});
  }
  std::string ToJson() const {
    std::string out = "{";
    for (size_t i = 0; i < rows.size(); ++i) {
      out += (i == 0 ? "\"" : ", \"") + rows[i].first + "\": {\"value\": " +
             JsonNumber(rows[i].second.first) + ", \"unit\": \"" +
             rows[i].second.second + "\"}";
    }
    return out + "}";
  }
};

// ---- Files of one workload directory ---------------------------------------

struct Paths {
  std::string input, truth, assignments, clusters;
  Paths(const std::string& dir, const Workload& w)
      : input(dir + (w.csv ? "/input.csv" : "/input.p3cd")),
        truth(dir + "/truth.txt"),
        assignments(dir + "/assignments.csv"),
        clusters(dir + "/clusters.txt") {}
};

// ---- setup -------------------------------------------------------------------

int CmdSetup(const Workload& w, const Args& args) {
  const uint64_t seed = std::strtoull(args.Get("seed", "1").c_str(), nullptr, 10);
  const size_t points = args.Has("tiny") ? w.tiny_points : w.points;
  const Paths paths(args.Get("dir", "."), w);

  std::vector<double> setup_s, write_input_s;
  for (int r = 0; r < kSetupRepeats; ++r) {
    double gen = 0.0, write = 0.0;
    Result<data::SyntheticData> data = Timed(
        &gen, [&] { return Generate(points, seed); });
    if (!data.ok()) {
      std::fprintf(stderr, "generate: %s\n", data.status().ToString().c_str());
      return 1;
    }
    const Status st = Timed(&write, [&] {
      return w.csv ? data::WriteCsv(data->dataset, paths.input)
                   : data::WriteBinary(data->dataset, paths.input);
    });
    if (!st.ok()) {
      std::fprintf(stderr, "write input: %s\n", st.ToString().c_str());
      return 1;
    }
    // Ground truth for E4SC; not part of what a user pays to set up.
    const Status truth = eval::WriteClusteringFile(
        eval::FromGroundTruth(data->clusters), paths.truth);
    if (!truth.ok()) {
      std::fprintf(stderr, "write truth: %s\n", truth.ToString().c_str());
      return 1;
    }
    write_input_s.push_back(write);
    setup_s.push_back(gen + write);
  }
  std::printf(
      "{\"setup_s\": %s, \"write_input_s\": %s, \"points\": %zu, "
      "\"input_bytes\": %llu}\n",
      JsonNumber(Median(setup_s)).c_str(),
      JsonNumber(Median(write_input_s)).c_str(), points,
      static_cast<unsigned long long>(FileSize(paths.input)));
  return 0;
}

// ---- One operation -----------------------------------------------------------

/// What the harness measured around one operation. The three layer
/// times partition `wall_s` up to an unattributed remainder.
struct OpOutcome {
  double wall_s = 0.0;
  double read_s = 0.0;
  double cluster_s = 0.0;
  double write_s = 0.0;
  core::CoreDetectionStats stats;
  size_t stream_passes = 0;
  uint64_t points = 0;
  eval::Clustering found;  ///< pool / MR engines only
  std::vector<core::StreamingCluster> stream_clusters;
  std::vector<mr::JobMetrics> jobs;
  double tracked_peak_bytes = 0.0;
};

/// The pipelines, constructed once per run (part of setup).
struct Pipelines {
  std::unique_ptr<core::P3CPipeline> pool;
  std::unique_ptr<mr::P3CMR> mr;
  std::unique_ptr<core::StreamingLightPipeline> stream;
};

Pipelines Construct(const Workload& w, size_t threads) {
  Pipelines p;
  switch (w.engine) {
    case Engine::kPoolLight:
      p.pool = std::make_unique<core::P3CPipeline>(core::LightParams(), threads);
      break;
    case Engine::kMrLight:
    case Engine::kMrFull: {
      // Same options as `p3c_cli cluster --algo mr|mr-light`.
      mr::P3CMROptions options;
      options.params.light = w.engine == Engine::kMrLight;
      options.runner.num_threads = threads;
      p.mr = std::make_unique<mr::P3CMR>(options);
      break;
    }
    case Engine::kStreamLight:
      p.stream = std::make_unique<core::StreamingLightPipeline>(
          core::StreamingLightParams(), kStreamBlockRows);
      break;
  }
  return p;
}

/// `p3c_cli cluster --out`: one label per line, the first cluster that
/// contains the point, -1 for none.
Status WriteAssignments(const core::ClusteringResult& result, size_t n,
                        const std::string& path) {
  std::vector<int> assignment(n, -1);
  for (size_t c = 0; c < result.clusters.size(); ++c) {
    for (data::PointId p : result.clusters[c].points) {
      if (assignment[p] == -1) assignment[p] = static_cast<int>(c);
    }
  }
  AtomicFileWriter writer(path);
  P3C_RETURN_NOT_OK(writer.Open());
  for (int label : assignment) std::fprintf(writer.stream(), "%d\n", label);
  return writer.Commit();
}

Result<OpOutcome> RunOp(const Workload& w, Pipelines& p, const Paths& paths) {
  OpOutcome o;
  Stopwatch wall;
  if (w.engine == Engine::kStreamLight) {
    // Reading is interleaved with clustering over the file's passes and
    // the assignment file is written by the pipeline's last pass, so
    // the whole call is one layer seen from outside.
    Result<core::StreamingLightResult> r = Timed(&o.cluster_s, [&] {
      return p.stream->ClusterAndAssign(paths.input, paths.assignments);
    });
    o.wall_s = wall.ElapsedSeconds();
    if (!r.ok()) return r.status();
    o.stats = r->core_stats;
    o.stream_passes = r->passes;
    o.points = r->num_points;
    o.stream_clusters = std::move(r->clusters);
    return o;
  }

  Result<data::Dataset> dataset = Timed(&o.read_s, [&] {
    return w.csv ? data::ReadCsv(paths.input) : data::ReadBinary(paths.input);
  });
  if (!dataset.ok()) return dataset.status();
  Result<core::ClusteringResult> result = Timed(&o.cluster_s, [&] {
    return p.pool ? p.pool->Cluster(*dataset) : p.mr->Cluster(*dataset);
  });
  if (!result.ok()) return result.status();
  const Status written = Timed(&o.write_s, [&] {
    P3C_RETURN_NOT_OK(
        WriteAssignments(*result, dataset->num_points(), paths.assignments));
    o.found = result->ToEvalClustering();
    return eval::WriteClusteringFile(o.found, paths.clusters);
  });
  o.wall_s = wall.ElapsedSeconds();
  if (!written.ok()) return written;
  o.stats = result->core_stats;
  o.points = dataset->num_points();
  if (p.mr) o.jobs = p.mr->metrics().jobs();
  return o;
}

/// Digest of everything the operation wrote (plus, for the stream
/// engine, its reported signatures and supports).
Result<uint64_t> OutputDigest(const Workload& w, const Paths& paths,
                              const OpOutcome& o) {
  Result<std::string> assignments = ReadFile(paths.assignments);
  if (!assignments.ok()) return assignments.status();
  uint64_t h = data::Fnv1a64(assignments->data(), assignments->size());
  std::string rest;
  if (w.engine == Engine::kStreamLight) {
    for (const auto& c : o.stream_clusters) {
      rest += c.core.ToString() + " support=" + std::to_string(c.support) +
              " unique=" + std::to_string(c.unique_members) + " attrs=";
      for (size_t a : c.attrs) rest += std::to_string(a) + ",";
      for (const auto& iv : c.intervals) rest += " " + iv.ToString();
      rest += "\n";
    }
  } else {
    Result<std::string> clusters = ReadFile(paths.clusters);
    if (!clusters.ok()) return clusters.status();
    rest = *clusters;
  }
  return data::Fnv1a64(rest.data(), rest.size(), h);
}

/// Found clustering of a stream run, rebuilt from its assignment file
/// ("point,cluster"; only points matching exactly one core carry a
/// cluster id) with each cluster's final relevant attributes.
Result<eval::Clustering> StreamFound(const Paths& paths,
                                     const OpOutcome& o) {
  eval::Clustering found(o.stream_clusters.size());
  for (size_t c = 0; c < found.size(); ++c) {
    found[c].attrs = o.stream_clusters[c].attrs;
  }
  std::ifstream in(paths.assignments);
  std::string line;
  if (!std::getline(in, line)) {
    return Status::IOError("empty assignment file " + paths.assignments);
  }
  while (std::getline(in, line)) {
    unsigned long long point = 0;
    int cluster = 0;
    if (std::sscanf(line.c_str(), "%llu,%d", &point, &cluster) != 2) {
      return Status::IOError("bad assignment line '" + line + "'");
    }
    if (cluster >= 0 && static_cast<size_t>(cluster) < found.size()) {
      found[static_cast<size_t>(cluster)].points.push_back(
          static_cast<data::PointId>(point));
    }
  }
  for (auto& c : found) c.Normalize();
  return found;
}

/// The check streaming.h documents: the out-of-core pipeline reports
/// the same cores, supports, attributes and intervals as the in-memory
/// pipeline with the same parameters on the same file.
Status CheckStreamMatchesInMemory(const Paths& paths, const OpOutcome& o,
                                  size_t threads) {
  Result<data::Dataset> dataset = data::ReadBinary(paths.input);
  if (!dataset.ok()) return dataset.status();
  core::P3CPipeline in_memory{core::StreamingLightParams(), threads};
  Result<core::ClusteringResult> mem = in_memory.Cluster(*dataset);
  if (!mem.ok()) return mem.status();
  if (mem->clusters.size() != o.stream_clusters.size()) {
    return Status::Internal("stream found " +
                            std::to_string(o.stream_clusters.size()) +
                            " clusters, in-memory light " +
                            std::to_string(mem->clusters.size()));
  }
  for (size_t c = 0; c < mem->clusters.size(); ++c) {
    const core::StreamingCluster& s = o.stream_clusters[c];
    const core::ProjectedCluster& m = mem->clusters[c];
    bool same = s.core == mem->cores[c].signature &&
                s.support == mem->cores[c].support &&
                s.support == m.points.size() && s.attrs == m.attrs &&
                s.intervals.size() == m.intervals.size();
    for (size_t j = 0; same && j < s.intervals.size(); ++j) {
      same = s.intervals[j].lower == m.intervals[j].lower &&
             s.intervals[j].upper == m.intervals[j].upper;
    }
    if (!same) {
      return Status::Internal("stream cluster " + std::to_string(c) +
                              " differs from in-memory light");
    }
  }
  return Status::OK();
}

/// Median seconds of a no-op ForEachBlock pass over the input file: the
/// floor each of the stream pipeline's passes pays for reading and
/// checksumming.
Result<double> StreamPassSeconds(const Paths& paths) {
  Result<core::BinaryDatasetReader> reader =
      core::BinaryDatasetReader::Open(paths.input);
  if (!reader.ok()) return reader.status();
  std::vector<double> passes;
  for (int i = 0; i < 3; ++i) {
    double s = 0.0;
    const Status st = Timed(&s, [&] {
      return reader->ForEachBlock(
          kStreamBlockRows,
          [](data::PointId, const data::Dataset&) { return Status::OK(); });
    });
    if (!st.ok()) return st;
    passes.push_back(s);
  }
  return Median(passes);
}

// ---- Trace attribution -------------------------------------------------------

/// Seconds per `phase:<name>` span in a Tracer::ToJson() export (one
/// event object per line; B/E pairs nest per lane).
std::map<std::string, double> PhaseSeconds(const std::string& json) {
  std::map<std::string, double> out;
  std::map<unsigned long, std::vector<std::pair<std::string, double>>> open;
  std::istringstream in(json);
  std::string line;
  const auto field = [&](const char* key) -> std::string {
    const size_t at = line.find(key);
    if (at == std::string::npos) return "";
    const size_t begin = at + std::string(key).size();
    size_t end = begin;
    while (end < line.size() && line[end] != '"' && line[end] != ',' &&
           line[end] != '}') {
      ++end;
    }
    return line.substr(begin, end - begin);
  };
  while (std::getline(in, line)) {
    const std::string ph = field("\"ph\": \"");
    if (ph != "B" && ph != "E") continue;
    const unsigned long tid = std::strtoul(field("\"tid\": ").c_str(), nullptr, 10);
    const double ts = std::strtod(field("\"ts\": ").c_str(), nullptr) * 1e-6;
    auto& stack = open[tid];
    if (ph == "B") {
      stack.push_back({field("\"name\": \""), ts});
    } else if (!stack.empty()) {
      const auto [name, begin] = stack.back();
      stack.pop_back();
      if (name.rfind("phase:", 0) == 0) out[name.substr(6)] += ts - begin;
    }
  }
  return out;
}

/// Per-layer numbers of one traced operation, by metric name.
using LayerSample = std::map<std::string, double>;

// Every per-layer metric, with its unit, in emission order. Layers a
// workload does not run report 0.
const std::vector<std::pair<std::string, std::string>>& LayerMetricNames() {
  static const std::vector<std::pair<std::string, std::string>> names = {
      {"data.read_s", "s"},
      {"data.read_mb_per_s", "MB/s"},
      {"data.stream_pass_s", "s"},
      {"data.write_s", "s"},
      {"core.cluster_s", "s"},
      {"core.stream_passes", "count"},
      {"core.signatures_counted", "count"},
      {"core.support_batches", "count"},
      {"core.proven_ratio", "ratio"},
      {"mr.cluster_s", "s"},
      {"mr.driver_s", "s"},
      {"mr.jobs", "count"},
      {"mr.em_steps", "count"},
      {"mr.phase.histogram_s", "s"},
      {"mr.phase.support-count_s", "s"},
      {"mr.phase.support-sets_s", "s"},
      {"mr.phase.em-init_s", "s"},
      {"mr.phase.em-step_s", "s"},
      {"mr.phase.mvb_s", "s"},
      {"mr.phase.outlier-detection_s", "s"},
      {"mr.phase.cluster-histograms_s", "s"},
      {"mr.phase.interval-tightening_s", "s"},
      {"mapreduce.map_s", "s"},
      {"mapreduce.shuffle_s", "s"},
      {"mapreduce.reduce_s", "s"},
      {"mapreduce.job_overhead_s", "s"},
      {"mapreduce.shuffle_bytes", "bytes"},
      {"mapreduce.input_records", "count"},
      {"mapreduce.task_attempts", "count"},
      {"mapreduce.task_failures", "count"},
      {"mapreduce.partition_skew_max", "ratio"},
      {"mem.tracked_peak_mib", "MiB"},
      {"op.run_s_traced", "s"},
      {"op.unattributed_s", "s"},
      {"trace.overhead_s", "s"},
  };
  return names;
}

LayerSample Attribute(const Workload& w, const OpOutcome& o,
                      const std::string& trace_json, uint64_t input_bytes) {
  LayerSample v;
  v["data.read_s"] = o.read_s;
  v["data.read_mb_per_s"] =
      o.read_s > 0.0 ? static_cast<double>(input_bytes) / 1e6 / o.read_s : 0.0;
  v["data.write_s"] = o.write_s;
  v["core.cluster_s"] = o.cluster_s;
  v["core.stream_passes"] = static_cast<double>(o.stream_passes);
  v["core.signatures_counted"] =
      static_cast<double>(o.stats.num_signatures_counted);
  v["core.support_batches"] = static_cast<double>(o.stats.num_support_batches);
  v["core.proven_ratio"] =
      o.stats.num_signatures_counted > 0
          ? static_cast<double>(o.stats.num_proven) /
                static_cast<double>(o.stats.num_signatures_counted)
          : 0.0;
  v["mem.tracked_peak_mib"] = o.tracked_peak_bytes / (1024.0 * 1024.0);
  v["op.run_s_traced"] = o.wall_s;
  v["op.unattributed_s"] = o.wall_s - o.read_s - o.cluster_s - o.write_s;
  if (w.engine == Engine::kMrLight || w.engine == Engine::kMrFull) {
    double jobs_total = 0.0, map = 0.0, shuffle = 0.0, reduce = 0.0;
    double skew = 0.0, shuffle_bytes = 0.0, records = 0.0, attempts = 0.0,
           failures = 0.0, em_steps = 0.0;
    for (const mr::JobMetrics& j : o.jobs) {
      jobs_total += j.total_seconds;
      map += j.map_seconds;
      shuffle += j.shuffle_seconds;
      reduce += j.reduce_seconds;
      skew = std::max(skew, j.partition_skew);
      shuffle_bytes += static_cast<double>(j.shuffle_bytes);
      records += static_cast<double>(j.input_records);
      attempts += static_cast<double>(j.task_attempts);
      failures += static_cast<double>(j.task_failures);
      if (j.job_name == "em-step-means") em_steps += 1.0;
    }
    v["mr.cluster_s"] = o.cluster_s;
    v["mr.driver_s"] = o.cluster_s - jobs_total;
    v["mr.jobs"] = static_cast<double>(o.jobs.size());
    v["mr.em_steps"] = em_steps;
    for (const auto& [phase, seconds] : PhaseSeconds(trace_json)) {
      v["mr.phase." + phase + "_s"] = seconds;
    }
    v["mapreduce.map_s"] = map;
    v["mapreduce.shuffle_s"] = shuffle;
    v["mapreduce.reduce_s"] = reduce;
    v["mapreduce.job_overhead_s"] = jobs_total - map - shuffle - reduce;
    v["mapreduce.shuffle_bytes"] = shuffle_bytes;
    v["mapreduce.input_records"] = records;
    v["mapreduce.task_attempts"] = attempts;
    v["mapreduce.task_failures"] = failures;
    v["mapreduce.partition_skew_max"] = skew;
  }
  return v;
}

// ---- run ---------------------------------------------------------------------

void PrintProvenance(const Workload& w, size_t threads) {
  const size_t cores = CoresAvailable();
  std::printf(
      "provenance {\"nproc\": %zu, \"compiler\": \"%s\", \"cxx_flags\": "
      "\"%s\", \"build_type\": \"%s\", \"kernel_backend\": \"%s\", "
      "\"workload\": \"%s\", \"threads\": %zu, \"cell\": \"%s\"}\n",
      cores, P3C_BENCH_COMPILER, P3C_BENCH_CXX_FLAGS, P3C_BENCH_BUILD_TYPE,
      core::kernels::Active().name, w.name, threads,
      threads <= cores ? "comparable" : "unresolved: threads exceed cores");
}

int CmdRun(const Workload& w, const Args& args) {
  const double seconds = std::strtod(args.Get("seconds", "10").c_str(), nullptr);
  const bool trace = args.Get("trace", "0") == "1";
  const bool tamper = args.Has("tamper");
  const Paths paths(args.Get("dir", "."), w);
  const size_t threads =
      w.engine == Engine::kStreamLight ? 1 : CoresAvailable();
  const uint64_t input_bytes = FileSize(paths.input);
  PrintProvenance(w, threads);

  double construct_s = 0.0;
  Pipelines pipelines =
      Timed(&construct_s, [&] { return Construct(w, threads); });

  size_t attempted = 0, failed = 0;
  const auto op_failed = [&](const std::string& what) {
    ++failed;
    std::fprintf(stderr, "%s: op %zu failed: %s\n", w.name, attempted,
                 what.c_str());
  };

  // Warm-up op: untimed; its outputs are the reference every timed op
  // must reproduce byte for byte.
  ++attempted;
  Result<OpOutcome> reference = RunOp(w, pipelines, paths);
  if (!reference.ok()) {
    std::fprintf(stderr, "%s: warm-up op failed: %s\n", w.name,
                 reference.status().ToString().c_str());
    return 1;
  }
  Result<uint64_t> reference_digest = OutputDigest(w, paths, *reference);
  if (!reference_digest.ok()) {
    std::fprintf(stderr, "%s\n", reference_digest.status().ToString().c_str());
    return 1;
  }

  // Timed ops, closed loop: the next starts when the previous ends.
  // `traced` ops run with the Tracer and the MemoryTracker enabled and
  // contribute only to the per-layer numbers.
  std::vector<double> untraced_s;
  std::vector<LayerSample> layers;
  const auto measure = [&](double budget_s, bool traced) {
    Stopwatch phase;
    size_t ops = 0;
    while (ops < 3 || phase.ElapsedSeconds() < budget_s) {
      ++attempted;
      ++ops;
      if (traced) {
        Tracer::Global().Clear();
        Tracer::Global().Enable(true);
        resource::MemoryTracker::Global().ResetRun();
        resource::MemoryTracker::Global().Enable(true);
      }
      Result<OpOutcome> op = RunOp(w, pipelines, paths);
      std::string trace_json;
      if (traced) {
        Tracer::Global().Enable(false);
        resource::MemoryTracker::Global().Enable(false);
        trace_json = Tracer::Global().ToJson();
        Tracer::Global().Clear();
        if (op.ok()) {
          op->tracked_peak_bytes = static_cast<double>(
              resource::MemoryTracker::Global().TotalPeakBytes());
        }
      }
      if (!op.ok()) {
        op_failed(op.status().ToString());
        continue;
      }
      if (tamper && attempted == 2) {
        // Self-test hook: corrupt the first timed op's output so the
        // digest check below must catch it.
        std::FILE* f = std::fopen(paths.assignments.c_str(), "r+b");
        if (f != nullptr) {
          const int c = std::fgetc(f);
          std::fseek(f, 0, SEEK_SET);
          std::fputc(c == '0' ? '1' : '0', f);
          std::fclose(f);
        }
      }
      Result<uint64_t> digest = OutputDigest(w, paths, *op);
      if (!digest.ok() || *digest != *reference_digest) {
        op_failed(digest.ok() ? "output differs from the first op"
                              : digest.status().ToString());
        continue;
      }
      if (traced) {
        layers.push_back(Attribute(w, *op, trace_json, input_bytes));
      } else {
        untraced_s.push_back(op->wall_s);
      }
    }
  };
  if (trace) {
    measure(seconds / 2, /*traced=*/false);
    measure(seconds / 2, /*traced=*/true);
  } else {
    measure(seconds, /*traced=*/false);
  }

  // Peak RSS of the operations alone: sampled before the checks below,
  // the stream one of which loads the whole dataset into memory.
  const std::optional<resource::RssSample> rss =
      resource::MemoryTracker::SampleRss();

  // Once per run: stream-light agrees with in-memory light. Untimed,
  // so the in-memory side uses every core.
  if (w.engine == Engine::kStreamLight) {
    ++attempted;
    const Status st =
        CheckStreamMatchesInMemory(paths, *reference, CoresAvailable());
    if (!st.ok()) op_failed(st.ToString());
  }

  double e4sc = 0.0;
  {
    Result<eval::Clustering> truth = eval::ReadClusteringFile(paths.truth);
    Result<eval::Clustering> found =
        w.engine == Engine::kStreamLight ? StreamFound(paths, *reference)
                                         : Result<eval::Clustering>(
                                               reference->found);
    if (!truth.ok() || !found.ok()) {
      std::fprintf(stderr, "e4sc: cannot read clusterings\n");
      return 1;
    }
    e4sc = eval::E4SC(*truth, *found);
  }

  const double run_s_p50 = Median(untraced_s);
  const double points = static_cast<double>(reference->points);
  Metrics m;
  if (!trace) {
    m.Add("run_s_p50", run_s_p50, "s");
    m.Add("run_s_max", Max(untraced_s), "s");
    m.Add("points_per_s", run_s_p50 > 0.0 ? points / run_s_p50 : 0.0,
          "points/s");
    m.Add("peak_rss_mib",
          rss ? static_cast<double>(rss->vm_hwm_bytes) / (1024.0 * 1024.0)
              : 0.0,
          "MiB");
    m.Add("e4sc", e4sc, "score");
  } else {
    std::map<std::string, std::vector<double>> samples;
    for (const LayerSample& s : layers) {
      for (const auto& [name, value] : s) samples[name].push_back(value);
    }
    for (const auto& [name, unit] : LayerMetricNames()) {
      double value = Median(samples[name]);
      if (name == "trace.overhead_s") {
        value = Median(samples["op.run_s_traced"]) - run_s_p50;
      } else if (name == "data.stream_pass_s" &&
                 w.engine == Engine::kStreamLight) {
        ++attempted;
        Result<double> pass = StreamPassSeconds(paths);
        if (pass.ok()) {
          value = *pass;
        } else {
          op_failed(pass.status().ToString());
        }
      }
      m.Add(name, value, unit);
    }
  }
  std::printf(
      "{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
      "\"ops_timed\": %zu, \"construct_s\": %s, \"metrics\": %s}\n",
      failed == 0 ? "true" : "false", attempted, failed, untraced_s.size(),
      JsonNumber(construct_s).c_str(), m.ToJson().c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr, "usage: perfbench_harness setup|run --workload W ...\n");
    return 2;
  }
  const std::string command = argv[1];
  const Args args(argc, argv);
  const std::string name = args.Get("workload", "");
  const Workload* workload = nullptr;
  for (const Workload& w : kWorkloads) {
    if (name == w.name) workload = &w;
  }
  if (workload == nullptr) {
    std::fprintf(stderr, "unknown --workload '%s'\n", name.c_str());
    return 2;
  }
  if (command == "setup") return CmdSetup(*workload, args);
  if (command == "run") return CmdRun(*workload, args);
  std::fprintf(stderr, "unknown command '%s'\n", command.c_str());
  return 2;
}
