// Kernel-backend microbenchmark: every backend AvailableBackends()
// reports, timed against the scalar reference on the four ported hot
// loops — RSSC support counting, histogram binning, and the GMM E-step
// softmax and triangular solves — with the outputs verified bit-identical in-bench (a speedup
// that changes results is a bug, not a win). Each (kernel, size,
// backend) cell reports the min over bench::Repeats() runs.
//
//   bench_kernels [--json BENCH_kernels.json]
//
// JSON is {"machine": {...}, "rows": [...]}; a row carries the backend's
// seconds, the scalar seconds on the identical workload, the speedup,
// and outputs_identical. tools/check_bench_regression.py gates the
// committed numbers: the fastest non-scalar backend must hold a >= 2x
// speedup on rssc_support at >= 256 signatures.

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/common/atomic_file.h"
#include "src/common/random.h"
#include "src/common/resource.h"
#include "src/common/stopwatch.h"
#include "src/core/kernels/kernels.h"

namespace {

using p3c::Rng;
using p3c::Stopwatch;
using p3c::core::kernels::AvailableBackends;
using p3c::core::kernels::Ops;

struct Row {
  std::string kernel;
  size_t size = 0;
  std::string backend;
  double seconds = 0.0;
  double scalar_seconds = 0.0;
  double speedup = 0.0;
  int64_t peak_bytes = 0;
  bool outputs_identical = false;
};

/// Charges a cell's working buffers to the bench scope and reads back
/// the window peak — the cell's peak_bytes column. The buffers are the
/// only tracked bytes in this binary, so window peak == working set.
class CellMemory {
 public:
  explicit CellMemory(const char* kernel)
      : charge_(p3c::resource::MemScope::kBench) {
    p3c::resource::MemoryTracker::Global().BeginPhase(kernel);
  }
  void Charge(int64_t bytes) { charge_.Set(charge_.bytes() + bytes); }
  int64_t Finish() {
    charge_.Set(0);
    return p3c::resource::MemoryTracker::Global().EndPhase();
  }

 private:
  p3c::resource::ScopedBytes charge_;
};

/// Times `fn` Repeats() times, returns the minimum (noise only inflates).
template <typename Fn>
double MinSeconds(const Fn& fn) {
  double best = 0.0;
  const size_t repeats = p3c::bench::Repeats();
  for (size_t rep = 0; rep < repeats; ++rep) {
    Stopwatch watch;
    fn();
    const double s = watch.ElapsedSeconds();
    if (rep == 0 || s < best) best = s;
  }
  return best;
}

// ---- RSSC support counting --------------------------------------------------
//
// The Accumulate inner loop: per matched point, counters[j] += bit j of
// the containment bitmap. Bitmaps here are dense (~75% of bits set), the
// regime of early candidate generation where most 1-signatures contain
// most points and where support counting dominates the profile.

Row BenchRsscSupport(const Ops& ops, size_t num_signatures) {
  const size_t num_words = num_signatures / 64;
  const size_t num_bitmaps = 512;
  // Total bit-lanes processed is held constant across sizes so every
  // cell runs a comparable amount of wall time.
  const size_t iterations = size_t{2} * 1024 * 1024 / num_words;

  Rng rng(num_signatures);
  std::vector<uint64_t> bitmaps(num_bitmaps * num_words);
  for (auto& w : bitmaps) w = rng.Next() | rng.Next();  // ~75% density

  auto run = [&](const Ops& backend, std::vector<uint64_t>& counters) {
    return MinSeconds([&] {
      std::fill(counters.begin(), counters.end(), 0);
      for (size_t i = 0; i < iterations; ++i) {
        const uint64_t* bits = bitmaps.data() + (i % num_bitmaps) * num_words;
        backend.support_accumulate(bits, num_words, counters.data());
      }
    });
  };

  std::vector<uint64_t> expected(num_signatures);
  std::vector<uint64_t> actual(num_signatures);
  CellMemory mem("rssc_support");
  mem.Charge(static_cast<int64_t>(
      (bitmaps.capacity() + expected.capacity() + actual.capacity()) *
      sizeof(uint64_t)));
  Row row{"rssc_support", num_signatures, ops.name};
  row.scalar_seconds = run(p3c::core::kernels::ScalarOps(), expected);
  row.seconds = run(ops, actual);
  row.speedup = row.seconds > 0.0 ? row.scalar_seconds / row.seconds : 0.0;
  row.peak_bytes = mem.Finish();
  row.outputs_identical = expected == actual;
  return row;
}

// ---- Histogram binning ------------------------------------------------------

Row BenchHistogram(const Ops& ops, size_t num_bins) {
  const size_t n = p3c::bench::Scaled(2000000);
  Rng rng(num_bins);
  std::vector<double> xs(n);
  for (auto& x : xs) x = rng.Uniform(-0.05, 1.05);  // includes both clamps

  auto run = [&](const Ops& backend, std::vector<uint64_t>& counts) {
    return MinSeconds([&] {
      std::fill(counts.begin(), counts.end(), 0);
      backend.histogram_bin(xs.data(), n, 1, num_bins, counts.data());
    });
  };

  std::vector<uint64_t> expected(num_bins);
  std::vector<uint64_t> actual(num_bins);
  CellMemory mem("histogram");
  mem.Charge(static_cast<int64_t>(
      xs.capacity() * sizeof(double) +
      (expected.capacity() + actual.capacity()) * sizeof(uint64_t)));
  Row row{"histogram", num_bins, ops.name};
  row.scalar_seconds = run(p3c::core::kernels::ScalarOps(), expected);
  row.seconds = run(ops, actual);
  row.speedup = row.seconds > 0.0 ? row.scalar_seconds / row.seconds : 0.0;
  row.peak_bytes = mem.Finish();
  row.outputs_identical = expected == actual;
  return row;
}

// ---- GMM E-step softmax -----------------------------------------------------

Row BenchSoftmax(const Ops& ops, size_t k) {
  const size_t n = p3c::bench::Scaled(200000);
  Rng rng(k);
  std::vector<double> logw(n * k);
  for (auto& v : logw) v = rng.Uniform(-40.0, 0.0);

  auto run = [&](const Ops& backend, std::vector<double>& out,
                 uint64_t& argmax_hash) {
    return MinSeconds([&] {
      out = logw;
      uint64_t h = 1469598103934665603ull;
      for (size_t i = 0; i < n; ++i) {
        double log_sum_exp = 0.0;
        h = h * 31 +
            backend.softmax_normalize(out.data() + i * k, k, &log_sum_exp);
        h = h * 31 + std::bit_cast<uint64_t>(log_sum_exp);
      }
      argmax_hash = h;
    });
  };

  std::vector<double> expected;
  std::vector<double> actual;
  uint64_t hash_expected = 0;
  uint64_t hash_actual = 0;
  CellMemory mem("gmm_softmax");
  Row row{"gmm_softmax", k, ops.name};
  row.scalar_seconds =
      run(p3c::core::kernels::ScalarOps(), expected, hash_expected);
  row.seconds = run(ops, actual, hash_actual);
  // Charged after the runs: expected/actual materialize inside run().
  mem.Charge(static_cast<int64_t>(
      (logw.capacity() + expected.capacity() + actual.capacity()) *
      sizeof(double)));
  row.speedup = row.seconds > 0.0 ? row.scalar_seconds / row.seconds : 0.0;
  row.peak_bytes = mem.Finish();
  row.outputs_identical =
      hash_expected == hash_actual &&
      std::memcmp(expected.data(), actual.data(),
                  expected.size() * sizeof(double)) == 0;
  return row;
}

// ---- GMM E-step triangular solves -------------------------------------------

Row BenchMahalanobis(const Ops& ops, size_t k) {
  using p3c::core::kernels::kBatchLanes;
  const size_t dim = 28;  // |Arel| of the mr-full benchmark's mixture
  const size_t n = p3c::bench::Scaled(50000);
  const size_t groups = (k + kBatchLanes - 1) / kBatchLanes;
  Rng rng(k + 101);
  // A random lower factor with a dominant diagonal per component.
  std::vector<double> factors(groups * dim * dim * kBatchLanes, 0.0);
  std::vector<double> means(groups * dim * kBatchLanes);
  for (size_t g = 0; g < groups; ++g) {
    for (size_t j = 0; j < dim; ++j) {
      for (size_t i = j; i < dim; ++i) {
        for (size_t l = 0; l < kBatchLanes; ++l) {
          factors[((g * dim + j) * dim + i) * kBatchLanes + l] =
              i == j ? 1.0 + rng.Uniform() : 0.1 * rng.Uniform(-1.0, 1.0);
        }
      }
    }
  }
  for (auto& v : means) v = rng.Uniform();
  std::vector<double> xs(n * dim);
  for (auto& v : xs) v = rng.Uniform();

  auto run = [&](const Ops& backend, std::vector<double>& out) {
    return MinSeconds([&] {
      std::vector<double> scratch(dim * kBatchLanes);
      out.assign(n * groups * kBatchLanes, 0.0);
      for (size_t i = 0; i < n; ++i) {
        backend.mahalanobis_batch(xs.data() + i * dim, means.data(),
                                  factors.data(), dim, groups, scratch.data(),
                                  out.data() + i * groups * kBatchLanes);
      }
    });
  };

  std::vector<double> expected;
  std::vector<double> actual;
  CellMemory mem("gmm_trisolve");
  Row row{"gmm_trisolve", k, ops.name};
  row.scalar_seconds = run(p3c::core::kernels::ScalarOps(), expected);
  row.seconds = run(ops, actual);
  mem.Charge(static_cast<int64_t>(
      (factors.capacity() + means.capacity() + xs.capacity() +
       expected.capacity() + actual.capacity()) *
      sizeof(double)));
  row.speedup = row.seconds > 0.0 ? row.scalar_seconds / row.seconds : 0.0;
  row.peak_bytes = mem.Finish();
  row.outputs_identical =
      std::memcmp(expected.data(), actual.data(),
                  expected.size() * sizeof(double)) == 0;
  return row;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace p3c;
  const char* json_path = nullptr;
  for (int i = 1; i < argc - 1; ++i) {
    if (std::strcmp(argv[i], "--json") == 0) json_path = argv[i + 1];
  }

  bench::Banner("Kernel backends — scalar vs vectorized, bit-exact",
                "the dispatch layer of DESIGN.md §14");

  // Working sets are charged to the bench scope so every row carries a
  // peak_bytes column (DESIGN.md §15).
  resource::MemoryTracker::Global().Enable(true);

  std::vector<Row> rows;
  std::printf("%14s %6s %8s %12s %12s %9s %5s\n", "kernel", "size", "backend",
              "seconds", "scalar(s)", "speedup", "ok");
  for (const Ops* ops : AvailableBackends()) {
    for (size_t sigs : {size_t{64}, size_t{256}, size_t{1024}}) {
      rows.push_back(BenchRsscSupport(*ops, sigs));
    }
    for (size_t bins : {size_t{64}, size_t{256}}) {
      rows.push_back(BenchHistogram(*ops, bins));
    }
    for (size_t k : {size_t{4}, size_t{16}}) {
      rows.push_back(BenchSoftmax(*ops, k));
    }
    for (size_t k : {size_t{5}, size_t{8}}) {
      rows.push_back(BenchMahalanobis(*ops, k));
    }
  }
  bool all_identical = true;
  for (const Row& r : rows) {
    std::printf("%14s %6zu %8s %12.6f %12.6f %8.2fx %5s\n", r.kernel.c_str(),
                r.size, r.backend.c_str(), r.seconds, r.scalar_seconds,
                r.speedup, r.outputs_identical ? "yes" : "NO");
    all_identical = all_identical && r.outputs_identical;
  }
  if (!all_identical) {
    std::fprintf(stderr,
                 "backend output diverged from the scalar reference\n");
    return 1;
  }

  if (json_path != nullptr) {
    AtomicFileWriter writer{std::string(json_path)};
    if (!writer.Open().ok()) {
      std::fprintf(stderr, "cannot write %s\n", json_path);
      return 1;
    }
    std::FILE* f = writer.stream();
    std::fprintf(f, "{\n\"machine\": %s,\n\"rows\": [\n",
                 bench::MachineJson().c_str());
    for (size_t i = 0; i < rows.size(); ++i) {
      const Row& r = rows[i];
      std::fprintf(f,
                   "  {\"kernel\": \"%s\", \"size\": %zu, \"backend\": "
                   "\"%s\", \"seconds\": %.6f, \"scalar_seconds\": %.6f, "
                   "\"speedup\": %.3f, \"peak_bytes\": %lld, "
                   "\"outputs_identical\": %s}%s\n",
                   r.kernel.c_str(), r.size, r.backend.c_str(), r.seconds,
                   r.scalar_seconds, r.speedup,
                   static_cast<long long>(r.peak_bytes),
                   r.outputs_identical ? "true" : "false",
                   i + 1 < rows.size() ? "," : "");
    }
    std::fprintf(f, "]\n}\n");
    if (!writer.Commit().ok()) {
      std::fprintf(stderr, "cannot write %s\n", json_path);
      return 1;
    }
    std::printf("\nwrote %zu rows to %s\n", rows.size(), json_path);
  }

  bench::Rule();
  std::printf(
      "Shape check: every backend's outputs are bit-identical to the\n"
      "scalar reference (enforced above — divergence exits non-zero);\n"
      "on an AVX2 machine the vectorized backend holds >= 2x on\n"
      "rssc_support at >= 256 signatures (gated by\n"
      "tools/check_bench_regression.py).\n");
  return 0;
}
