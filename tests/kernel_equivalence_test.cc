// Kernel-backend equivalence suite (kernel-smoke): every backend that
// AvailableBackends() reports must be *bit-exact* against the scalar
// reference on every operation of the Ops table, including the hostile
// cases — partial tail words at every width, NaN/±inf coordinates,
// signed zeros, empty attribute sets, softmax ties. This is the contract
// that makes --kernel-backend a pure performance knob: the pipeline's
// byte-identical-output guarantee relies on it (DESIGN.md §14).

#include "src/core/kernels/kernels.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "src/common/random.h"
#include "src/core/rssc.h"
#include "src/core/signature.h"
#include "src/core/support_counter.h"
#include "src/data/dataset.h"
#include "src/linalg/cholesky.h"
#include "src/linalg/matrix.h"
#include "src/stats/histogram.h"

namespace p3c::core::kernels {
namespace {

constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();

/// Bitwise equality for doubles: distinguishes -0.0 from +0.0 and treats
/// identical NaN payloads as equal — exactly the "byte-identical output"
/// standard the engine promises.
bool BitEqual(const std::vector<double>& a, const std::vector<double>& b) {
  if (a.size() != b.size()) return false;
  return a.empty() ||
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

std::vector<std::string> BackendNames() {
  std::vector<std::string> names;
  for (const Ops* ops : AvailableBackends()) names.emplace_back(ops->name);
  return names;
}

const Ops& BackendByName(const std::string& name) {
  for (const Ops* ops : AvailableBackends()) {
    if (name == ops->name) return *ops;
  }
  ADD_FAILURE() << "unknown backend " << name;
  return ScalarOps();
}

class KernelEquivalenceTest : public testing::TestWithParam<std::string> {
 protected:
  const Ops& ops() const { return BackendByName(GetParam()); }
};

INSTANTIATE_TEST_SUITE_P(AllBackends, KernelEquivalenceTest,
                         testing::ValuesIn(BackendNames()),
                         [](const auto& param_info) { return param_info.param; });

// ---- Dispatch plumbing ------------------------------------------------------

TEST(KernelDispatchTest, ScalarAlwaysAvailableAndLast) {
  const auto backends = AvailableBackends();
  ASSERT_FALSE(backends.empty());
  EXPECT_STREQ(backends.back()->name, "scalar");
  for (const Ops* ops : backends) {
    EXPECT_NE(ops->bitmap_and_reduce, nullptr);
    EXPECT_NE(ops->support_accumulate, nullptr);
    EXPECT_NE(ops->histogram_bin, nullptr);
    EXPECT_NE(ops->softmax_normalize, nullptr);
    EXPECT_NE(ops->axpy, nullptr);
    EXPECT_NE(ops->outer_accumulate, nullptr);
    EXPECT_NE(ops->mahalanobis_batch, nullptr);
  }
}

TEST(KernelDispatchTest, SetBackendSelectsAndRejects) {
  for (const Ops* ops : AvailableBackends()) {
    ASSERT_TRUE(SetBackend(ops->name).ok());
    EXPECT_STREQ(Active().name, ops->name);
  }
  const Status bad = SetBackend("vector9000");
  EXPECT_FALSE(bad.ok());
  EXPECT_NE(bad.message().find("scalar"), std::string::npos)
      << "error should list the valid choices: " << bad.message();
  ASSERT_TRUE(SetBackend("auto").ok());
}

// ---- bitmap_and_reduce ------------------------------------------------------

TEST_P(KernelEquivalenceTest, BitmapAndReduceMatchesScalar) {
  Rng rng(7);
  for (size_t num_words : {size_t{0}, size_t{1}, size_t{2}, size_t{3},
                           size_t{4}, size_t{5}, size_t{8}, size_t{11}}) {
    for (size_t num_masks : {size_t{1}, size_t{2}, size_t{3}, size_t{7},
                             size_t{16}, size_t{17}}) {
      std::vector<std::vector<uint64_t>> mask_storage(num_masks);
      std::vector<const uint64_t*> masks(num_masks);
      for (size_t m = 0; m < num_masks; ++m) {
        mask_storage[m].resize(num_words);
        for (auto& w : mask_storage[m]) w = rng.Next();
        masks[m] = mask_storage[m].data();
      }
      std::vector<uint64_t> init(num_words);
      for (auto& w : init) w = rng.Next();

      std::vector<uint64_t> expected = init;
      ScalarOps().bitmap_and_reduce(expected.data(), masks.data(), num_masks,
                                    num_words);
      std::vector<uint64_t> actual = init;
      ops().bitmap_and_reduce(actual.data(), masks.data(), num_masks,
                              num_words);
      EXPECT_EQ(actual, expected)
          << "words=" << num_words << " masks=" << num_masks;
    }
  }
}

// ---- support_accumulate -----------------------------------------------------

TEST_P(KernelEquivalenceTest, SupportAccumulateMatchesScalar) {
  Rng rng(11);
  for (size_t num_words : {size_t{0}, size_t{1}, size_t{2}, size_t{3},
                           size_t{4}, size_t{9}}) {
    // Mix sparse words (hybrid backends take the per-set-bit path),
    // dense words (branchless path), and the all-zero / all-one edges.
    for (int round = 0; round < 12; ++round) {
      std::vector<uint64_t> bits(num_words);
      for (auto& w : bits) {
        switch (rng.UniformInt(4)) {
          case 0: w = 0; break;
          case 1: w = ~uint64_t{0}; break;
          case 2: w = rng.Next() & rng.Next() & rng.Next(); break;  // sparse
          default: w = rng.Next(); break;                           // dense
        }
      }
      std::vector<uint64_t> expected(num_words * 64);
      for (auto& c : expected) c = rng.UniformInt(1000);
      std::vector<uint64_t> actual = expected;

      ScalarOps().support_accumulate(bits.data(), num_words, expected.data());
      ops().support_accumulate(bits.data(), num_words, actual.data());
      EXPECT_EQ(actual, expected) << "words=" << num_words;
    }
  }
}

// ---- histogram_bin ----------------------------------------------------------

/// The hostile-coordinate zoo: every value class Eq. 8 binning must
/// handle without UB.
std::vector<double> HostileValues() {
  return {kNan,    -kInf,    kInf,  -0.0,  0.0,     1.0,
          1.5,     -0.25,    0.5,   1e-12, 1.0 - 1e-16,
          5e-324 /* min subnormal */, 0.999999, 2.0, 1e300};
}

TEST_P(KernelEquivalenceTest, HistogramBinMatchesScalarOnHostileValues) {
  for (size_t num_bins : {size_t{1}, size_t{2}, size_t{7}, size_t{64}}) {
    const std::vector<double> xs = HostileValues();
    std::vector<uint64_t> expected(num_bins, 0);
    std::vector<uint64_t> actual(num_bins, 0);
    ScalarOps().histogram_bin(xs.data(), xs.size(), 1, num_bins,
                              expected.data());
    ops().histogram_bin(xs.data(), xs.size(), 1, num_bins, actual.data());
    EXPECT_EQ(actual, expected) << "bins=" << num_bins;

    // The scalar kernel, in turn, must agree with stats::BinIndex — the
    // pin that keeps Histogram::Add and Histogram::AddStrided identical.
    std::vector<uint64_t> per_element(num_bins, 0);
    for (double x : xs) ++per_element[stats::BinIndex(x, num_bins)];
    EXPECT_EQ(expected, per_element) << "bins=" << num_bins;
  }
}

TEST_P(KernelEquivalenceTest, HistogramBinStridedAndRandom) {
  Rng rng(13);
  const size_t stride = 5;
  const size_t n = 997;  // prime: exercises every vector tail length
  std::vector<double> xs(n * stride, -7.0);  // off-lane poison
  for (size_t i = 0; i < n; ++i) xs[i * stride] = rng.Uniform(-0.2, 1.2);
  for (size_t num_bins : {size_t{1}, size_t{3}, size_t{17}, size_t{256}}) {
    std::vector<uint64_t> expected(num_bins, 0);
    std::vector<uint64_t> actual(num_bins, 0);
    ScalarOps().histogram_bin(xs.data(), n, stride, num_bins, expected.data());
    ops().histogram_bin(xs.data(), n, stride, num_bins, actual.data());
    EXPECT_EQ(actual, expected) << "bins=" << num_bins;
    uint64_t total = 0;
    for (uint64_t c : actual) total += c;
    EXPECT_EQ(total, n);
  }
}

// ---- softmax_normalize ------------------------------------------------------

TEST_P(KernelEquivalenceTest, SoftmaxMatchesScalarBitwise) {
  Rng rng(17);
  std::vector<std::vector<double>> cases = {
      {},                                  // k = 0
      {-3.5},                              // k = 1
      {-1.0, -1.0, -1.0},                  // exact tie -> first index
      {-kInf, -kInf},                      // all -inf (degenerate sum)
      {-kInf, -2.0, -kInf, -2.0},          // tie away from index 0
      {0.0, -0.0},                         // signed-zero tie
      {-700.0, -1.0, -700.0},              // underflow after shift
      {-2.0, -kInf, -1.0, -1.5},
  };
  for (size_t k : {size_t{2}, size_t{3}, size_t{4}, size_t{5}, size_t{7},
                   size_t{8}, size_t{9}, size_t{33}}) {
    std::vector<double> v(k);
    for (auto& x : v) x = rng.Uniform(-50.0, 0.0);
    cases.push_back(v);
  }
  for (const auto& logw : cases) {
    std::vector<double> expected = logw;
    std::vector<double> actual = logw;
    double lse_expected = 0.0;
    double lse_actual = 0.0;
    const size_t argmax_expected = ScalarOps().softmax_normalize(
        expected.data(), expected.size(), &lse_expected);
    const size_t argmax_actual =
        ops().softmax_normalize(actual.data(), actual.size(), &lse_actual);
    EXPECT_EQ(argmax_actual, argmax_expected) << "k=" << logw.size();
    EXPECT_TRUE(BitEqual(actual, expected)) << "k=" << logw.size();
    EXPECT_TRUE(BitEqual({lse_actual}, {lse_expected})) << "k=" << logw.size();
    // The log-sum-exp output is the two-pass reference max + log(sum of
    // exp(l - max) in index order), bit for bit — NaN for the all -inf
    // case, -inf for k == 0.
    double max_log = -kInf;
    for (double l : logw) max_log = std::max(max_log, l);
    double sum = 0.0;
    for (double l : logw) sum += std::exp(l - max_log);
    EXPECT_TRUE(BitEqual({lse_actual}, {max_log + std::log(sum)}))
        << "k=" << logw.size();
  }
}

// ---- axpy / outer_accumulate ------------------------------------------------

TEST_P(KernelEquivalenceTest, AxpyMatchesScalarBitwise) {
  Rng rng(19);
  for (size_t n : {size_t{0}, size_t{1}, size_t{3}, size_t{4}, size_t{5},
                   size_t{31}, size_t{100}}) {
    for (double a : {0.0, -0.0, 1.0, 0.37, -2.5, kNan}) {
      std::vector<double> x(n);
      for (auto& v : x) v = rng.Gaussian();
      if (n > 2) x[1] = -0.0;
      std::vector<double> expected(n);
      for (auto& v : expected) v = rng.Gaussian();
      std::vector<double> actual = expected;
      ScalarOps().axpy(expected.data(), x.data(), a, n);
      ops().axpy(actual.data(), x.data(), a, n);
      EXPECT_TRUE(BitEqual(actual, expected)) << "n=" << n << " a=" << a;
    }
  }
}

TEST_P(KernelEquivalenceTest, OuterAccumulateMatchesScalarBitwise) {
  Rng rng(23);
  for (size_t d : {size_t{0}, size_t{1}, size_t{2}, size_t{4}, size_t{5},
                   size_t{13}}) {
    for (double w : {0.0, 1.0, 0.37, -1.5}) {
      std::vector<double> x(d);
      for (auto& v : x) v = rng.Gaussian();
      if (d > 1) x[0] = 0.0;  // exercises the wi == 0 row-skip contract
      std::vector<double> expected(d * d);
      // Poison some rows with NaN: a skipped row must keep them intact.
      for (auto& v : expected) v = rng.UniformInt(8) == 0 ? kNan : rng.Gaussian();
      std::vector<double> actual = expected;
      ScalarOps().outer_accumulate(expected.data(), x.data(), w, d);
      ops().outer_accumulate(actual.data(), x.data(), w, d);
      EXPECT_TRUE(BitEqual(actual, expected)) << "d=" << d << " w=" << w;
    }
  }
}

// ---- mahalanobis_batch ------------------------------------------------------

TEST_P(KernelEquivalenceTest, MahalanobisBatchMatchesCholeskyBitwise) {
  Rng rng(29);
  for (size_t n : {size_t{0}, size_t{1}, size_t{2}, size_t{3}, size_t{5},
                   size_t{28}}) {
    for (size_t k : {size_t{1}, size_t{4}, size_t{5}, size_t{9}}) {
      const size_t groups = (k + kBatchLanes - 1) / kBatchLanes;
      // Random SPD covariances, factorized; padding lanes get the
      // identity, as the contract asks.
      std::vector<linalg::Cholesky> chols;
      std::vector<linalg::Vector> means(k, linalg::Vector(n));
      std::vector<double> packed_means(groups * n * kBatchLanes, 0.0);
      std::vector<double> packed(groups * n * n * kBatchLanes, kNan);
      for (size_t c = 0; c < groups * kBatchLanes; ++c) {
        const size_t g = c / kBatchLanes;
        const size_t lane = c % kBatchLanes;
        linalg::Matrix lower = linalg::Matrix::Identity(n);
        if (c < k) {
          linalg::Matrix a(n, n);
          for (size_t i = 0; i < n; ++i) {
            for (size_t j = 0; j < n; ++j) a(i, j) = rng.Gaussian();
          }
          linalg::Matrix spd = a.MatMul(a.Transposed());
          spd.AddToDiagonal(0.5);
          chols.push_back(linalg::Cholesky::Factorize(spd).value());
          lower = chols.back().lower();
          for (double& v : means[c]) v = rng.Gaussian();
        }
        for (size_t j = 0; j < n; ++j) {
          // Entries above the diagonal stay NaN: the kernel must not
          // read them.
          for (size_t i = j; i < n; ++i) {
            packed[((g * n + j) * n + i) * kBatchLanes + lane] = lower(i, j);
          }
          if (c < k) {
            packed_means[(g * n + j) * kBatchLanes + lane] = means[c][j];
          }
        }
      }
      linalg::Vector x(n);
      for (double& v : x) v = rng.Gaussian();
      std::vector<double> scratch(n * kBatchLanes);
      std::vector<double> expected(groups * kBatchLanes);
      std::vector<double> actual(groups * kBatchLanes);
      ScalarOps().mahalanobis_batch(x.data(), packed_means.data(),
                                    packed.data(), n, groups, scratch.data(),
                                    expected.data());
      ops().mahalanobis_batch(x.data(), packed_means.data(), packed.data(), n,
                              groups, scratch.data(), actual.data());
      EXPECT_TRUE(BitEqual(actual, expected)) << "n=" << n << " k=" << k;
      linalg::Vector chol_scratch;
      for (size_t c = 0; c < k; ++c) {
        const double direct =
            chols[c].MahalanobisSquared(x, means[c], chol_scratch);
        EXPECT_TRUE(BitEqual({actual[c]}, {direct}))
            << "n=" << n << " k=" << k << " c=" << c;
      }
    }
  }
}

// ---- RSSC end to end --------------------------------------------------------

/// Random signatures over `dims` attributes; some share attributes, some
/// have a single wide interval, index `empty_at` (if in range) gets the
/// empty signature (no intervals at all — matches every point).
std::vector<Signature> MakeSignatures(size_t count, size_t dims, Rng& rng,
                                      size_t empty_at) {
  std::vector<Signature> sigs;
  sigs.reserve(count);
  for (size_t j = 0; j < count; ++j) {
    if (j == empty_at) {
      sigs.push_back(Signature::Make({}).value());
      continue;
    }
    const size_t width = 1 + rng.UniformInt(std::min<size_t>(3, dims));
    std::vector<Interval> intervals;
    for (size_t a = 0; a < width; ++a) {
      const size_t attr = (j + a * 2) % dims;
      const double lo = rng.Uniform(0.0, 0.8);
      intervals.push_back({attr, lo, lo + rng.Uniform(0.05, 0.2)});
    }
    auto made = Signature::Make(std::move(intervals));
    if (!made.ok()) {  // duplicate attr collision: fall back to 1-signature
      sigs.push_back(Signature::Single({j % dims, 0.1, 0.6}));
    } else {
      sigs.push_back(std::move(made).value());
    }
  }
  return sigs;
}

/// A dataset whose first rows carry hostile coordinates (NaN, ±inf,
/// signed zero, out-of-range) and the rest uniform noise.
data::Dataset MakeDataset(size_t n, size_t dims, Rng& rng) {
  data::Dataset dataset(n, dims);
  const std::vector<double> hostile = {kNan, kInf, -kInf, -0.0, 1.5, -0.5};
  for (size_t i = 0; i < n; ++i) {
    for (size_t d = 0; d < dims; ++d) {
      const double v = i < hostile.size() ? hostile[(i + d) % hostile.size()]
                                          : rng.Uniform();
      dataset.Set(static_cast<data::PointId>(i), d, v);
    }
  }
  return dataset;
}

/// The ISSUE's tail-width ladder: counts straddling every word-boundary
/// shape of the bitmap (empty, single, partial word, exact word, word+1,
/// two exact words).
const size_t kSignatureCounts[] = {0, 1, 63, 64, 65, 128};

TEST_P(KernelEquivalenceTest, RsscEndToEndMatchesScalarBackend) {
  Rng rng(29);
  const size_t dims = 6;
  const data::Dataset dataset = MakeDataset(300, dims, rng);
  for (size_t count : kSignatureCounts) {
    const std::vector<Signature> sigs =
        MakeSignatures(count, dims, rng, /*empty_at=*/2);

    ASSERT_TRUE(SetBackend("scalar").ok());
    const auto supports_scalar = CountSupports(dataset, sigs, nullptr);
    const auto assign_scalar = UniqueAssignments(dataset, sigs, nullptr);

    ASSERT_TRUE(SetBackend(GetParam()).ok());
    const auto supports_backend = CountSupports(dataset, sigs, nullptr);
    const auto assign_backend = UniqueAssignments(dataset, sigs, nullptr);
    const auto supports_naive = CountSupportsNaive(dataset, sigs, nullptr);

    ASSERT_TRUE(SetBackend("auto").ok());
    EXPECT_EQ(supports_backend, supports_scalar) << "count=" << count;
    EXPECT_EQ(assign_backend, assign_scalar) << "count=" << count;
    // And both must still agree with naive per-signature containment —
    // the kernel path may not drift from the semantic definition.
    EXPECT_EQ(supports_backend, supports_naive) << "count=" << count;
  }
}

TEST_P(KernelEquivalenceTest, RsscMatchBitsIdenticalPerPoint) {
  Rng rng(31);
  const size_t dims = 5;
  const data::Dataset dataset = MakeDataset(64, dims, rng);
  for (size_t count : kSignatureCounts) {
    if (count == 0) continue;  // Match needs at least one word to compare
    const std::vector<Signature> sigs =
        MakeSignatures(count, dims, rng, /*empty_at=*/0);
    const Rssc rssc(sigs);
    std::vector<uint64_t> bits_scalar;
    std::vector<uint64_t> bits_backend;
    for (size_t i = 0; i < dataset.num_points(); ++i) {
      ASSERT_TRUE(SetBackend("scalar").ok());
      rssc.Match(dataset.Row(static_cast<data::PointId>(i)), bits_scalar);
      ASSERT_TRUE(SetBackend(GetParam()).ok());
      rssc.Match(dataset.Row(static_cast<data::PointId>(i)), bits_backend);
      ASSERT_EQ(bits_backend, bits_scalar) << "count=" << count << " i=" << i;
    }
    ASSERT_TRUE(SetBackend("auto").ok());
    // Padding above num_signatures() must be clear in the last word.
    const size_t tail = count % 64;
    if (tail != 0) {
      EXPECT_EQ(bits_scalar.back() >> tail, 0u) << "count=" << count;
    }
  }
}

TEST_P(KernelEquivalenceTest, AccumulateNeedsOnlyLiveCounters) {
  // The S1 regression guard: Accumulate with `supports` sized exactly
  // num_signatures() — one past-the-end write would be caught by ASan
  // and by the canary below.
  Rng rng(37);
  const size_t dims = 4;
  const data::Dataset dataset = MakeDataset(50, dims, rng);
  for (size_t count : {size_t{1}, size_t{63}, size_t{65}, size_t{127}}) {
    const size_t empty_at = count > 1 ? 1 : 0;
    const std::vector<Signature> sigs =
        MakeSignatures(count, dims, rng, empty_at);
    const Rssc rssc(sigs);
    ASSERT_TRUE(SetBackend(GetParam()).ok());
    std::vector<uint64_t> storage(count + 1, 0);
    storage.back() = 0xDEADBEEFULL;  // canary just past the live lanes
    std::vector<uint64_t> scratch;
    for (size_t i = 0; i < dataset.num_points(); ++i) {
      rssc.Accumulate(dataset.Row(static_cast<data::PointId>(i)), scratch,
                      std::span<uint64_t>(storage.data(), count));
    }
    ASSERT_TRUE(SetBackend("auto").ok());
    EXPECT_EQ(storage.back(), 0xDEADBEEFULL) << "count=" << count;
    // The empty signature matches every point.
    EXPECT_EQ(storage[empty_at], dataset.num_points()) << "count=" << count;
  }
}

}  // namespace
}  // namespace p3c::core::kernels
