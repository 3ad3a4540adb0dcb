// AVX2 backend. This translation unit is the only one compiled with
// -mavx2 (see src/CMakeLists.txt); the dispatcher calls into it only
// after __builtin_cpu_supports("avx2") says the running CPU can execute
// it. When the toolchain cannot target AVX2 the file degrades to a stub
// and the dispatcher falls back to scalar.
//
// Bit-exactness vs the scalar backend (the kernel-smoke contract):
//  - integer kernels commute trivially (AND / per-bit add);
//  - floating-point kernels vectorize only elementwise IEEE-exact ops
//    (sub, mul, div, compare, round-to-+inf) and never use FMA — this
//    file must not be compiled with -mfma, or GCC would contract
//    mul+add chains and break equivalence;
//  - std::exp stays scalar and reductions stay in index order.
//
// softmax_normalize is the shared scalar implementation: an AVX2 max and
// divide measured 0.70-1.00x of it at the E step's k (DESIGN.md §14.1).

#include "src/core/kernels/kernels.h"

#if defined(__AVX2__) && defined(__x86_64__)

#include <immintrin.h>

#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>

namespace p3c::core::kernels {
namespace {

void BitmapAndReduce(uint64_t* bits, const uint64_t* const* masks,
                     size_t num_masks, size_t num_words) {
  size_t w = 0;
  for (; w + 4 <= num_words; w += 4) {
    __m256i acc =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(bits + w));
    for (size_t m = 0; m < num_masks; ++m) {
      acc = _mm256_and_si256(
          acc,
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(masks[m] + w)));
    }
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(bits + w), acc);
  }
  for (; w < num_words; ++w) {
    uint64_t v = bits[w];
    for (size_t m = 0; m < num_masks; ++m) v &= masks[m][w];
    bits[w] = v;
  }
}

void SupportAccumulate(const uint64_t* bits, size_t num_words,
                       uint64_t* counters) {
  // Dense words update all 64 counters branchlessly (broadcast the word,
  // per-lane variable shift, mask to 0/1, add); sparse words keep the
  // scalar per-set-bit walk. Both orders add the same integers, so the
  // counters are identical either way.
  const __m256i one = _mm256_set1_epi64x(1);
  const __m256i four = _mm256_set1_epi64x(4);
  for (size_t w = 0; w < num_words; ++w) {
    const uint64_t word = bits[w];
    if (word == 0) continue;
    uint64_t* base = counters + w * 64;
    if (std::popcount(word) < 16) {
      uint64_t rest = word;
      while (rest != 0) {
        base[static_cast<size_t>(std::countr_zero(rest))] += 1;
        rest &= rest - 1;
      }
      continue;
    }
    const __m256i bw = _mm256_set1_epi64x(static_cast<long long>(word));
    __m256i shift = _mm256_set_epi64x(3, 2, 1, 0);
    for (size_t g = 0; g < 64; g += 4) {
      const __m256i lanes =
          _mm256_and_si256(_mm256_srlv_epi64(bw, shift), one);
      __m256i* slot = reinterpret_cast<__m256i*>(base + g);
      _mm256_storeu_si256(slot,
                          _mm256_add_epi64(_mm256_loadu_si256(slot), lanes));
      shift = _mm256_add_epi64(shift, four);
    }
  }
}

size_t ScalarBinIndex(double x, size_t num_bins) {
  if (!(x > 0.0)) return 0;
  const double scaled = std::ceil(static_cast<double>(num_bins) * x);
  if (scaled >= static_cast<double>(num_bins)) return num_bins - 1;
  return static_cast<size_t>(scaled) - 1;
}

void HistogramBin(const double* xs, size_t n, size_t stride, size_t num_bins,
                  uint64_t* counts) {
  const __m256d m = _mm256_set1_pd(static_cast<double>(num_bins));
  const __m256d zero = _mm256_setzero_pd();
  alignas(32) double scaled_lanes[4];
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d x =
        stride == 1
            ? _mm256_loadu_pd(xs + i)
            : _mm256_set_pd(xs[(i + 3) * stride], xs[(i + 2) * stride],
                            xs[(i + 1) * stride], xs[i * stride]);
    // ceil(m*x) via mul + round-to-+inf: the same two IEEE operations the
    // scalar formula performs, so lane values match std::ceil exactly.
    const __m256d scaled = _mm256_round_pd(
        _mm256_mul_pd(m, x), _MM_FROUND_TO_POS_INF | _MM_FROUND_NO_EXC);
    // NaN compares false in GT_OQ, exactly like the scalar !(x > 0) test.
    const int positive =
        _mm256_movemask_pd(_mm256_cmp_pd(x, zero, _CMP_GT_OQ));
    const int overflow =
        _mm256_movemask_pd(_mm256_cmp_pd(scaled, m, _CMP_GE_OQ));
    _mm256_store_pd(scaled_lanes, scaled);
    for (int l = 0; l < 4; ++l) {
      size_t bin = 0;
      if ((positive & (1 << l)) != 0) {
        bin = (overflow & (1 << l)) != 0
                  ? num_bins - 1
                  : static_cast<size_t>(scaled_lanes[l]) - 1;
      }
      ++counts[bin];
    }
  }
  for (; i < n; ++i) ++counts[ScalarBinIndex(xs[i * stride], num_bins)];
}

void Axpy(double* acc, const double* x, double a, size_t n) {
  const __m256d va = _mm256_set1_pd(a);
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d prod = _mm256_mul_pd(va, _mm256_loadu_pd(x + i));
    _mm256_storeu_pd(acc + i,
                     _mm256_add_pd(_mm256_loadu_pd(acc + i), prod));
  }
  for (; i < n; ++i) acc[i] += a * x[i];
}

void OuterAccumulate(double* out, const double* x, double w, size_t d) {
  for (size_t i = 0; i < d; ++i) {
    const double wi = w * x[i];
    if (wi == 0.0) continue;
    double* row = out + i * d;
    const __m256d vwi = _mm256_set1_pd(wi);
    size_t j = 0;
    for (; j + 4 <= d; j += 4) {
      const __m256d prod = _mm256_mul_pd(vwi, _mm256_loadu_pd(x + j));
      _mm256_storeu_pd(row + j,
                       _mm256_add_pd(_mm256_loadu_pd(row + j), prod));
    }
    for (; j < d; ++j) row[j] += wi * x[j];
  }
}

// One register holds the four lanes of a group: the same div, mul and
// sub per lane as the scalar loop, and the squares summed in j order.
void MahalanobisBatch(const double* x, const double* means,
                      const double* factors, size_t n, size_t num_groups,
                      double* scratch, double* d2) {
  static_assert(kBatchLanes == 4, "one __m256d per lane group");
  for (size_t g = 0; g < num_groups; ++g) {
    const double* mu = means + g * n * 4;
    const double* lt = factors + g * n * n * 4;
    for (size_t i = 0; i < n; ++i) {
      _mm256_storeu_pd(scratch + i * 4,
                       _mm256_sub_pd(_mm256_set1_pd(x[i]),
                                     _mm256_loadu_pd(mu + i * 4)));
    }
    __m256d sum = _mm256_setzero_pd();
    for (size_t j = 0; j < n; ++j) {
      const double* col = lt + j * n * 4;
      const __m256d y = _mm256_div_pd(_mm256_loadu_pd(scratch + j * 4),
                                      _mm256_loadu_pd(col + j * 4));
      sum = _mm256_add_pd(sum, _mm256_mul_pd(y, y));
      for (size_t i = j + 1; i < n; ++i) {
        _mm256_storeu_pd(
            scratch + i * 4,
            _mm256_sub_pd(_mm256_loadu_pd(scratch + i * 4),
                          _mm256_mul_pd(_mm256_loadu_pd(col + i * 4), y)));
      }
    }
    _mm256_storeu_pd(d2 + g * 4, sum);
  }
}

constexpr Ops kAvx2Ops = {
    "avx2",           BitmapAndReduce,          SupportAccumulate,
    HistogramBin,     detail::SoftmaxNormalize, Axpy,
    OuterAccumulate,  MahalanobisBatch,
};

}  // namespace

namespace detail {
const Ops* Avx2OpsOrNull() { return &kAvx2Ops; }
}  // namespace detail

}  // namespace p3c::core::kernels

#else  // !(__AVX2__ && __x86_64__)

namespace p3c::core::kernels::detail {
const Ops* Avx2OpsOrNull() { return nullptr; }
}  // namespace p3c::core::kernels::detail

#endif
