#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>

#include "src/core/kernels/kernels.h"

// Scalar reference backend: the semantic ground truth every vectorized
// backend must match bit-for-bit (kernel-smoke). Written for clarity
// first, but the compiler's baseline autovectorization is left on — the
// speedups reported by bench_kernels are against *this*, not against a
// deliberately hobbled loop.

namespace p3c::core::kernels {

namespace detail {

size_t SoftmaxNormalize(double* logw, size_t k, double* log_sum_exp) {
  double max_log = -std::numeric_limits<double>::infinity();
  size_t argmax = 0;
  for (size_t i = 0; i < k; ++i) {
    if (logw[i] > max_log) {
      max_log = logw[i];
      argmax = i;
    }
  }
  double sum = 0.0;
  for (size_t i = 0; i < k; ++i) {
    logw[i] = std::exp(logw[i] - max_log);
    sum += logw[i];
  }
  for (size_t i = 0; i < k; ++i) logw[i] /= sum;
  *log_sum_exp = max_log + std::log(sum);
  return argmax;
}

}  // namespace detail

namespace {

void BitmapAndReduce(uint64_t* bits, const uint64_t* const* masks,
                     size_t num_masks, size_t num_words) {
  for (size_t m = 0; m < num_masks; ++m) {
    const uint64_t* mask = masks[m];
    for (size_t w = 0; w < num_words; ++w) bits[w] &= mask[w];
  }
}

void SupportAccumulate(const uint64_t* bits, size_t num_words,
                       uint64_t* counters) {
  // Sparse per-set-bit walk: fast when few signatures match a point.
  for (size_t w = 0; w < num_words; ++w) {
    uint64_t word = bits[w];
    uint64_t* base = counters + w * 64;
    while (word != 0) {
      base[static_cast<size_t>(std::countr_zero(word))] += 1;
      word &= word - 1;
    }
  }
}

// Eq. 8 binning, defined for every double (see Ops::histogram_bin).
// stats::BinIndex implements the same formula; the kernel-smoke suite
// pins the two together.
size_t BinIndex(double x, size_t num_bins) {
  if (!(x > 0.0)) return 0;
  const double scaled = std::ceil(static_cast<double>(num_bins) * x);
  if (scaled >= static_cast<double>(num_bins)) return num_bins - 1;
  return static_cast<size_t>(scaled) - 1;
}

void HistogramBin(const double* xs, size_t n, size_t stride, size_t num_bins,
                  uint64_t* counts) {
  for (size_t i = 0; i < n; ++i) ++counts[BinIndex(xs[i * stride], num_bins)];
}

void Axpy(double* acc, const double* x, double a, size_t n) {
  for (size_t i = 0; i < n; ++i) acc[i] += a * x[i];
}

void OuterAccumulate(double* out, const double* x, double w, size_t d) {
  for (size_t i = 0; i < d; ++i) {
    const double wi = w * x[i];
    if (wi == 0.0) continue;
    double* row = out + i * d;
    for (size_t j = 0; j < d; ++j) row[j] += wi * x[j];
  }
}

void MahalanobisBatch(const double* x, const double* means,
                      const double* factors, size_t n, size_t num_groups,
                      double* scratch, double* d2) {
  constexpr size_t kLanes = kBatchLanes;
  for (size_t g = 0; g < num_groups; ++g) {
    const double* mu = means + g * n * kLanes;
    const double* lt = factors + g * n * n * kLanes;
    for (size_t i = 0; i < n; ++i) {
      for (size_t l = 0; l < kLanes; ++l) {
        scratch[i * kLanes + l] = x[i] - mu[i * kLanes + l];
      }
    }
    double sum[kLanes] = {0.0, 0.0, 0.0, 0.0};
    for (size_t j = 0; j < n; ++j) {
      const double* col = lt + j * n * kLanes;
      double y[kLanes];
      for (size_t l = 0; l < kLanes; ++l) {
        y[l] = scratch[j * kLanes + l] / col[j * kLanes + l];
        sum[l] += y[l] * y[l];
      }
      for (size_t i = j + 1; i < n; ++i) {
        for (size_t l = 0; l < kLanes; ++l) {
          scratch[i * kLanes + l] -= col[i * kLanes + l] * y[l];
        }
      }
    }
    for (size_t l = 0; l < kLanes; ++l) d2[g * kLanes + l] = sum[l];
  }
}

constexpr Ops kScalarOps = {
    "scalar",         BitmapAndReduce,          SupportAccumulate,
    HistogramBin,     detail::SoftmaxNormalize, Axpy,
    OuterAccumulate,  MahalanobisBatch,
};

}  // namespace

const Ops& ScalarOps() { return kScalarOps; }

}  // namespace p3c::core::kernels
