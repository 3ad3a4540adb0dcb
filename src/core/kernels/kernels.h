#ifndef P3C_CORE_KERNELS_KERNELS_H_
#define P3C_CORE_KERNELS_KERNELS_H_

// Runtime-dispatched compute kernels for the per-point hot loops
// (DESIGN.md §14): RSSC bitmap matching / support counting, histogram
// binning, and the GMM E-step inner operations. Every backend implements
// the same Ops table and every operation is *bit-exact* across backends —
// integer kernels trivially so, floating-point kernels by restricting
// vectorization to elementwise IEEE-exact operations (no FMA, no
// reassociated reductions, scalar std::exp). That contract is what lets
// the engine keep its byte-identical-output guarantee while swapping
// backends, and it is enforced by the kernel-smoke equivalence suite.
//
// The scalar backend is the semantic ground truth and always available;
// vectorized backends register themselves only when the compiler could
// build them and the running CPU supports them. Selection: the fastest
// available backend by default, overridable via SetBackend() (the CLI's
// --kernel-backend flag and the benches' sweep loop).

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "src/common/status.h"

namespace p3c::core::kernels {

/// One backend's kernel table. All pointers are non-null.
struct Ops {
  /// Backend name ("scalar", "avx2", ...) as accepted by SetBackend().
  const char* name;

  /// bits[w] &= masks[0][w] & masks[1][w] & ... for w < num_words. Each
  /// masks[i] points at num_words consecutive words. The RSSC Match
  /// inner loop, batched over several attributes so one pass over `bits`
  /// amortizes the loads/stores.
  void (*bitmap_and_reduce)(uint64_t* bits, const uint64_t* const* masks,
                            size_t num_masks, size_t num_words);

  /// counters[w * 64 + b] += (bits[w] >> b) & 1 for every word w <
  /// num_words and bit b. The RSSC support-count accumulate over *full*
  /// words — callers handle a partial tail word themselves so counter
  /// storage can be sized to the live signature count.
  void (*support_accumulate)(const uint64_t* bits, size_t num_words,
                             uint64_t* counters);

  /// ++counts[BinIndex(xs[i * stride])] for i < n, with the paper's Eq. 8
  /// equi-width binning over [0, 1]: bin = max(1, ceil(m*x)) - 1 clamped
  /// into [0, m-1]; NaN and anything !(x > 0) land in bin 0, x >= 1 and
  /// +inf in bin m-1 (well-defined for hostile coordinates, unlike a raw
  /// double->integer cast). `stride` lets a row-major block feed one
  /// attribute's histogram directly. num_bins >= 1.
  void (*histogram_bin)(const double* xs, size_t n, size_t stride,
                        size_t num_bins, uint64_t* counts);

  /// In-place softmax over log-weighted densities (the GMM E-step
  /// responsibility normalization): m = max(logw), logw[i] =
  /// exp(logw[i] - m), then divide by the in-order sum s. Writes the
  /// log-sum-exp m + log(s) — the point's mixture log-likelihood — to
  /// *log_sum_exp, so the E step never recomputes the exps. Returns the
  /// index of the first maximum (0 when k == 0 or nothing exceeds -inf).
  /// exp is scalar and s is summed in index order; every backend uses
  /// the one scalar implementation (DESIGN.md §14.1), so results are
  /// bit-exact across backends.
  size_t (*softmax_normalize)(double* logw, size_t k, double* log_sum_exp);

  /// acc[i] += a * x[i] for i < n (weighted-moment accumulation).
  void (*axpy)(double* acc, const double* x, double a, size_t n);

  /// Rank-one update of a row-major d x d matrix: for each row i with
  /// wi = w * x[i] != 0, out[i*d + j] += wi * x[j]. The wi == 0 row skip
  /// is part of the contract (it preserves existing entries exactly,
  /// including signed zeros and NaN propagation).
  void (*outer_accumulate)(double* out, const double* x, double w, size_t d);

  /// Squared Mahalanobis distances of one point x (n coordinates) to
  /// num_groups * kBatchLanes Gaussians at once: the E step's k
  /// triangular solves per point. Gaussian c = g * kBatchLanes + l is
  /// lane l of group g, with means[(g*n + i) * kBatchLanes + l] = mu_c[i]
  /// and factors[((g*n + j)*n + i) * kBatchLanes + l] = L_c(i, j), the
  /// lower Cholesky factor of Sigma_c (entries with i < j are never
  /// read). d2[c] = |y|^2 for L_c y = x - mu_c, solved column by column
  /// in `scratch` (n * kBatchLanes doubles): y_j = b_j / L(j, j), then
  /// b_i -= L(i, j) * y_j for i > j, the squares summed in j order.
  /// Each b_i thus subtracts its terms in increasing j, exactly as the
  /// row-by-row solve of linalg::Cholesky::MahalanobisSquared does, so
  /// every lane is bit-exact with it; the column order only frees the
  /// rows' updates from one serial dependency chain. Padding lanes need
  /// a nonzero diagonal.
  void (*mahalanobis_batch)(const double* x, const double* means,
                            const double* factors, size_t n,
                            size_t num_groups, double* scratch, double* d2);
};

/// Lane count of the component-interleaved layout mahalanobis_batch
/// reads (one AVX2 register of doubles).
inline constexpr size_t kBatchLanes = 4;

namespace detail {
/// The one softmax_normalize implementation, shared by every backend's
/// table: vectorizing its max and divide loops measured no faster than
/// this scalar loop at the E step's k (DESIGN.md §14.1).
size_t SoftmaxNormalize(double* logw, size_t k, double* log_sum_exp);
}  // namespace detail

/// The scalar reference backend (always available).
const Ops& ScalarOps();

/// Backends usable in this binary on this CPU, preference-ordered
/// (fastest first, scalar last). Never empty.
std::vector<const Ops*> AvailableBackends();

/// The active backend. Defaults to AvailableBackends().front() on first
/// use; see SetBackend() to override. Thread-safe.
const Ops& Active();

/// Selects the active backend: "auto" re-runs detection, otherwise a
/// backend name from AvailableBackends(). Unknown or unsupported names
/// return InvalidArgument listing the valid choices. Call at startup
/// (before worker threads), not concurrently with kernel execution.
Status SetBackend(const std::string& name);

}  // namespace p3c::core::kernels

#endif  // P3C_CORE_KERNELS_KERNELS_H_
