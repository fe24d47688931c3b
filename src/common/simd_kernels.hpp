// Vectorizable per-client reduction kernels.
//
// The evaluation hot path reduces contiguous per-element value rows millions
// of times (max over a row, dot with the order-statistic weights). Written
// naively, GCC refuses to vectorize the FP-add reduction (reassociation
// changes the rounding) and the fused row/column max updates; the `omp simd`
// pragmas below grant exactly that reassociation permission per loop —
// without -ffast-math and without affecting any other code. The build adds
// -fopenmp-simd (pragma-only OpenMP: no runtime, no threads), so the pragmas
// are honored by GCC/Clang and harmlessly ignored elsewhere.
//
// Because vector reduction reorders the sums, results may differ from the
// scalar loop by O(eps * n) — callers compare evaluation paths with relative
// tolerances (1e-9), never bit-identity across *different* kernels. Each
// kernel is itself deterministic: the same input span always produces the
// same value.
#pragma once

#include <cstddef>
#include <limits>
#include <span>

namespace qp::common {

/// max over a contiguous span; -infinity for an empty span.
[[nodiscard]] inline double max_reduce(std::span<const double> values) noexcept {
  double result = -std::numeric_limits<double>::infinity();
  const double* x = values.data();
  const std::size_t n = values.size();
#pragma omp simd reduction(max : result)
  for (std::size_t i = 0; i < n; ++i) {
    result = x[i] > result ? x[i] : result;
  }
  return result;
}

/// sum_i values[i] * weights[i]; the caller guarantees equal sizes.
[[nodiscard]] inline double weighted_dot(std::span<const double> values,
                                         std::span<const double> weights) noexcept {
  double sum = 0.0;
  const double* x = values.data();
  const double* w = weights.data();
  const std::size_t n = values.size();
#pragma omp simd reduction(+ : sum)
  for (std::size_t i = 0; i < n; ++i) {
    sum += x[i] * w[i];
  }
  return sum;
}

/// out[i] = max(out[i], values[i]) elementwise (the column-maxima update of
/// the Grid kernels, one contiguous row at a time).
inline void max_accumulate(std::span<const double> values, double* out) noexcept {
  const double* x = values.data();
  const std::size_t n = values.size();
#pragma omp simd
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = x[i] > out[i] ? x[i] : out[i];
  }
}

/// sum_i max(bound, values[i]) — the per-row quorum-maxima sum of the Grid
/// expected-max kernel (bound = the row maximum, values = column maxima).
[[nodiscard]] inline double max_with_bound_sum(double bound,
                                               std::span<const double> values) noexcept {
  double sum = 0.0;
  const double* x = values.data();
  const std::size_t n = values.size();
#pragma omp simd reduction(+ : sum)
  for (std::size_t i = 0; i < n; ++i) {
    sum += x[i] > bound ? x[i] : bound;
  }
  return sum;
}

}  // namespace qp::common
