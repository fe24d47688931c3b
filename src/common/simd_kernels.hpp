// Per-client reduction kernels.
//
// The evaluation hot path reduces contiguous per-element value rows millions
// of times (max over a row, dot with the order-statistic weights). The two
// sums below fix their expression tree in the source instead of leaving it
// to the optimizer, so every build type (-O0, -O3, sanitizers) returns the
// same bits and the goldens compare exact strings only. The order contract
// is a two-lane sum:
//
//   lane0 = x[0] + x[2] + x[4] + ...   (even indices, left to right)
//   lane1 = x[1] + x[3] + x[5] + ...   (odd indices, left to right)
//   an odd-length span adds its last element into lane0 after the pairs;
//   result = (0.0 + lane0) + lane1.
//
// That is the order the former `omp simd` reductions took at -O3 on x86-64
// (two doubles per SSE2 vector, scalar tail in lane 0), so the recorded
// figures kept their bits. common_test's SimdKernels.SumsFollowFixedTwoLaneOrder
// pins it. The loops count pairs up front (index 2p, 2p + 1): in that shape
// GCC packs both lanes into one SSE2 add, where an `i + 1 < n` loop compiled
// to four serial scalar adds per step at some call sites. The max kernels
// are plain loops: max is exact in any order.
//
// No flag in the tree enables FMA contraction, and x86-64 baseline code has
// no FMA to contract `lane += x * w` into. Builds that enable FMA (for
// example -march=native) are outside the bitwise promise.
#pragma once

#include <cstddef>
#include <limits>
#include <span>

namespace qp::common {

/// max over a contiguous span; -infinity for an empty span.
[[nodiscard]] inline double max_reduce(std::span<const double> values) noexcept {
  double result = -std::numeric_limits<double>::infinity();
  for (const double x : values) result = x > result ? x : result;
  return result;
}

/// sum_i values[i] * weights[i] in the two-lane order above; the caller
/// guarantees equal sizes.
[[nodiscard]] inline double weighted_dot(std::span<const double> values,
                                         std::span<const double> weights) noexcept {
  const double* x = values.data();
  const double* w = weights.data();
  const std::size_t n = values.size();
  double lane0 = 0.0;
  double lane1 = 0.0;
  const std::size_t pairs = n / 2;
  for (std::size_t p = 0; p < pairs; ++p) {
    lane0 += x[2 * p] * w[2 * p];
    lane1 += x[2 * p + 1] * w[2 * p + 1];
  }
  if (n % 2 != 0) lane0 += x[n - 1] * w[n - 1];
  return (0.0 + lane0) + lane1;
}

/// out[i] = max(out[i], values[i]) elementwise (the column-maxima update of
/// the Grid kernels, one contiguous row at a time).
inline void max_accumulate(std::span<const double> values, double* out) noexcept {
  for (std::size_t i = 0; i < values.size(); ++i) {
    out[i] = values[i] > out[i] ? values[i] : out[i];
  }
}

/// sum_i max(bound, values[i]) in the two-lane order above — the per-row
/// quorum-maxima sum of the Grid expected-max kernel (bound = the row
/// maximum, values = column maxima).
[[nodiscard]] inline double max_with_bound_sum(double bound,
                                               std::span<const double> values) noexcept {
  const double* x = values.data();
  const std::size_t n = values.size();
  double lane0 = 0.0;
  double lane1 = 0.0;
  const std::size_t pairs = n / 2;
  for (std::size_t p = 0; p < pairs; ++p) {
    lane0 += x[2 * p] > bound ? x[2 * p] : bound;
    lane1 += x[2 * p + 1] > bound ? x[2 * p + 1] : bound;
  }
  if (n % 2 != 0) lane0 += x[n - 1] > bound ? x[n - 1] : bound;
  return (0.0 + lane0) + lane1;
}

}  // namespace qp::common
